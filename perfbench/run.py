"""The sloccinv benchmark: runs workloads and prints their metrics.

Usage: python3 perfbench/run.py [--workload NAME|all] [--seed N]
           [--seconds S] [--trace 0|1]

Each workload runs in its own worker process, a closed loop with one
client.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  Every line names its metric and
unit; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  Results, metadata and spans are kept under
.perfbench-out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from summary import failed_ratio, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel-large", "survey-small", "cli-files")

# name -> unit; the untraced run reports exactly these.
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "cpu_per_job_s": "s",
    "peak_rss_mib": "MiB",
}
RUN_LIMIT_S = 170  # a run of one workload must end well within 180 s


class WorkerError(RuntimeError):
    pass


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _worker(args: list[str], timeout: float) -> dict:
    """Run a worker to completion and return the JSON object it prints."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, outdir: Path,
                 deadline: float) -> dict:
    workdir = outdir / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--workdir", str(workdir),
                        "--spans", str(outdir / f"{name}-seed{seed}-spans.json")],
                       deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(doc: dict) -> tuple[dict, list[str]]:
    jobs = doc["jobs"]
    walls = [j["wall_s"] for j in jobs]
    tail, pct, count, beyond = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(doc["setups_s"]),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "jobs_per_s": len(jobs) / sum(walls),
        "cpu_per_job_s": sum(j["cpu_s"] for j in jobs) / len(jobs),
        "peak_rss_mib": doc["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(doc['setups_s'])} set-ups in fresh processes",
        "job_p50_s": f"{count} jobs",
        "job_tail_s": f"p{pct:.1f}, {count} samples, {beyond} beyond",
        "jobs_per_s": "jobs / summed job wall time",
        "cpu_per_job_s": "user + system",
        "peak_rss_mib": "max RSS",
    }
    lines = [f"{name:<14} {value:.6g} {END_TO_END[name]}  ({notes[name]})"
             for name, value in values.items()]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def per_layer(doc: dict) -> tuple[dict, list[str]]:
    values = doc["per_layer"]
    lines = [f"{name:<44} {values[name]:.6g} {unit}"
             for name, (unit, _) in PER_LAYER.items()]
    traced_s = doc["traced_job_s"]
    shares = sorted(doc["layer_seconds"].items(), key=lambda kv: -kv[1])
    lines += [f"share of traced job time, self time in {layer:<10} {s / traced_s:7.1%}"
              for layer, s in shares]
    return {k: {"value": values[k], "unit": u} for k, (u, _) in PER_LAYER.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sloccinv" / "__init__.py").is_file():
        print(f"error: no sloccinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench-out"
    outdir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = _git_commit()
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            doc = run_workload(name, args.seed, args.seconds, args.trace, outdir,
                               time.monotonic() + RUN_LIMIT_S)
        except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        doc["meta"].update(commit=commit, seed=args.seed, workload=name)
        print(f"{name} meta {json.dumps(doc['meta'])}")
        print(f"{name} largest array {doc['meta']['largest_array_bytes']} B, "
              f"L3 {doc['meta']['cache'].get('L3')}")
        found, lines = per_layer(doc) if args.trace else end_to_end(doc)
        jobs = doc["jobs"]
        bad = sum(bool(j["errors"]) for j in jobs)
        lines.append(f"{'failed_ratio':<14} {failed_ratio(bad, len(jobs)):.6g} ratio  "
                     f"({bad} of {len(jobs)} jobs)")
        for line in lines:
            print(f"{name} {line}")
        for job in jobs:
            for error in job["errors"]:
                print(f"{name} job {job['job']} failed: {error.strip().splitlines()[-1]}")
        record = {"meta": doc["meta"], "metrics": found, "jobs": jobs,
                  "setups_s": doc["setups_s"]}
        with open(outdir / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += len(jobs)
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
