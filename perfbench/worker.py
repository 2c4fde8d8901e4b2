"""One workload in its own process: set up, run jobs for a while, check each.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --workdir DIR [--spans FILE] [--setup-only]

It prints one JSON object: the set-up times, one record per job, peak
memory and the run metadata, plus the per-layer metrics when traced.
With --setup-only it sets up, prints {"setup_s": ...} and ends.
"""

import time

T0 = time.perf_counter()  # set-up time counts from before the package import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402  (imports the package, so it counts as set-up)
import workloads  # noqa: E402
from spans import clock  # noqa: E402

SETUP_PROBES = 5  # fresh processes that only set up; setup_s is the median with the run's own


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, keyed L1d, L1i, L2, L3."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        size = _read(f"{base}/index{index}/size")
        kind = _read(f"{base}/index{index}/type") or ""
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind.strip(), "")
        out[f"L{level.strip()}{suffix}"] = size.strip()
    return out


def run_metadata(workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "largest_array_bytes": workload.largest_array_bytes,
    }


def setup_probe(args, index: int) -> float:
    """Set up once more in a fresh process and return its set-up time."""
    workdir = Path(args.workdir) / f"probe{index}"
    workdir.mkdir()
    done = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--workdir", str(workdir),
                           "--setup-only"], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)["setup_s"]


def run_jobs(workload, args, tracer, setups: list) -> list:
    """Jobs in a closed loop until `seconds` have passed; one record per job.

    An untraced run also sets up SETUP_PROBES more times in fresh
    processes, spread over the run between jobs, and appends their
    set-up times to `setups`: the machine's speed drifts over tens of
    seconds, and spread probes see more of it than a burst would.

    A traced run alternates untraced and traced jobs, so their medians
    give the tracing overhead, and runs at least one of each.
    """
    trace = bool(args.trace)
    seconds = args.seconds
    probe_at = [] if trace else [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
    rng = random.Random(args.seed)
    jobs = []
    start = clock()
    while len(jobs) < (2 if trace else 1) or clock() - start < seconds:
        while probe_at and clock() - start >= probe_at[0]:
            probe_at.pop(0)
            setups.append(setup_probe(args, len(setups)))
        job = len(jobs)
        job_seed = rng.randrange(1 << 31)
        traced = trace and job % 2 == 1
        if tracer:
            if traced:
                tracer.install(layers.modules())
            else:
                tracer.uninstall()
            tracer.job = job if traced else None
        cpu0 = _cpu_seconds()
        t0 = clock()
        try:
            result = workload.run(job, job_seed)
            errors = []
        except Exception:
            result, errors = None, [traceback.format_exc()]
        wall = clock() - t0
        cpu, rss = _cpu_seconds() - cpu0, None
        if tracer:
            tracer.job = None
        if result is not None:
            usage = workload.usage(result)
            if usage is not None:
                cpu, rss = usage
            try:
                errors = workload.check(job_seed, result)
            except Exception:
                errors = [traceback.format_exc()]
        for message in errors:
            print(f"job {job} (seed {job_seed}) failed: {message}", file=sys.stderr)
        jobs.append({"job": job, "job_seed": job_seed, "traced": traced, "wall_s": wall,
                     "cpu_s": cpu, "maxrss_mib": rss, "errors": errors[:1]})
    for _ in probe_at:
        setups.append(setup_probe(args, len(setups)))
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](Path(args.workdir), args.seed)
    tracer = None
    if args.trace:
        tracer = workload.tracer = layers.new_tracer("worker")
        tracer.install(layers.modules())
        tracer.job = "setup"
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if tracer:
            tracer.job = None
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s]
        jobs = run_jobs(workload, args, tracer, setups)
    finally:
        workload.close()

    child_rss = [j["maxrss_mib"] for j in jobs if j["maxrss_mib"] is not None]
    doc = {
        "setups_s": setups,
        "jobs": jobs,
        "peak_rss_mib": (max(child_rss) if child_rss
                         else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "meta": run_metadata(workload),
    }
    if tracer:
        tracer.uninstall()
        traced_jobs = [j["job"] for j in jobs if j["traced"]]
        p50 = {flag: statistics.median(j["wall_s"] for j in jobs if j["traced"] == flag)
               for flag in (False, True)}
        doc["per_layer"] = layers.layer_metrics(
            tracer, traced_jobs, getattr(workload, "records", ()), p50[True] - p50[False])
        doc["layer_seconds"] = layers.layer_seconds(tracer, traced_jobs)
        doc["traced_job_s"] = sum(j["wall_s"] for j in jobs if j["traced"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
