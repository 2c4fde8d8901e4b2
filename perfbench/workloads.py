"""The three benchmark workloads: set-up, one job, and the job's checks.

Every workload is a closed loop with one client: the worker issues the
next job only after the previous one has finished.  Job inputs come
from the job seed alone.  Functions are looked up on the package at
call time, so the traced run sees every call through its wrappers.

Run as a script, with the package on PYTHONPATH, it redoes the trials
of one verify run and prints their rounding check as one JSON line:
python3 perfbench/workloads.py THEOREM N SEED TRIALS
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sloccinv as S
from sloccinv import cli as sloccinv_cli
from sloccinv import oracle, slocc, statevec

from layers import AMP_BYTES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_CHILD = HERE / "cli_child.py"
SPAWNER = HERE / "spawner.py"

VERIFY_GATE = sloccinv_cli.VERIFY_GATE
UNIT_ROUNDOFF = 2.0 ** -53
RECHECK_LIMIT_S = 60


def child_env() -> dict:
    """The environment of a child process, with the package on its path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def pair_magnitude(x: np.ndarray) -> float:
    """sum over j < N/2 of |x_j| |x_(N-1-j)|: the terms of IV* in absolute value.

    IVbar sums products of the same antipodal pairs, so this also bounds
    its terms.
    """
    m = np.abs(x)
    half = m.size // 2
    return float(m[:half] @ m[::-1][:half])


def even_scale(s) -> float:
    """What a rounding error of u per term moves IV*(s) by, in units of u."""
    return pair_magnitude(s.amplitudes)


def odd_scale(s) -> float:
    """The same for IVbar**2 - 4 * IV*(lower) * IV*(upper), to first order."""
    x, half = s.amplitudes, s.amplitudes.size // 2
    return (2.0 * abs(S.iv_bar(s)) * pair_magnitude(x)
            + 4.0 * abs(S.iv_star_lower(s)) * pair_magnitude(x[half:])
            + 4.0 * abs(S.iv_star_shifted(s)) * pair_magnitude(x[:half]))


# theorem -> (invariant, power of the determinant product, rounding scale)
LAWS = {1: (S.iv_star, 1, even_scale), 2: (S.odd_invariant, 2, odd_scale)}


def rounding_check(theorem: int, n: int, seed: int, trials: int) -> tuple[float, list[str]]:
    """Redo the trials of verify_theorem<theorem>(n, trials, seed) and bound their error.

    Each trial is drawn as the harness draws it.  A relative error above
    VERIFY_GATE is still correct when |lhs - rhs| stays within
    n * u * (R(a) + |det**p| * R(b)), where R is the rounding scale of the
    invariant's terms: that is the error floating point allows when a
    random chain makes the invariant cancel to a small fraction of its
    terms.  Returns the largest relative error, to match against the
    harness's, and one line per trial beyond both.
    """
    value, power, scale_of = LAWS[theorem]
    worst, problems = 0.0, []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)  # the harness's per-trial substream
        b = statevec._wrap(n, statevec._random_amplitudes(rng, n))
        chain = slocc._random_ops(rng, n, unit_det=False)
        a = S.apply_chain(chain, b)
        det_p = S.det_product(chain) ** power
        lhs, rhs = value(a), value(b) * det_p
        err = slocc._transform_error(lhs, rhs)
        worst = max(worst, err)
        bound = n * UNIT_ROUNDOFF * (scale_of(a) + abs(det_p) * scale_of(b))
        if not (err <= VERIFY_GATE or abs(lhs - rhs) <= bound):
            problems.append(f"theorem {theorem} n={n} trial seed {seed + trial}: "
                            f"|lhs - rhs| {abs(lhs - rhs):.3e} above the rounding bound {bound:.3e}")
    return worst, problems


def recheck_above_gate(theorem: int, n: int, seed: int, trials: int, reported: float) -> list[str]:
    """Problems of a verify run whose max_rel_error is above VERIFY_GATE.

    rounding_check runs in a child process, so its vectors do not count
    in the worker's peak memory.
    """
    done = subprocess.run([sys.executable, __file__, str(theorem), str(n), str(seed), str(trials)],
                          env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
                          timeout=RECHECK_LIMIT_S)
    doc = json.loads(done.stdout)
    if not math.isclose(doc["max_rel_error"], reported, rel_tol=1e-5):
        return [f"theorem {theorem} n={n} seed {seed}: max_rel_error {reported!r} is not "
                f"reproduced (redone trials give {doc['max_rel_error']!r})"]
    if not doc["problems"]:
        print(f"theorem {theorem} n={n} seed {seed}: max_rel_error {reported:.3e} is above "
              f"{VERIFY_GATE:g} but within the rounding bound", file=sys.stderr)
    return doc["problems"]


class Workload:
    """Defaults for a workload whose jobs run inside the worker process."""

    tracer = None  # set by the worker for a traced run

    def usage(self, result):
        """CPU seconds and peak RSS of a job run elsewhere; None when in-process."""
        return None

    def close(self) -> None:
        pass


class KernelLarge(Workload):
    """apply_chain and the invariant kernels at n=22 (even) and n=21 (odd)."""

    name = "kernel-large"
    largest_array_bytes = AMP_BYTES << 22

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        for n in (20, 21, 22):  # IV* at 22, IVbar at 21, half-block IV* at 20
            S.sign_table(n)
        for n in (20, 22):
            S.sign_star_table(n)

    def run(self, job: int, job_seed: int):
        return S.verify_theorem1(22, 1, job_seed), S.verify_theorem2(21, 1, job_seed)

    def check(self, job_seed: int, result) -> list[str]:
        problems = []
        for theorem, n, err in zip((1, 2), (22, 21), result):
            if not err <= VERIFY_GATE:
                problems += recheck_above_gate(theorem, n, job_seed, 1, err)
        return problems


# tau from the hard-coded oracle polynomial: (oracle, factor) per n
ORACLE_TAU = {
    3: (oracle.oracle_odd3, 4.0),
    4: (oracle.oracle_iv4, 2.0),
    5: (oracle.oracle_odd5, 4.0),
    6: (oracle.oracle_iv6, 2.0),
}
TAU_REL_TOL = 1e-12  # the oracle-equivalence tolerance of the acceptance suite


class SurveySmall(Workload):
    """Reports, criteria and verdicts on many small states, n = 3..6."""

    name = "survey-small"
    largest_array_bytes = AMP_BYTES << 6
    sizes = (3, 4, 5, 6)

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        for n in range(2, 7):  # odd n also reads the (n-1)-qubit half-block tables
            S.sign_table(n)
            S.sign_star_table(n)
        for n in self.sizes:
            S.f_enumerate(n)

    def run(self, job: int, job_seed: int):
        out = []
        for n in self.sizes:
            s = S.random_state(n, job_seed + n)
            report = S.invariant_report(s)
            S.criteria_signature(s)
            chained = S.compare(s, S.apply_chain(S.random_chain(n, job_seed + 100 + n), s))
            ghz_w = S.compare(S.ghz(n), S.w_state(n))
            if n == 4:
                S.compare(S.cluster_c(), S.ghz(4))  # takes the D-flag path
            out.append((s, report.tau, chained.outcome, ghz_w.outcome))
        return out

    def check(self, job_seed: int, result) -> list[str]:
        problems = []
        for s, tau, chained, ghz_w in result:
            if chained == S.PROVABLY_INEQUIVALENT:
                problems.append(f"n={s.n}: compare(s, chain(s)) is {chained}")
            if ghz_w != S.PROVABLY_INEQUIVALENT:
                problems.append(f"n={s.n}: compare(ghz, w) is {ghz_w}")
            fn, factor = ORACLE_TAU[s.n]
            expected = factor * abs(fn(s))
            if abs(tau - expected) > TAU_REL_TOL * max(tau, expected):
                problems.append(f"n={s.n}: tau {tau!r} differs from the oracle's {expected!r}")
        return problems


VERIFY_THEOREM, VERIFY_N, VERIFY_TRIALS = 1, 16, 5  # the session's verify command


class CliFiles(Workload):
    """One CLI session of seven commands, each a child process."""

    name = "cli-files"
    largest_array_bytes = AMP_BYTES << 18

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.records = []     # one dict per command of the traced sessions
        self._spawner = None
        self.env = child_env()

    def setup(self) -> None:
        for n in (6, 18):  # the in-process tau of the session's files
            S.sign_table(n)
            S.sign_star_table(n)
        chain = S.random_chain(18, self.seed, unit_det=True)
        with open(self.workdir / "ops.json", "w", encoding="utf-8") as fh:
            json.dump(slocc.ops_json_dict(chain), fh)
        self._spawner = subprocess.Popen([sys.executable, str(SPAWNER)], env=self.env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait()
            self._spawner.stdout.close()
            self._spawner = None

    @staticmethod
    def commands(job_seed: int) -> list[tuple[str, list[str]]]:
        seed = str(job_seed)
        return [
            ("make", ["make", "random", "--n", "18", "--seed", seed, "-o", "a.json"]),
            ("apply", ["apply", "--input", "a.json", "--ops", "ops.json", "--output", "b.json"]),
            ("compare", ["compare", "a.json", "b.json"]),
            ("invariant", ["invariant", "--input", "a.json"]),
            ("make", ["make", "random", "--n", "6", "--seed", seed, "-o", "c.json"]),
            ("invariant", ["invariant", "--input", "c.json"]),
            ("verify", ["verify", "--theorem", str(VERIFY_THEOREM), "--n", str(VERIFY_N),
                        "--trials", str(VERIFY_TRIALS), "--seed", seed]),
        ]

    def run(self, job: int, job_seed: int):
        traced = self.tracer is not None and self.tracer.job is not None
        return [self._spawn(job, k, command, argv, traced)
                for k, (command, argv) in enumerate(self.commands(job_seed))]

    def _spawn(self, job: int, k: int, command: str, argv: list[str], traced: bool) -> dict:
        out_path = self.workdir / f"out{k}.txt"
        spans_path = self.workdir / f"spans{k}.json"
        if traced:
            spans_path.unlink(missing_ok=True)  # never merge a previous session's spans
            cmd = [sys.executable, str(CLI_CHILD), str(spans_path), f"cli-{job}-{k}", str(job),
                   *argv]
        else:
            cmd = [sys.executable, "-m", "sloccinv.cli", *argv]
        request = {"argv": cmd, "cwd": str(self.workdir), "out": str(out_path),
                   "err": str(self.workdir / f"err{k}.txt")}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        start, end = reply["start"], reply["end"]
        record = {"command": command, "rc": reply["rc"], "out": out_path,
                  "wall_s": end - start, "cpu_s": reply["cpu_s"],
                  "maxrss_mib": reply["maxrss_mib"]}
        if traced and spans_path.is_file():
            with open(spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.tracer.merge(doc, parent=self.tracer.add_span(f"cli.{command}", start, end))
            self.records.append({"job": job, "command": command, "wall_s": end - start,
                                 "maxrss_mib": record["maxrss_mib"],
                                 "startup_s": doc["t_main"] - start})
        return record

    def usage(self, result) -> tuple[float, float]:
        """Children's CPU seconds and their peak RSS in MiB."""
        return sum(r["cpu_s"] for r in result), max(r["maxrss_mib"] for r in result)

    def check(self, job_seed: int, result) -> list[str]:
        verify = result[-1]
        problems = [f"{r['command']} exited {r['rc']}" for r in result
                    if r["rc"] != 0 and not (r is verify and r["rc"] == 1)]
        if problems:
            return problems
        if verify["rc"] == 1:  # max_rel_error above VERIFY_GATE
            out = verify["out"].read_text(encoding="utf-8")
            reported = float(out.rsplit("max_rel_error=", 1)[1].split()[0])
            problems += recheck_above_gate(VERIFY_THEOREM, VERIFY_N, job_seed, VERIFY_TRIALS,
                                           reported)
        for k, state in ((3, "a.json"), (5, "c.json")):
            reported = json.loads(result[k]["out"].read_text(encoding="utf-8"))["tau"]
            direct = S.tau(S.load_state(self.workdir / state))
            if reported != direct:
                problems.append(f"invariant {state}: tau {reported!r} != in-process {direct!r}")
        return problems


WORKLOADS = {w.name: w for w in (KernelLarge, SurveySmall, CliFiles)}


if __name__ == "__main__":  # rounding_check THEOREM N SEED TRIALS, as one JSON line
    worst, problems = rounding_check(*map(int, sys.argv[1:5]))
    print(json.dumps({"max_rel_error": worst, "problems": problems}))
