"""The sloccinv layers as the traced run sees them.

It names the modules whose public functions are wrapped, the functions
aggregated instead of spanned, the observers that attach computed work
counts to spans, and how spans and counts become the per-layer metrics.
Counts marked "computed" come from a cost model of the kernel applied
to the array sizes, not from hardware counters, so cache misses are not
in them.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

from spans import Tracer, outermost, self_times

LAYERS = ("statevec", "signtab", "invariant", "slocc", "criteria", "classify", "cli")
LAYER_OF = {f"sloccinv.{m}": m for m in LAYERS}  # oracle is ground truth, errors does no work

# Called thousands of times per job (62 160 times each per n=6 state).
HOT = ("criteria.f_evaluate", "invariant.vanishing")

CLI_COMMANDS = ("make", "apply", "compare", "invariant", "verify")
OUTCOMES = ("ProvablyInequivalent", "Undetermined", "EquivalentByConstruction")

AMP_BYTES = 16  # complex128

# Invariant kernels: (terms, amplitude bytes read, flops per term) of a
# call's own work at qubit count n.  A one-bracket term (a*b - c*d)*sign
# costs two complex products (12 flops), a difference (2), the sign
# scale (2) and a compensated add of its real and imaginary parts (8):
# 24 flops.  A two-bracket term costs 40.  Bytes are the amplitudes read
# once plus one int8 sign per term; term slabs written and re-read by the
# summation are left out.
_ONE, _TWO = 24, 40
INVARIANT_WORK = {
    "invariant.iv_star": lambda n: (1 << (n - 2), AMP_BYTES << n, _ONE),
    "invariant.iv_even": lambda n: (1 << (n - 3), AMP_BYTES << n, _TWO),
    "invariant.iv_bar": lambda n: (1 << (n - 3), AMP_BYTES << n, _TWO),
    "invariant.iv_star_lower": lambda n: (1 << (n - 3), AMP_BYTES << (n - 1), _ONE),
    "invariant.iv_star_shifted": lambda n: (1 << (n - 3), AMP_BYTES << (n - 1), _ONE),
    # its own two half-block sums; the nested iv_bar counts itself
    "invariant.odd_invariant": lambda n: (2 << (n - 3), AMP_BYTES << n, _ONE),
}


def _state_arg(args, kwargs):
    return args[0] if args else kwargs["s"]


def _observe_invariant(tracer, span, args, kwargs, result):
    terms, amp_bytes, flops_per_term = INVARIANT_WORK[span.name](_state_arg(args, kwargs).n)
    tracer.count("invariant.terms_computed", terms)
    tracer.count("invariant.bytes_computed", amp_bytes + terms)
    tracer.count("invariant.flops_computed", terms * flops_per_term)


def apply_chain_work(n: int) -> tuple[int, int]:
    """(bytes, flops) of apply_chain at n qubits.

    Each two-qubit pass reads and writes the 16 * 2**n-byte vector once
    and does a 4x4 complex matvec per amplitude quad (4 rows of 4 complex
    products and 3 sums: 120 flops per quad, 30 per amplitude).  An odd
    last qubit takes a one-qubit pass: a 2x2 matvec per pair, 14 flops
    per amplitude.
    """
    pairs, single = divmod(n, 2)
    size = 1 << n
    return (pairs + single) * 2 * AMP_BYTES * size, (30 * pairs + 14 * single) * size


def _observe_apply_chain(tracer, span, args, kwargs, result):
    nbytes, flops = apply_chain_work(result.n)
    tracer.count("slocc.apply_chain.bytes_computed", nbytes)
    tracer.count("slocc.apply_chain.flops_computed", flops)


def _observe_file(index):
    def observe(tracer, span, args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        tracer.count(f"{span.name}.bytes", os.path.getsize(path))
    return observe


def _observe_d_criteria(tracer, span, args, kwargs, result):
    tracer.count("criteria.d_blocks", len(result))


def _observe_f_enumerate(tracer, span, args, kwargs, result):
    if span.cold:
        span.value = len(result)


def _observe_compare(tracer, span, args, kwargs, result):
    tracer.count(f"classify.outcome.{result.outcome}")
    tracer.count("classify.heuristic_flags", len(result.heuristic_flags))
    span.value = len(result.heuristic_flags)


OBSERVERS = {
    **{name: _observe_invariant for name in INVARIANT_WORK},
    "slocc.apply_chain": _observe_apply_chain,
    "statevec.save_state": _observe_file(1),
    "statevec.load_state": _observe_file(0),
    "criteria.d_criteria": _observe_d_criteria,
    "criteria.f_enumerate": _observe_f_enumerate,
    "classify.compare": _observe_compare,
}


def modules():
    """The package namespace and every layer module, where callers look names up."""
    return [importlib.import_module("sloccinv")] + [
        importlib.import_module(name) for name in LAYER_OF]


def new_tracer(proc: str) -> Tracer:
    return Tracer(LAYER_OF, proc=proc, hot=HOT, observers=OBSERVERS)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name -> (unit, better); the traced run reports exactly these.
PER_LAYER = {
    "slocc.apply_chain.calls": ("count", "lower"),
    "slocc.apply_chain.busy_s": ("s", "lower"),
    "slocc.apply_chain.bytes_computed": ("B", "lower"),
    "slocc.apply_chain.flops_computed": ("flop", "lower"),
    "slocc.apply_chain.gbps_computed": ("GB/s", "higher"),
    "slocc.apply_chain.ops_per_byte_computed": ("flop/B", "higher"),
    "slocc.verify.self_s": ("s", "lower"),
    "invariant.iv_star.calls": ("count", "lower"),
    "invariant.iv_star.busy_s": ("s", "lower"),
    "invariant.odd_invariant.calls": ("count", "lower"),
    "invariant.odd_invariant.busy_s": ("s", "lower"),
    "invariant.odd_invariant.self_s": ("s", "lower"),
    "invariant.iv_bar.busy_s": ("s", "lower"),
    "invariant.terms_computed": ("count", "lower"),
    "invariant.bytes_computed": ("B", "lower"),
    "invariant.ops_per_byte_computed": ("flop/B", "higher"),
    "invariant.terms_per_s": ("1/s", "higher"),
    "invariant.invariant_report.calls": ("count", "lower"),
    "invariant.invariant_report.busy_s": ("s", "lower"),
    "signtab.sign_table.cold_s": ("s", "lower"),
    "signtab.sign_star_table.cold_s": ("s", "lower"),
    "criteria.f_enumerate.cold_s": ("s", "lower"),
    "criteria.f_tuples": ("count", "lower"),
    "criteria.criteria_signature.calls": ("count", "lower"),
    "criteria.criteria_signature.busy_s": ("s", "lower"),
    "criteria.f_evaluate.calls": ("count", "lower"),
    "criteria.f_evaluate.busy_s": ("s", "lower"),
    "criteria.d_criteria.calls": ("count", "lower"),
    "criteria.d_criteria.busy_s": ("s", "lower"),
    "criteria.d_blocks": ("count", "lower"),
    "classify.compare.calls": ("count", "lower"),
    "classify.compare.busy_s": ("s", "lower"),
    "classify.compare.self_s": ("s", "lower"),
    **{f"classify.outcome.{o}": ("count", "lower" if o == "Undetermined" else "higher")
       for o in OUTCOMES},
    "classify.heuristic_flags": ("count", "higher"),
    "classify.flag_yield": ("ratio", "higher"),
    **{f"statevec.{fn}.{m}": unit
       for fn in ("save_state", "load_state")
       for m, unit in (("calls", ("count", "lower")), ("busy_s", ("s", "lower")),
                       ("bytes", ("B", "lower")), ("mbps", ("MB/s", "higher")))},
    "statevec.random_state.busy_s": ("s", "lower"),
    **{f"cli.{c}.{m}": unit
       for c in CLI_COMMANDS
       for m, unit in (("wall_s", ("s", "lower")), ("maxrss_mib", ("MiB", "lower")))},
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, jobs, cli_records=(), overhead_s: float = 0.0) -> dict:
    """The per-layer metrics of the traced jobs, as values per job.

    `cold_s` and `f_tuples` are per process instead: the mean, over the
    traced processes that filled a cache, of what filling it cost.
    `cli_records` holds one dict per CLI command the traced jobs ran,
    with its job, command, wall and startup seconds and peak RSS.  A
    metric of a layer the workload never calls reads 0, as does a rate
    or ratio whose base is 0.
    """
    jobs = set(jobs)
    per_job = max(len(jobs), 1)
    spans = tracer.spans
    selfs = self_times(spans)
    in_jobs = defaultdict(list)
    for i, s in enumerate(spans):
        if s.job in jobs:
            in_jobs[s.name].append(i)

    def calls(name):
        return len(in_jobs[name]) / per_job

    def busy_total(name):
        return sum(spans[i].duration for i in in_jobs[name] if outermost(spans, i))

    def self_total(*names):
        return sum(selfs[i] for name in names for i in in_jobs[name])

    def counter(key):
        return sum(v for (job, k), v in tracer.counters.items() if k == key and job in jobs)

    def hot(name):
        pairs = [v for (job, n), v in tracer.hot.items() if n == name and job in jobs]
        return sum(c for c, _ in pairs), sum(t for _, t in pairs)

    def cold(name):
        per_proc_s, per_proc_n = defaultdict(float), defaultdict(int)
        for i, s in enumerate(spans):
            if s.name == name and s.cold and outermost(spans, i):
                per_proc_s[s.proc] += s.duration
                per_proc_n[s.proc] += s.value
        procs = max(len(per_proc_s), 1)
        return sum(per_proc_s.values()) / procs, sum(per_proc_n.values()) / procs

    m = {}
    chain_s = busy_total("slocc.apply_chain")
    chain_bytes = counter("slocc.apply_chain.bytes_computed")
    chain_flops = counter("slocc.apply_chain.flops_computed")
    m["slocc.apply_chain.calls"] = calls("slocc.apply_chain")
    m["slocc.apply_chain.busy_s"] = chain_s / per_job
    m["slocc.apply_chain.bytes_computed"] = chain_bytes / per_job
    m["slocc.apply_chain.flops_computed"] = chain_flops / per_job
    m["slocc.apply_chain.gbps_computed"] = _rate(chain_bytes, chain_s) / 1e9
    m["slocc.apply_chain.ops_per_byte_computed"] = _rate(chain_flops, chain_bytes)
    m["slocc.verify.self_s"] = self_total("slocc.verify_theorem1", "slocc.verify_theorem2") / per_job

    for name in ("invariant.iv_star", "invariant.odd_invariant"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy_total(name) / per_job
    m["invariant.odd_invariant.self_s"] = self_total("invariant.odd_invariant") / per_job
    m["invariant.iv_bar.busy_s"] = busy_total("invariant.iv_bar") / per_job
    terms = counter("invariant.terms_computed")
    inv_bytes = counter("invariant.bytes_computed")
    m["invariant.terms_computed"] = terms / per_job
    m["invariant.bytes_computed"] = inv_bytes / per_job
    m["invariant.ops_per_byte_computed"] = _rate(counter("invariant.flops_computed"), inv_bytes)
    m["invariant.terms_per_s"] = _rate(terms, self_total(*INVARIANT_WORK))
    m["invariant.invariant_report.calls"] = calls("invariant.invariant_report")
    m["invariant.invariant_report.busy_s"] = busy_total("invariant.invariant_report") / per_job

    m["signtab.sign_table.cold_s"] = cold("signtab.sign_table")[0]
    m["signtab.sign_star_table.cold_s"] = cold("signtab.sign_star_table")[0]
    m["criteria.f_enumerate.cold_s"], m["criteria.f_tuples"] = cold("criteria.f_enumerate")
    m["criteria.criteria_signature.calls"] = calls("criteria.criteria_signature")
    m["criteria.criteria_signature.busy_s"] = busy_total("criteria.criteria_signature") / per_job
    f_calls, f_s = hot("criteria.f_evaluate")
    m["criteria.f_evaluate.calls"] = f_calls / per_job
    m["criteria.f_evaluate.busy_s"] = f_s / per_job
    m["criteria.d_criteria.calls"] = calls("criteria.d_criteria")
    m["criteria.d_criteria.busy_s"] = busy_total("criteria.d_criteria") / per_job
    m["criteria.d_blocks"] = counter("criteria.d_blocks") / per_job

    m["classify.compare.calls"] = calls("classify.compare")
    m["classify.compare.busy_s"] = busy_total("classify.compare") / per_job
    m["classify.compare.self_s"] = self_total("classify.compare") / per_job
    for outcome in OUTCOMES:
        m[f"classify.outcome.{outcome}"] = counter(f"classify.outcome.{outcome}") / per_job
    m["classify.heuristic_flags"] = counter("classify.heuristic_flags") / per_job
    with_criteria = {spans[i].parent for i in in_jobs["criteria.criteria_signature"]}
    flagged = [spans[i].value > 0 for i in in_jobs["classify.compare"] if i in with_criteria]
    m["classify.flag_yield"] = _rate(sum(flagged), len(flagged))

    for fn in ("statevec.save_state", "statevec.load_state"):
        fn_s = busy_total(fn)
        fn_bytes = counter(f"{fn}.bytes")
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.busy_s"] = fn_s / per_job
        m[f"{fn}.bytes"] = fn_bytes / per_job
        m[f"{fn}.mbps"] = _rate(fn_bytes, fn_s) / 1e6
    m["statevec.random_state.busy_s"] = busy_total("statevec.random_state") / per_job

    records = [r for r in cli_records if r["job"] in jobs]
    for command in CLI_COMMANDS:
        mine = [r for r in records if r["command"] == command]
        m[f"cli.{command}.wall_s"] = sum(r["wall_s"] for r in mine) / per_job
        m[f"cli.{command}.maxrss_mib"] = max((r["maxrss_mib"] for r in mine), default=0.0)
    m["cli.startup_s"] = sum(r["startup_s"] for r in records) / per_job
    m["trace.overhead_s"] = overhead_s
    return m


def layer_seconds(tracer: Tracer, jobs) -> dict:
    """Self seconds per layer over the traced jobs, hot callees in their own layer."""
    jobs = set(jobs)
    totals = defaultdict(float)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        if s.job in jobs:
            totals[s.name.split(".", 1)[0]] += own
    for (job, name), (_, seconds) in tracer.hot.items():
        if job in jobs:
            totals[name.split(".", 1)[0]] += seconds
    return dict(totals)
