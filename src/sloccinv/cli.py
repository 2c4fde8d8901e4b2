"""Command-line interface: state generation, reports, comparison, verification.

Exit codes: compare returns 2 for ProvablyInequivalent (0 otherwise);
verify returns 1 when the measured error exceeds the gate; a usage error
or any handled error returns 1 with one `error:` line.  All outputs are
deterministic for fixed inputs and seeds, whatever the BLAS thread count:
norms are fixed-order sums, not BLAS reductions.

A CLI process lets its idle OpenBLAS workers sleep.  OpenBLAS reads
OPENBLAS_THREAD_TIMEOUT once, when numpy loads it, and by default an idle
worker spins for 2**28 cycles (0.13 s of CPU at 2 GHz) before it sleeps:
after numpy loads, and after every BLAS call.  So when numpy is not yet loaded,
this module sets it to _BLAS_THREAD_TIMEOUT, unless the caller has set it.
That is no thread cap: the fold in apply and verify keeps its threads and
its GEMM partition, so no output bit depends on it.

The commands that write or load state files of n >= statevec._SPLIT_N
qubits keep a binary sidecar of each in .sloccinv/ beside it, so that each
file's JSON is parsed at most once (see sloccinv.sidecars).

A CLI process, the console script or `python -m sloccinv.cli`, runs
run(): main(), then a flush of stdout and stderr, then os._exit.  So it
skips the interpreter's teardown: freeing every module, numpy's
included, which no output needs.  main() returns its exit code, for
callers in a process that goes on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

_BLAS_THREAD_TIMEOUT = 20  # an idle OpenBLAS worker sleeps after 2**20 cycles (0.5 ms at
                           # 2 GHz), not within the fold's gaps between GEMM calls
if "numpy" not in sys.modules:  # later, OpenBLAS has read its environment
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(_BLAS_THREAD_TIMEOUT))

import numpy as np  # noqa: E402

from . import statevec  # noqa: E402  (each command imports the other modules it runs)
from .errors import BadArgs, SloccInvError  # noqa: E402

DEFAULT_MAX_N = 26      # 2**26 complex amplitudes = 1 GiB; apply, compare, invariant and a
                        # verify trial hold one such vector at a time, make random none;
                        # override with --max-n
VERIFY_GATE = 1e-8
_F_TUPLE_BYTES = 1024   # tracemalloc peak per F tuple at n=7: enumerate 112 B, --set f 114 B
_F_BUDGET = 4 << 30     # refuse F work estimated above 4 GiB (every n >= 8)


def _checked(kind, accept, rule: str):
    """An argparse type: kind(text), refused unless accept(value) holds."""
    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _check_n(n: int, max_n: int, floor: int = 1) -> int:
    if n < floor:
        raise BadArgs(f"need n >= {floor}, got {n}")
    if n > max_n:
        raise BadArgs(f"n={n} exceeds the cap {max_n} (raise it with --max-n)")
    return n


def _check_vector_n(n: int, max_n: int, floor: int = 1) -> int:
    """_check_n, then refuse n >= 59: numpy allocates no array above 2**63 - 1 bytes."""
    if 16 << _check_n(n, max_n, floor) > sys.maxsize:
        raise BadArgs(f"n={n} needs 2^{n} amplitudes of 16 B, above numpy's array size limit")
    return n


def _check_f_fits(n: int, max_n: int) -> None:
    """Refuse F work below n=3, above the cap or over the budget, before any tuple is built."""
    from . import criteria
    _check_n(n, max_n, floor=3)
    if n >= 63:  # f_enumerate's int64 subscripts reach 2**n - 1; the count has ~1.2n digits
        raise BadArgs(f"F criteria at n={n} need subscripts up to 2^{n} - 1, beyond int64")
    count = criteria._f_count(n)
    need = count * _F_TUPLE_BYTES
    if need > _F_BUDGET:
        raise BadArgs(f"F criteria at n={n} need {count} tuples, an estimated "
                      f"{-(-need >> 30)} GiB at {_F_TUPLE_BYTES} B each, above the "
                      f"{_F_BUDGET >> 30} GiB budget")


def _load(path: str, max_n: int) -> statevec.StateVector:
    """load_state(path) under the cap, checked as soon as n is known; from n =
    _SPLIT_N on through the file's sidecar."""
    def check(n: int) -> None:
        _check_n(n, max_n)

    n = statevec._saved_n(path)
    side = _sidecars(n)
    return side.load(path, n, check) if side else statevec.load_state(path, check)


def _sidecars(n: int):
    """sloccinv.sidecars for a state file of n qubits, or None below _SPLIT_N:
    smaller files have no sidecar, and their commands do not import it."""
    if n < statevec._SPLIT_N:
        return None
    from . import sidecars
    return sidecars


def _save(s: statevec.StateVector, path: str) -> None:
    """save_state(s, path), and from n = _SPLIT_N on its sidecar."""
    side = _sidecars(s.n)
    (side.save if side else statevec.save_state)(s, path)


def _make_product(args):
    s1, s2 = (_load(path, args.max_n) for path in args.inputs)
    _check_n(s1.n + s2.n, args.max_n)
    s = statevec.tensor(s1, s2)
    return s, f"product_n{s.n}.json"


def _make_complement(args):
    s = statevec.complement(_load(args.input, args.max_n))
    return s, f"complement_n{s.n}.json"


def cmd_make(args) -> int:
    if "n" in args:  # ghz, w and random: check the cap before allocating 2**n
        _check_vector_n(args.n, args.max_n)
    if args.kind == "random":  # streamed to the file: the vector is never built
        path = args.output or f"random_n{args.n}_s{args.seed}.json"
        side = _sidecars(args.n)
        save = side.save_random if side else statevec._save_random_state
        n, norm = args.n, save(args.n, args.seed, path)
    else:
        s, default = args.build(args)
        path = args.output or default
        _save(s, path)
        n, norm = s.n, s.norm()
    print(f"n={n} norm={norm:.17g} -> {path}")
    return 0


_ROWS, _D_ROWS = "@rows@", "@d-rows@"  # a document's long lists, until _dumps spells them out
_WRITE_ROWS = 1024  # list entries per stdout write of _dumps: about 0.4 MiB of F rows
_F_ROW = {"subscripts": ["%s"] * 8, "value": ["%s"] * 2, "vanishing": "%s"}
_D_ROW = {"i": "%s", "d1": ["%s"] * 2, "d2": ["%s"] * 2, "d3": ["%s"] * 2,
          "vanishing": ["%s"] * 3}
_JSON_BOOLS = np.array(["false", "true"], dtype=object)  # a flag's "%s" spelling, by index


def _pair(value):
    """A complex value as its JSON [re, im] pair; any other value as it is."""
    return [value.real, value.imag] if isinstance(value, complex) else value


def _dumps(doc: dict, *slots) -> None:
    """Write json.dumps(doc, indent=2) and a newline to stdout, with each slot's
    marker value in doc spelled out as a list.

    A slot is (marker, row, columns): each list entry is `row`, a JSON
    template with "%s" leaves, filled from one line of the equal-length
    1-D arrays that columns() returns.  Every columns() of a marker in doc
    runs, and raises any error, after doc is encoded and before the first
    byte is written.  A list goes out in blocks of _WRITE_ROWS entries,
    each converted to Python values only when written, so neither the
    report nor its values as Python objects are ever whole in memory.
    """
    import textwrap
    text = json.dumps(doc, indent=2)
    found = sorted((at, json.dumps(marker), row, columns) for marker, row, columns in slots
                   if (at := text.find(json.dumps(marker))) >= 0)
    lists = [(at, quoted, row, columns()) for at, quoted, row, columns in found]
    end = 0
    for at, quoted, row, cols in lists:
        line = text[text.rfind("\n", 0, at) + 1:at]
        indent = " " * (len(line) - len(line.lstrip(" ")))
        entry = textwrap.indent(json.dumps(row, indent=2).replace('"%s"', "%s"), indent + "  ")
        sys.stdout.write(text[end:at] + "[\n")
        for lo in range(0, len(cols[0]), _WRITE_ROWS):
            rows = zip(*(col[lo:lo + _WRITE_ROWS].tolist() for col in cols))
            sys.stdout.write((",\n" if lo else "") + ",\n".join(map(entry.__mod__, rows)))
        sys.stdout.write(f"\n{indent}]")
        end = at + len(quoted)
    sys.stdout.write(text[end:] + "\n")


def _signature_slots(sig: criteria.CriteriaSignature) -> tuple:
    """The _dumps slots of sig's D and F entries; "%s" spells a finite float as json does."""
    def d_columns():
        d = sig.d
        flags = _JSON_BOOLS[d.vanishing.view(np.int8)]
        return [np.arange(len(d.re)), *(part[:, c] for c in range(3) for part in (d.re, d.im)),
                *flags.T]

    def f_columns():
        return [*sig.f_tuples.T, sig.f.re, sig.f.im, _JSON_BOOLS[sig.f.vanishing.view(np.int8)]]

    return (_D_ROWS, _D_ROW, d_columns), (_ROWS, _F_ROW, f_columns)


def _signature_doc(sig: criteria.CriteriaSignature) -> dict:
    """The signature with its D entries as the _D_ROWS slot and its F entries
    as the _ROWS slot."""
    return {
        "n": sig.n,
        "tol": sig.tol,
        "d_criteria": _D_ROWS if len(sig.d.re) else [],
        "f_criteria": _ROWS if sig.f_included else None,
        "f_included": sig.f_included,
        "note": ("F tuples whose shifted subscripts (j-1/l+1/q-1/s+1 for odd i+j, "
                 "j-2/l+2/q-2/s+2 for even i+j) fall outside [0, 2^n - 1] are excluded."),
    }


def cmd_invariant(args) -> int:
    from . import criteria, invariant
    s = _load(args.input, args.max_n)
    report = invariant.invariant_report(s, args.tol)
    fields = {name: _pair(value) for name, value in vars(report).items()}  # in field order
    doc = {
        "invariants": {**fields, "vanishing": dict(report.vanishing)},
        "criteria": None,
        "tau": report.tau,
        "vanishing": dict(report.vanishing),
    }
    sig = None
    if 3 <= s.n <= criteria._F_SIGNATURE_MAX_N:
        sig = criteria.criteria_signature(s, args.tol)
        doc["criteria"] = _signature_doc(sig)
    else:
        doc["criteria_note"] = (f"criteria are included for 3 <= n <= "
                                f"{criteria._F_SIGNATURE_MAX_N}; use the criteria command")
    if args.oracle:
        from . import oracle
        values = {label: _pair(oracle.evaluate(label, s)) for label in oracle.labels_for(s.n)}
        if values:
            doc["oracle"] = values
    _dumps(doc, *_signature_slots(sig))
    return 0


def cmd_criteria(args) -> int:
    from . import criteria, invariant
    if args.action == "enumerate":
        given = {"--input": args.input is not None, "--set": args.set is not None,
                 "--tol": args.tol != invariant.DEFAULT_TOL}
        reads = "criteria enumerate reads only --n and --max-n"
    else:
        given, reads = {"--n": args.n is not None}, "only criteria enumerate reads --n"
    unread = " ".join(flag for flag, on in given.items() if on)
    if unread:
        raise BadArgs(f"unrecognized arguments: {unread} ({reads})")
    if args.action == "enumerate":
        if args.n is None:
            raise BadArgs("criteria enumerate requires --n")
        _check_f_fits(args.n, args.max_n)
        tuples = criteria.f_enumerate(args.n)
        doc = {
            "n": args.n,
            "count": len(tuples),
            "sums": criteria.achieved_pair_sums(args.n),
            "tuples": _ROWS,
            "note": ("tuples whose shifted subscripts (j-1/l+1/q-1/s+1 for odd i+j, "
                     "j-2/l+2/q-2/s+2 for even i+j) fall outside [0, 2^n - 1] "
                     "are excluded"),
        }
        _dumps(doc, (_ROWS, ["%s"] * 8, lambda: tuples.T))
        return 0
    if args.input is None:
        raise BadArgs("criteria requires --input (or the enumerate action)")
    s = _load(args.input, args.max_n)
    include_f = None if args.set is None else args.set in ("f", "all")
    if include_f:
        _check_f_fits(s.n, args.max_n)
    sig = criteria.criteria_signature(s, args.tol, include_f=include_f)
    doc = _signature_doc(sig)
    if args.set == "f":
        doc["d_criteria"] = []
    _dumps(doc, *_signature_slots(sig))
    return 0


def cmd_compare(args) -> int:
    """classify.compare of the two files, one state at a time: the first
    state's evidence is evaluated and the state dropped before the second
    is loaded.  Errors come in compare's order, load errors first."""
    from . import classify
    first = classify._evidence(_load(args.state_a, args.max_n), args.tol)
    verdict = classify._verdict(first, classify._evidence(_load(args.state_b, args.max_n),
                                                          args.tol))
    _dumps({
        "outcome": verdict.outcome,
        "evidence": [{"criterion": e.criterion, "values": list(map(_pair, e.values)),
                      "vanishing": list(e.vanishing)} for e in verdict.evidence],
        "heuristic_flags": list(verdict.heuristic_flags),
        "has_witness": verdict.witness is not None,
    })
    return 2 if verdict.outcome == classify.PROVABLY_INEQUIVALENT else 0


def cmd_apply(args) -> int:
    """apply_chain of the ops file to the input file, bit for bit, folded in
    place: the loaded vector is this command's own, so it is the output.

    The load, the fold and the save run in turn, and OpenBLAS stops its
    worker threads before a fork (its pthread_atfork handler) and starts
    them again at the next BLAS call.  So the child that a large save
    forks never runs beside the fold's OpenBLAS threads, busy or idle:
    the GEMM passes slow sharply when another CPU-bound process shares
    the CPUs they use."""
    from . import slocc
    s = _load(args.input, args.max_n)
    chain = slocc.ops_from_json_dict(statevec._read_json(args.ops))
    slocc._check_length(chain, s.n)
    x = s.amplitudes
    x.setflags(write=True)
    slocc._fold(chain, x, x)
    result = statevec._wrap(s.n, x)
    _save(result, args.output)
    if args.print_dets:
        for idx, d in enumerate(chain.dets.tolist(), start=1):
            print(f"det[{idx}] = {d.real:.17g}{d.imag:+.17g}j")
        prod = slocc.det_product(chain)
        print(f"det_product = {prod.real:.17g}{prod.imag:+.17g}j")
    print(f"n={result.n} norm={result.norm():.17g} -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    from . import slocc
    _check_vector_n(args.n, args.max_n, floor=2)
    if args.theorem == 1:
        err = slocc.verify_theorem1(args.n, args.trials, args.seed)
    else:
        err = slocc.verify_theorem2(args.n, args.trials, args.seed)
    print(f"theorem={args.theorem} n={args.n} trials={args.trials} "
          f"seed={args.seed} max_rel_error={err:.6e}")
    return 0 if err <= VERIFY_GATE else 1


def cmd_signs(args) -> int:
    from . import signtab
    _check_n(args.n, args.max_n, floor=2)
    table = signtab.sign_star_table(args.n) if args.star else signtab.sign_table(args.n)
    print(json.dumps(table.tolist()))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise BadArgs (exit 1) instead of exiting 2, the exit
    code compare keeps for ProvablyInequivalent."""

    def error(self, message):
        raise BadArgs(message)


def build_parser() -> argparse.ArgumentParser:
    max_n = _Parser(add_help=False)
    max_n.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                       help=f"qubit-count cap (default {DEFAULT_MAX_N})")
    tol = _Parser(add_help=False)
    # invariant.DEFAULT_TOL as text: argparse parses a str default with the
    # type, so building the parser imports no invariant module
    tol.add_argument("--tol", default="1e-10",
                     type=_checked(float, lambda t: math.isfinite(t) and t > 0,
                                   "finite and positive"),
                     help="vanishing tolerance, finite and positive (default %(default)s)")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", default=0,
                      type=_checked(int, lambda t: t >= 0, "non-negative"),
                      help="RNG seed, non-negative (default 0)")

    parser = _Parser(prog="sloccinv",
                     description="SLOCC invariants and residual "
                                 "entanglement for n-qubit states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="write a state file")
    kinds = p_make.add_subparsers(dest="kind", required=True)
    n = _Parser(add_help=False)
    n.add_argument("--n", type=int, required=True)
    for kind, parents, build in (
            ("ghz", [n], lambda a: (statevec.ghz(a.n), f"ghz{a.n}.json")),
            ("w", [n], lambda a: (statevec.w_state(a.n), f"w{a.n}.json")),
            ("cluster-c", [], lambda a: (statevec.cluster_c(), "cluster_c.json")),
            ("random", [n, seed], None),
            ("product", [], _make_product),
            ("complement", [], _make_complement)):
        p_kind = kinds.add_parser(kind, parents=[max_n, *parents])
        p_kind.add_argument("-o", "--output", default=None)
        p_kind.set_defaults(func=cmd_make, build=build)
    kinds.choices["product"].add_argument("inputs", nargs=2, help="two input state files")
    kinds.choices["complement"].add_argument("input", help="input state file")

    p_inv = sub.add_parser("invariant", parents=[max_n, tol],
                           help="invariant/criteria report for a state file")
    p_inv.add_argument("--input", required=True)
    p_inv.add_argument("--oracle", action="store_true",
                       help="include the hard-coded small-n oracle values")
    p_inv.set_defaults(func=cmd_invariant)

    p_crit = sub.add_parser("criteria", parents=[max_n, tol],
                            help="D/F criteria for a state, or enumerate F tuples")
    p_crit.add_argument("action", nargs="?", choices=["enumerate"])
    p_crit.add_argument("--input", default=None)
    p_crit.add_argument("--n", type=int, default=None)
    p_crit.add_argument("--set", choices=["d", "f", "all"],
                        help="criteria to evaluate (default: all for n <= 6, d above)")
    p_crit.set_defaults(func=cmd_criteria)

    p_cmp = sub.add_parser("compare", parents=[max_n, tol],
                           help="compare two state files (exit 2 = provably inequivalent)")
    p_cmp.add_argument("state_a")
    p_cmp.add_argument("state_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_apply = sub.add_parser("apply", parents=[max_n],
                             help="apply a local-operator chain to a state file")
    p_apply.add_argument("--input", required=True)
    p_apply.add_argument("--ops", required=True)
    p_apply.add_argument("--output", required=True)
    p_apply.add_argument("--print-dets", action="store_true")
    p_apply.set_defaults(func=cmd_apply)

    p_verify = sub.add_parser("verify", parents=[max_n, seed],
                              help="randomized check of a determinant transform law")
    p_verify.add_argument("--theorem", type=int, choices=[1, 2], required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--trials", default=100,
                          type=_checked(int, lambda t: t >= 1, "at least 1"))
    p_verify.set_defaults(func=cmd_verify)

    p_signs = sub.add_parser("signs", parents=[max_n], help="dump a sign table")
    p_signs.add_argument("--n", type=int, required=True)
    p_signs.add_argument("--star", action="store_true")
    p_signs.set_defaults(func=cmd_signs)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SloccInvError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    """main() as a process, ended by os._exit once stdout and stderr are
    flushed (see the module docstring).  If a flush raises, as on a closed
    pipe, sys.exit ends it as before: the interpreter's exit flushes again
    and reports the error."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # any: the interpreter's exit meets it again, as without run()
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
