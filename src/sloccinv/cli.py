"""Command-line interface: state generation, reports, comparison, verification.

Exit codes: compare returns 2 for ProvablyInequivalent (0 otherwise);
verify returns 1 when the measured error exceeds the gate; a usage error
or any handled error returns 1 with one `error:` line.  All outputs are
deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import classify, criteria, invariant, oracle, signtab, slocc, statevec
from .errors import BadArgs, SloccInvError

DEFAULT_MAX_N = 26      # 2**26 complex amplitudes ~= 1 GiB; override with --max-n
VERIFY_GATE = 1e-8


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


def _load(path: str, max_n: int) -> statevec.StateVector:
    s = statevec.load_state(path)
    _check_n(s.n, max_n)
    return s


def cmd_make(args) -> int:
    kind = args.kind
    if kind in ("ghz", "w", "random"):
        if args.n is None:
            raise BadArgs(f"make {kind} requires --n")
        _check_n(args.n, args.max_n)
    if kind == "ghz":
        s = statevec.ghz(args.n)
        default = f"ghz{args.n}.json"
    elif kind == "w":
        s = statevec.w_state(args.n)
        default = f"w{args.n}.json"
    elif kind == "cluster-c":
        s = statevec.cluster_c()
        default = "cluster_c.json"
    elif kind == "random":
        s = statevec.random_state(args.n, args.seed)
        default = f"random_n{args.n}_s{args.seed}.json"
    elif kind == "product":
        if len(args.inputs) != 2:
            raise BadArgs("make product requires exactly two input state files")
        s1 = _load(args.inputs[0], args.max_n)
        s2 = _load(args.inputs[1], args.max_n)
        _check_n(s1.n + s2.n, args.max_n)
        s = statevec.tensor(s1, s2)
        default = f"product_n{s.n}.json"
    elif kind == "complement":
        if len(args.inputs) != 1:
            raise BadArgs("make complement requires exactly one input state file")
        s = statevec.complement(_load(args.inputs[0], args.max_n))
        default = f"complement_n{s.n}.json"
    else:  # pragma: no cover - argparse restricts choices
        raise BadArgs(f"unknown kind {kind}")
    path = args.output or default
    statevec.save_state(s, path)
    print(f"n={s.n} norm={s.norm():.17g} -> {path}")
    return 0


def cmd_invariant(args) -> int:
    s = _load(args.input, args.max_n)
    report = invariant.invariant_report(s, args.tol)
    doc = {
        "invariants": invariant.report_json_dict(report),
        "criteria": None,
        "tau": report.tau,
        "vanishing": dict(report.vanishing),
    }
    sig = None
    if 3 <= s.n <= criteria._F_SIGNATURE_MAX_N:
        sig = criteria.criteria_signature(s, args.tol)
        doc["criteria"] = criteria.signature_json_dict(sig)
    else:
        doc["criteria_note"] = (f"criteria are included for 3 <= n <= "
                                f"{criteria._F_SIGNATURE_MAX_N}; use the criteria command")
    if args.oracle:
        values = {label: oracle.evaluate(label, s) for label in oracle.labels_for(s.n)}
        if values:
            doc["oracle"] = {label: [v.real, v.imag] for label, v in values.items()}
    print(criteria.dumps_report(doc, sig))
    return 0


def cmd_criteria(args) -> int:
    if args.action == "enumerate":
        if args.n is None:
            raise BadArgs("criteria enumerate requires --n")
        _check_n(args.n, args.max_n, floor=3)
        if args.n > 7 and not args.force_f:
            raise BadArgs(f"F enumeration at n={args.n} is combinatorially large; "
                          "pass --force-f to insist")
        tuples = criteria.f_enumerate(args.n)
        doc = {
            "n": args.n,
            "count": len(tuples),
            "sums": criteria.achieved_pair_sums(args.n),
            "tuples": tuples.tolist(),
            "note": ("tuples whose shifted subscripts (j-1/l+1/q-1/s+1 for odd i+j, "
                     "j-2/l+2/q-2/s+2 for even i+j) fall outside [0, 2^n - 1] "
                     "are excluded"),
        }
        print(json.dumps(doc, indent=2))
        return 0
    if args.input is None:
        raise BadArgs("criteria requires --input (or the enumerate action)")
    s = _load(args.input, args.max_n)
    include_f = args.set in ("f", "all")
    if include_f and s.n > criteria._F_SIGNATURE_MAX_N and not args.force_f:
        raise BadArgs(f"F evaluation at n={s.n} is combinatorially large; "
                      "pass --force-f to insist")
    sig = criteria.criteria_signature(s, args.tol, include_f=include_f)
    doc = criteria.signature_json_dict(sig)
    if args.set == "f":
        doc["d_criteria"] = []
    print(criteria.dumps_report(doc, sig))
    return 0


def cmd_compare(args) -> int:
    s1 = _load(args.state_a, args.max_n)
    s2 = _load(args.state_b, args.max_n)
    verdict = classify.compare(s1, s2, args.tol)
    print(json.dumps(classify.verdict_json_dict(verdict), indent=2))
    return 2 if verdict.outcome == classify.PROVABLY_INEQUIVALENT else 0


def cmd_apply(args) -> int:
    s = _load(args.input, args.max_n)
    chain = slocc.ops_from_json_dict(statevec._read_json(args.ops))
    result = slocc.apply_chain(chain, s)
    statevec.save_state(result, args.output)
    if args.print_dets:
        for idx, d in enumerate(chain.dets.tolist(), start=1):
            print(f"det[{idx}] = {d.real:.17g}{d.imag:+.17g}j")
        prod = slocc.det_product(chain)
        print(f"det_product = {prod.real:.17g}{prod.imag:+.17g}j")
    print(f"n={result.n} norm={result.norm():.17g} -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    _check_n(args.n, args.max_n, floor=2)
    if args.theorem == 1:
        err = slocc.verify_theorem1(args.n, args.trials, args.seed)
    else:
        err = slocc.verify_theorem2(args.n, args.trials, args.seed)
    print(f"theorem={args.theorem} n={args.n} trials={args.trials} "
          f"seed={args.seed} max_rel_error={err:.6e}")
    return 0 if err <= VERIFY_GATE else 1


def cmd_signs(args) -> int:
    _check_n(args.n, args.max_n, floor=2)
    table = signtab.sign_star_table(args.n) if args.star else signtab.sign_table(args.n)
    print(json.dumps([int(v) for v in table]))
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
    tol.add_argument("--tol", default=invariant.DEFAULT_TOL,
                     type=_checked(float, lambda t: math.isfinite(t) and t > 0,
                                   "finite and positive"),
                     help="vanishing tolerance, finite and positive (default 1e-10)")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    parser = _Parser(prog="sloccinv",
                     description="SLOCC invariants and residual "
                                 "entanglement for n-qubit states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", parents=[max_n, seed], help="write a state file")
    p_make.add_argument("kind", choices=["ghz", "w", "cluster-c", "random",
                                         "product", "complement"])
    p_make.add_argument("inputs", nargs="*", help="input state files (product/complement)")
    p_make.add_argument("--n", type=int, default=None)
    p_make.add_argument("-o", "--output", default=None)
    p_make.set_defaults(func=cmd_make)

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
    p_crit.add_argument("--set", choices=["d", "f", "all"], default="all")
    p_crit.add_argument("--force-f", action="store_true",
                        help="allow F enumeration beyond the practical cap")
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
    except (SloccInvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
