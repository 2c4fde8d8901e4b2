"""Pairwise SLOCC comparison verdicts and constructive dual equivalence.

Only the tau-vanishing rule yields a proof-strength verdict: two states
whose residual entanglements differ in vanishing cannot be SLOCC
equivalent.  Disagreeing D/F vanishing patterns are reported as
heuristic flags, never as a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .criteria import CriteriaSignature, criteria_signature
from .errors import BadWitness, SizeMismatch, SloccInvError
from .invariant import DEFAULT_TOL, CriterionValues, InvariantReport, invariant_report
from .slocc import INVERTIBLE_TOL, LocalOperatorChain, apply_chain, sigma_x_chain
from .statevec import StateVector, complement

PROVABLY_INEQUIVALENT = "ProvablyInequivalent"
UNDETERMINED = "Undetermined"
EQUIVALENT_BY_CONSTRUCTION = "EquivalentByConstruction"

_F_FLAG_MAX_N = 4  # F heuristics stay cheap; D heuristics run for any n >= 4


@dataclass(frozen=True)
class Evidence:
    criterion: str
    values: tuple
    vanishing: tuple[bool, bool]


@dataclass(frozen=True)
class Verdict:
    outcome: str
    evidence: tuple[Evidence, ...]
    heuristic_flags: tuple[str, ...]
    witness: LocalOperatorChain | None = None


class _StateEvidence(NamedTuple):
    """What a verdict needs of one state: its n, its invariant report and the
    criteria signature of its flags (None below n = 3), whose D and F values
    are kept only as vanishing masks and magnitudes.  A part whose evaluation
    raised holds the error instead, for _verdict to raise where it is needed."""

    n: int
    report: InvariantReport | Exception
    criteria: CriteriaSignature | None | Exception


def _held(evaluate, *args):
    """evaluate(*args), or the error it raised that the CLI reports as one
    line, without its traceback, whose frames would keep the state alive."""
    try:
        return evaluate(*args)
    except (SloccInvError, MemoryError) as exc:
        return exc.with_traceback(None)


def _value(part):
    if isinstance(part, Exception):
        raise part
    return part


def _criteria(s: StateVector, tol: float):
    if s.n < 3:
        return None
    sig = criteria_signature(s, tol, include_f=s.n <= _F_FLAG_MAX_N)
    return replace(sig, d=sig.d._replace(re=None, im=None), f=sig.f._replace(re=None, im=None))


def _evidence(s: StateVector, tol: float) -> _StateEvidence:
    """Everything a verdict needs of s, evaluated now, so that s can be dropped."""
    return _StateEvidence(s.n, _held(invariant_report, s, tol), _held(_criteria, s, tol))


def _check_sizes(n1: int, n2: int) -> None:
    if n1 != n2:
        raise SizeMismatch(f"cannot compare n={n1} with n={n2}")


def _differing(v1: CriterionValues, v2: CriterionValues):
    """(index..., magnitude 1, magnitude 2) wherever the two vanishing patterns differ."""
    where = np.nonzero(v1.vanishing != v2.vanishing)
    return zip(*(w.tolist() for w in where),
               v1.magnitude[where].tolist(), v2.magnitude[where].tolist())


def _heuristic_flags(c1, c2) -> tuple[str, ...]:
    if c1 is None:
        return ()
    flags = [f"D{slot + 1}[{i}] vanishing differs: {m1:.3e} vs {m2:.3e}"
             for i, slot, m1, m2 in _differing(c1.d, c2.d)]
    flags += [f"F{tuple(c1.f_tuples[row].tolist())} vanishing differs: "
              f"{m1:.3e} vs {m2:.3e}" for row, m1, m2 in _differing(c1.f, c2.f)]
    return tuple(flags)


def _verdict(e1: _StateEvidence, e2: _StateEvidence) -> Verdict:
    """The verdict on two states from their evidence; an error held in the
    evidence is raised only where the verdict needs that part: both
    reports always, the D/F flags only when the tau rule does not decide."""
    _check_sizes(e1.n, e2.n)
    r1, r2 = _value(e1.report), _value(e2.report)
    name = "iv_star" if r1.parity == "even" else "odd_invariant"
    v1, v2 = r1.vanishing["tau"], r2.vanishing["tau"]
    records = (
        Evidence("tau", (r1.tau, r2.tau), (v1, v2)),
        Evidence(name, (getattr(r1, name), getattr(r2, name)), (v1, v2)),
    )
    if v1 != v2:
        return Verdict(outcome=PROVABLY_INEQUIVALENT, evidence=records,
                       heuristic_flags=())
    return Verdict(outcome=UNDETERMINED, evidence=records,
                   heuristic_flags=_heuristic_flags(_value(e1.criteria), _value(e2.criteria)))


def compare(s1: StateVector, s2: StateVector, tol: float = DEFAULT_TOL,
            witness: LocalOperatorChain | None = None) -> Verdict:
    """Compare two same-size states.

    ProvablyInequivalent exactly when one tau vanishes and the other does
    not; EquivalentByConstruction only when an explicit invertible chain
    mapping s1 to s2 is supplied.  Everything else is Undetermined, with
    D/F pattern disagreements attached as informational flags.  Without
    a witness, each state's evidence (its report, and its D values, and
    F for n <= 4) is evaluated whole before the verdict is decided, even
    where tau decides it; an error of an evaluation is raised only where
    the verdict needs that value.
    """
    _check_sizes(s1.n, s2.n)
    if witness is not None:
        if len(witness) != s1.n:
            raise SizeMismatch(f"witness has {len(witness)} operators for n={s1.n}")
        if not np.all(np.abs(witness.dets) > INVERTIBLE_TOL):
            raise BadWitness("witness chain contains a non-invertible operator")
        mapped = apply_chain(witness, s1)
        scale = float(np.max(np.abs(s2.amplitudes))) or 1.0
        if not np.allclose(mapped.amplitudes, s2.amplitudes,
                           rtol=1e-9, atol=1e-12 * scale):
            raise BadWitness("witness chain does not map the first state to the second")
        return Verdict(outcome=EQUIVALENT_BY_CONSTRUCTION, evidence=(),
                       heuristic_flags=(), witness=witness)
    return _verdict(_evidence(s1, tol), _evidence(s2, tol))


def dual_equivalence(s: StateVector) -> tuple[StateVector, LocalOperatorChain]:
    """The bit-complement state together with its sigma_x witness chain."""
    return complement(s), sigma_x_chain(s.n)
