"""Pairwise SLOCC comparison verdicts and constructive dual equivalence.

Only the tau-vanishing rule yields a proof-strength verdict: two states
whose residual entanglements differ in vanishing cannot be SLOCC
equivalent.  Disagreeing D/F vanishing patterns are reported as
heuristic flags, never as a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionValues, criteria_signature
from .errors import BadWitness, SizeMismatch
from .invariant import DEFAULT_TOL, invariant_report
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


def _tau_evidence(s1: StateVector, s2: StateVector, tol: float):
    """tau, the value it is built from and their shared vanishing flags, per state."""
    r1, r2 = invariant_report(s1, tol), invariant_report(s2, tol)
    name = "iv_star" if r1.parity == "even" else "odd_invariant"
    v1, v2 = r1.vanishing["tau"], r2.vanishing["tau"]
    records = (
        Evidence("tau", (r1.tau, r2.tau), (v1, v2)),
        Evidence(name, (getattr(r1, name), getattr(r2, name)), (v1, v2)),
    )
    return records, v1, v2


def _differing(v1: CriterionValues, v2: CriterionValues):
    """(index..., magnitude 1, magnitude 2) wherever the two vanishing patterns differ."""
    where = np.nonzero(v1.vanishing != v2.vanishing)
    return zip(*(w.tolist() for w in where),
               v1.magnitude[where].tolist(), v2.magnitude[where].tolist())


def _heuristic_flags(s1: StateVector, s2: StateVector, tol: float) -> tuple[str, ...]:
    if s1.n < 3:
        return ()
    include_f = s1.n <= _F_FLAG_MAX_N
    sig1 = criteria_signature(s1, tol, include_f=include_f)
    sig2 = criteria_signature(s2, tol, include_f=include_f)
    flags = [f"D{slot + 1}[{i}] vanishing differs: {m1:.3e} vs {m2:.3e}"
             for i, slot, m1, m2 in _differing(sig1.d, sig2.d)]
    flags += [f"F{tuple(sig1.f_tuples[row].tolist())} vanishing differs: "
              f"{m1:.3e} vs {m2:.3e}" for row, m1, m2 in _differing(sig1.f, sig2.f)]
    return tuple(flags)


def compare(s1: StateVector, s2: StateVector, tol: float = DEFAULT_TOL,
            witness: LocalOperatorChain | None = None) -> Verdict:
    """Compare two same-size states.

    ProvablyInequivalent exactly when one tau vanishes and the other does
    not; EquivalentByConstruction only when an explicit invertible chain
    mapping s1 to s2 is supplied.  Everything else is Undetermined, with
    D/F pattern disagreements attached as informational flags.
    """
    if s1.n != s2.n:
        raise SizeMismatch(f"cannot compare n={s1.n} with n={s2.n}")
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
    records, v1, v2 = _tau_evidence(s1, s2, tol)
    if v1 != v2:
        return Verdict(outcome=PROVABLY_INEQUIVALENT, evidence=records,
                       heuristic_flags=())
    return Verdict(outcome=UNDETERMINED, evidence=records,
                   heuristic_flags=_heuristic_flags(s1, s2, tol))


def dual_equivalence(s: StateVector) -> tuple[StateVector, LocalOperatorChain]:
    """The bit-complement state together with its sigma_x witness chain."""
    return complement(s), sigma_x_chain(s.n)


def verdict_json_dict(v: Verdict) -> dict:
    def render(value):
        if isinstance(value, complex):
            return [value.real, value.imag]
        return value

    return {
        "outcome": v.outcome,
        "evidence": [
            {"criterion": e.criterion,
             "values": [render(e.values[0]), render(e.values[1])],
             "vanishing": list(e.vanishing)}
            for e in v.evidence
        ],
        "heuristic_flags": list(v.heuristic_flags),
        "has_witness": v.witness is not None,
    }
