"""Comparison verdicts, soundness under construction, dual equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sloccinv import (
    EQUIVALENT_BY_CONSTRUCTION,
    PROVABLY_INEQUIVALENT,
    BadWitness,
    SizeMismatch,
    SloccInvError,
    UNDETERMINED,
    apply_chain,
    chain_of,
    cluster_c,
    compare,
    complement,
    criteria_signature,
    det_product,
    dual_equivalence,
    ghz,
    new_state,
    random_chain,
    random_state,
    tau,
    tensor,
    w_state,
)

RNG = np.random.default_rng(161803)


def rand_state(n, rng=RNG):
    amps = rng.uniform(-1, 1, 1 << n) + 1j * rng.uniform(-1, 1, 1 << n)
    return new_state(n, amps / np.linalg.norm(amps))


def test_ghz3_vs_w3_is_provably_inequivalent():
    verdict = compare(ghz(3), w_state(3))
    assert verdict.outcome == PROVABLY_INEQUIVALENT
    (tau_record,) = [e for e in verdict.evidence if e.criterion == "tau"]
    assert tau_record.values[0] == pytest.approx(1.0)
    assert tau_record.values[1] == pytest.approx(0.0, abs=1e-12)
    assert tau_record.vanishing == (False, True)


def test_ghz4_vs_cluster_undetermined_with_d_flag():
    verdict = compare(ghz(4), cluster_c())
    assert verdict.outcome == UNDETERMINED
    assert any(flag.startswith("D2[0]") for flag in verdict.heuristic_flags)


def test_self_compare_identical_evidence():
    s = rand_state(5)
    verdict = compare(s, s)
    assert verdict.outcome == UNDETERMINED
    assert verdict.heuristic_flags == ()
    for record in verdict.evidence:
        assert record.values[0] == record.values[1]
        assert record.vanishing[0] == record.vanishing[1]


def test_compare_symmetric_outcome():
    pairs = [
        (ghz(3), w_state(3)),
        (ghz(4), cluster_c()),
        (rand_state(4), rand_state(4)),
    ]
    for s1, s2 in pairs:
        assert compare(s1, s2).outcome == compare(s2, s1).outcome


def test_compare_size_mismatch():
    with pytest.raises(SizeMismatch):
        compare(ghz(3), ghz(4))


def test_soundness_under_construction_quick():
    for n in range(3, 6):
        for trial in range(30):
            s = rand_state(n)
            ch = random_chain(n, seed=500 * n + trial)
            verdict = compare(s, apply_chain(ch, s))
            assert verdict.outcome != PROVABLY_INEQUIVALENT, (n, trial)


@pytest.mark.parametrize("n, c", [(4, 1e-6), (3, 1e-3), (5, 1e-3)])
def test_rescaled_ghz_is_not_provably_inequivalent(n, c):
    s = ghz(n)
    assert compare(s, new_state(n, c * s.amplitudes)).outcome != PROVABLY_INEQUIVALENT


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 6), kind=st.sampled_from(["random", "ghz", "w"]),
       seed=st.integers(0, 2**32 - 1), exponent=st.floats(-8.0, 8.0))
def test_rescaling_is_never_provably_inequivalent(n, kind, seed, exponent):
    # c * s is SLOCC-equivalent to s through the chain c**(1/n) * I
    s = {"random": lambda: random_state(n, seed), "ghz": lambda: ghz(n),
         "w": lambda: w_state(n)}[kind]()
    scaled = new_state(n, 10.0 ** exponent * s.amplitudes)
    assert compare(s, scaled).outcome != PROVABLY_INEQUIVALENT


def test_dual_equivalence_witness():
    for n in (3, 5, 7):
        s = random_state(n, seed=n)
        dual, witness = dual_equivalence(s)
        np.testing.assert_array_equal(dual.amplitudes, complement(s).amplitudes)
        mapped = apply_chain(witness, s)
        assert np.max(np.abs(mapped.amplitudes - dual.amplitudes)) <= 1e-15
        assert tau(dual) == pytest.approx(tau(s), rel=1e-10, abs=1e-15)
        assert abs(det_product(witness)) == pytest.approx(1.0)
        # applying the witness twice returns the original state
        back = apply_chain(witness, mapped)
        np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


def test_compare_with_witness():
    s = random_state(4, seed=8)
    dual, witness = dual_equivalence(s)
    verdict = compare(s, dual, witness=witness)
    assert verdict.outcome == EQUIVALENT_BY_CONSTRUCTION
    assert verdict.witness is witness


def test_compare_with_wrong_witness_raises():
    s = random_state(3, seed=4)
    other = rand_state(3)
    _, witness = dual_equivalence(s)
    with pytest.raises(ValueError):
        compare(s, other, witness=witness)


def test_compare_with_singular_witness_raises():
    s = random_state(3, seed=4)
    singular = chain_of([np.eye(2), np.eye(2), [[1, 1], [1, 1]]])
    with pytest.raises(ValueError):
        compare(s, s, witness=singular)
    # diag(1, d) on a last qubit in |0> maps s to s: only |d| decides, against INVERTIBLE_TOL
    s0 = tensor(random_state(2, seed=4), new_state(1, [1, 0]))
    with pytest.raises(ValueError, match="non-invertible"):
        compare(s0, s0, witness=chain_of([np.eye(2), np.eye(2), np.diag([1.0, 1e-13])]))
    ok = compare(s0, s0, witness=chain_of([np.eye(2), np.eye(2), np.diag([1.0, 1e-11])]))
    assert ok.outcome == EQUIVALENT_BY_CONSTRUCTION


def test_witness_errors_are_package_errors():
    s = random_state(3, seed=4)
    singular = chain_of([np.eye(2), np.eye(2), [[1, 1], [1, 1]]])
    with pytest.raises(BadWitness) as exc:
        compare(s, s, witness=singular)
    assert isinstance(exc.value, SloccInvError) and isinstance(exc.value, ValueError)
    _, witness = dual_equivalence(s)
    with pytest.raises(BadWitness):
        compare(s, rand_state(3), witness=witness)


def object_loop_flags(s1, s2, tol=1e-10):
    """The D/F flags from a per-entry index loop over the signature arrays."""
    include_f = s1.n <= 4
    sig1 = criteria_signature(s1, tol, include_f=include_f)
    sig2 = criteria_signature(s2, tol, include_f=include_f)

    def size(d, *at):
        return abs(complex(d.re[at], d.im[at]))

    flags = []
    for i in range(len(sig1.d.re)):
        for slot in range(3):
            if sig1.d.vanishing[i, slot] != sig2.d.vanishing[i, slot]:
                flags.append(f"D{slot + 1}[{i}] vanishing differs: "
                             f"{size(sig1.d, i, slot):.3e} vs {size(sig2.d, i, slot):.3e}")
    for row in range(len(sig1.f_tuples)):
        if sig1.f.vanishing[row] != sig2.f.vanishing[row]:
            t = tuple(int(u) for u in sig1.f_tuples[row])
            flags.append(f"F{t} vanishing differs: "
                         f"{size(sig1.f, row):.3e} vs {size(sig2.f, row):.3e}")
    return tuple(flags)


def test_heuristic_flags_match_object_loop():
    pairs = [(ghz(4), cluster_c()), (cluster_c(), random_state(4, 2)),
             (tensor(ghz(3), ghz(2)), random_state(5, 7)), (ghz(6), random_state(6, 1))]
    kinds = set()
    for s1, s2 in pairs:
        verdict = compare(s1, s2)
        assert verdict.outcome == UNDETERMINED
        assert verdict.heuristic_flags == object_loop_flags(s1, s2)
        kinds |= {flag[0] for flag in verdict.heuristic_flags}
    assert kinds == {"D", "F"}


def test_verdict_json_shape():
    from sloccinv.classify import verdict_json_dict

    doc = verdict_json_dict(compare(ghz(3), w_state(3)))
    assert doc["outcome"] == PROVABLY_INEQUIVALENT
    assert doc["evidence"][0]["criterion"] == "tau"
    assert doc["has_witness"] is False
