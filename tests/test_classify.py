"""Comparison verdicts, soundness under construction, dual equivalence."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sloccinv import (
    EQUIVALENT_BY_CONSTRUCTION,
    PROVABLY_INEQUIVALENT,
    BadWitness,
    NormOverflow,
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
    identity_chain,
    invariant_report,
    new_state,
    random_chain,
    random_state,
    save_state,
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
    with pytest.raises(SizeMismatch, match="2 operators for n=3"):
        compare(ghz(3), ghz(3), witness=identity_chain(2))


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


def _flags(s):
    """Every vanishing decision compare and the reports make for s."""
    sig = criteria_signature(s, include_f=True)
    return dict(invariant_report(s).vanishing), sig.d.vanishing, sig.f.vanishing


@pytest.mark.parametrize("n, c", [(3, 1e-100), (3, 1e-150), (3, 1e-160), (4, 1e-200)])
def test_tiny_rescaled_ghz_is_undetermined(n, c):
    # the raw invariants underflow to 0; the decision on the exactly scaled state does not
    s = ghz(n)
    assert compare(s, new_state(n, c * s.amplitudes)).outcome == UNDETERMINED


def test_tiny_rescaled_cluster_keeps_its_criteria_masks():
    s = cluster_c()
    unit, tiny = criteria_signature(s), criteria_signature(new_state(4, 1e-100 * s.amplitudes))
    assert (unit.d.vanishing.sum(), unit.f.vanishing.sum()) == (0, 37)
    np.testing.assert_array_equal(tiny.d.vanishing, unit.d.vanishing)
    np.testing.assert_array_equal(tiny.f.vanishing, unit.f.vanishing)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 6), kind=st.sampled_from(["random", "ghz", "w", "cluster"]),
       seed=st.integers(0, 2**32 - 1), j=st.integers(-1000, 1000))
def test_power_of_two_rescaling_keeps_every_flag(n, kind, seed, j):
    # 2**j * s is exact, so each flag is bit-identical to that of s unless a
    # raw value to report leaves the float range
    s = {"random": lambda: random_state(n, seed), "ghz": lambda: ghz(n),
         "w": lambda: w_state(n), "cluster": cluster_c}[kind]()
    scaled = new_state(s.n, 2.0 ** j * s.amplitudes)
    try:
        flags = _flags(scaled)
    except NormOverflow:
        assert j > 200
        return
    want = _flags(s)
    assert flags[0] == want[0]
    for got, expected in zip(flags[1:], want[1:]):
        np.testing.assert_array_equal(got, expected)
    assert compare(s, scaled).outcome != PROVABLY_INEQUIVALENT


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 6), kind=st.sampled_from(["random", "ghz", "w"]),
       seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300))
def test_decimal_rescaling_is_never_provably_inequivalent(n, kind, seed, exponent):
    s = {"random": lambda: random_state(n, seed), "ghz": lambda: ghz(n),
         "w": lambda: w_state(n)}[kind]()
    scaled = new_state(n, 10.0 ** exponent * s.amplitudes)
    try:
        outcome = compare(s, scaled).outcome
    except NormOverflow:  # a degree-4 raw value beyond the float range
        assert exponent > 60
        return
    assert outcome != PROVABLY_INEQUIVALENT


def _condition(chain):
    """The chain's total condition number: the product of sigma_max/sigma_min."""
    sigma = np.linalg.svd(chain.ops, compute_uv=False)
    return float(np.prod(sigma[:, 0] / sigma[:, 1]))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(3, 7), state_seed=st.integers(0, 2**32 - 1),
       chain_seed=st.integers(0, 2**32 - 1))
def test_bounded_condition_chain_is_never_provably_inequivalent(n, state_seed, chain_seed):
    # chain(s) is SLOCC-equivalent to s; with a bounded condition number the
    # norm-scaled thresholds of s and chain(s) stay comparable
    chain = random_chain(n, chain_seed)
    assume(_condition(chain) <= 100)
    s = random_state(n, state_seed)
    assert compare(s, apply_chain(chain, s)).outcome != PROVABLY_INEQUIVALENT


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: the norm-scaled vanishing rule is not SLOCC-invariant under "
    "ill-conditioned chains; diag(1, 100) on each qubit makes tau of chain(s) vanish"))
def test_ill_conditioned_chain_is_never_provably_inequivalent():
    s = random_state(3, 42)
    chain = chain_of([[[1, 0], [0, 100]]] * 3)
    assert compare(s, apply_chain(chain, s)).outcome != PROVABLY_INEQUIVALENT


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


def test_verdict_json_shape(tmp_path, capsys):
    from sloccinv.cli import main

    for name, s in (("g3.json", ghz(3)), ("w3.json", w_state(3))):
        save_state(s, tmp_path / name)
    assert main(["compare", str(tmp_path / "g3.json"), str(tmp_path / "w3.json")]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == PROVABLY_INEQUIVALENT
    assert doc["evidence"][0]["criterion"] == "tau"
    assert doc["has_witness"] is False
