"""Invariant values, tau, scaling laws, and the compensated summation core."""

import math

import numpy as np
import pytest

from sloccinv import (
    ParityError,
    TooFewQubits,
    cluster_c,
    complement,
    ghz,
    invariant_report,
    iv_bar,
    iv_star,
    iv_star_lower,
    iv_star_shifted,
    new_state,
    odd_invariant,
    tau,
    tensor,
    vanishing,
    w_state,
)
from sloccinv.errors import NormOverflow, SloccInvError
from sloccinv.invariant import _compensated_complex_sum, vanishing_threshold
from sloccinv.signtab import sign_star_table

RNG = np.random.default_rng(20260810)


def rand_state(n, rng=RNG):
    amps = rng.uniform(-1, 1, 1 << n) + 1j * rng.uniform(-1, 1, 1 << n)
    return new_state(n, amps / np.linalg.norm(amps))


# --- compensated summation ------------------------------------------------

def test_csum_matches_fsum_small():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 300) + 1j * rng.normal(0, 1, 300)
    ref = complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    assert _compensated_complex_sum(x) == ref


def test_csum_matches_fsum_large_cancellation():
    rng = np.random.default_rng(1)
    half = rng.normal(0, 1, 1 << 16) + 1j * rng.normal(0, 1, 1 << 16)
    x = np.concatenate([half, -half, rng.normal(0, 1e-14, 64) + 0j])
    rng.shuffle(x)
    ref = complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    got = _compensated_complex_sum(x)
    assert abs(got - ref) <= 1e-16 * np.sum(np.abs(x))


def test_csum_magnitude_contrast():
    x = np.concatenate([np.full(500, 1e15), np.full(500, 1.0),
                        np.full(500, -1e15), np.full(500, 1.0)]).astype(np.complex128)
    assert _compensated_complex_sum(x) == 1000.0 + 0j


def test_csum_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 100000) + 1j * rng.normal(0, 1, 100000)
    assert _compensated_complex_sum(x) == _compensated_complex_sum(x.copy())


def test_chunked_streaming_matches_one_shot(monkeypatch):
    # above the fsum cutoff both paths fold identical lane rows: bit-equal.
    # n=17, not 15: the n=14 half-blocks of n=15 fold to 2**11 terms, 4096
    # floats, which the one-shot side would sum with fsum
    import sloccinv.invariant as inv

    even = rand_state(16)
    odd = rand_state(17)
    ref = (iv_star(even), iv_bar(odd), odd_invariant(odd))
    monkeypatch.setattr(inv, "_CHUNK", 512)
    got = (iv_star(even), iv_bar(odd), odd_invariant(odd))
    assert got == ref


def test_chunked_streaming_accuracy_below_cutoff(monkeypatch):
    # below the cutoff the whole term array is one slab summed with exact
    # fsum, whatever the slab size
    import sloccinv.invariant as inv

    even = rand_state(12)
    odd = rand_state(11)
    ref = (iv_star(even), odd_invariant(odd))
    monkeypatch.setattr(inv, "_CHUNK", 512)
    got = (iv_star(even), odd_invariant(odd))
    assert got == ref


# --- iv_star ----------------------------------------------------------------

def test_iv_star_ghz4():
    assert iv_star(ghz(4)) == pytest.approx(0.5)


def test_iv_star_cluster():
    assert iv_star(cluster_c()) == pytest.approx(0.5)


def test_iv_star_ghz2():
    assert iv_star(ghz(2)) == pytest.approx(0.5)


def test_iv_star_needs_two_qubits():
    with pytest.raises(TooFewQubits):
        iv_star(new_state(1, [1, 0]))


# --- odd-n pieces -----------------------------------------------------------

def test_iv_bar_values():
    assert iv_bar(ghz(3)) == pytest.approx(0.5)
    assert iv_bar(w_state(3)) == 0
    assert iv_bar(ghz(5)) == pytest.approx(0.5)
    with pytest.raises(ParityError):
        iv_bar(ghz(4))


def test_iv_star_shifted_literal_n3():
    s = rand_state(3)
    a = s.amplitudes
    expected = a[4] * a[7] - a[5] * a[6]
    assert iv_star_shifted(s) == pytest.approx(complex(expected), rel=1e-14)


def test_iv_star_shifted_ghz_zero():
    assert iv_star_shifted(ghz(3)) == 0
    assert iv_star_shifted(ghz(5)) == 0
    with pytest.raises(ParityError):
        iv_star_shifted(ghz(4))


def test_iv_star_lower_literal_n3():
    s = rand_state(3)
    a = s.amplitudes
    assert iv_star_lower(s) == pytest.approx(complex(a[0] * a[3] - a[1] * a[2]), rel=1e-14)


def test_odd_invariant_values():
    assert odd_invariant(ghz(3)) == pytest.approx(0.25)
    assert odd_invariant(w_state(3)) == 0
    assert odd_invariant(ghz(5)) == pytest.approx(0.25)
    with pytest.raises(ParityError):
        odd_invariant(ghz(4))


# --- the Thue-Morse bilinear form -------------------------------------------

U = 2.0 ** -53


def _exact_products(x, y):
    """x * y elementwise as p + e, with p + e exact (Dekker's TwoProduct)."""
    def split(v):
        c = 134217729.0 * v
        high = c - (c - v)
        return high, v - high

    p = x * y
    (xh, xl), (yh, yl) = split(x), split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _signed_sum(signs, x, y):
    """sum_j signs_j x_j y_j, exactly rounded."""
    re = _exact_products(x.real, y.real) + _exact_products(-x.imag, y.imag)
    im = _exact_products(x.real, y.imag) + _exact_products(x.imag, y.real)
    return complex(math.fsum(np.concatenate([signs * p for p in re]).tolist()),
                   math.fsum(np.concatenate([signs * p for p in im]).tolist()))


def _form(x, y):
    """B(x, y) = sum_j (-1)**popcount(j) x_j y_{L-1-j}."""
    tm = np.array([(-1) ** bin(j).count("1") for j in range(x.size)], dtype=float)
    return _signed_sum(tm, x, y[::-1])


def _pair_magnitude(x):
    """M = sum_{j < L/2} |x_j| |x_{L-1-j}|: every product of the form, once."""
    m = np.abs(x)
    return float(m[: m.size // 2] @ m[::-1][: m.size // 2])


def test_invariants_match_the_thue_morse_form():
    # First-order rounding of the kernel: sqrt(5) u for each complex
    # product, u for the bracket difference, u for the fold, 2u for the
    # compensated sum; plus u for rounding the reference.
    rng = np.random.default_rng(20261018)
    bound = (math.sqrt(5) + 5) * U
    for n in range(2, 15):
        for _ in range(3):
            s = rand_state(n, rng)
            a = s.amplitudes
            lo, hi = np.split(a, 2)
            if n % 2 == 0:
                checks = [(iv_star(s), _form(a, a) / 2, a)]
            else:
                bracket = np.repeat(sign_star_table(n), 2) * np.resize([1.0, -1.0], lo.size)
                checks = [(iv_star(s), _signed_sum(bracket, lo, a[::-1][: lo.size]), a),
                          (iv_bar(s), _form(lo, hi), a),
                          (iv_star_lower(s), _form(lo, lo) / 2, lo),
                          (iv_star_shifted(s), _form(hi, hi) / 2, hi)]
            for k, (got, want, x) in enumerate(checks):
                assert abs(got - want) <= bound * _pair_magnitude(x), (n, k)


# --- tau --------------------------------------------------------------------

def test_tau_ghz_is_one():
    for n in range(2, 11):
        assert tau(ghz(n)) == pytest.approx(1.0, abs=1e-10)


def test_tau_w_vanishes_from_three_qubits():
    for n in range(3, 11):
        assert tau(w_state(n)) <= 1e-10
    assert tau(w_state(2)) == pytest.approx(1.0)  # n=2 W is a Bell state


def test_tau_cluster():
    assert tau(cluster_c()) == pytest.approx(1.0, abs=1e-10)


def test_tau_products():
    assert tau(tensor(ghz(2), ghz(2))) == pytest.approx(1.0, abs=1e-10)
    assert tau(tensor(ghz(3), ghz(3))) <= 1e-10


def test_tau_zero_prefix_factor():
    zero = new_state(1, [1, 0])
    for n in range(3, 8):
        assert tau(tensor(zero, rand_state(n - 1))) <= 1e-10


def test_tau_single_qubit_factor_any_amplitudes():
    chi = new_state(1, [0.6, 0.8j])
    for n in (4, 5):
        assert tau(tensor(chi, rand_state(n - 1))) <= 1e-12


def test_tau_needs_two_qubits():
    with pytest.raises(TooFewQubits):
        tau(new_state(1, [1, 0]))


def test_w_state_invariant_is_clean_zero():
    for n in range(3, 9):
        s = w_state(n)
        val = iv_star(s) if n % 2 == 0 else odd_invariant(s)
        budget = 1e-12 * float(np.sum(np.abs(s.amplitudes))) ** 2
        assert abs(val) <= budget
        assert val == 0  # every product pairs a zero amplitude


def test_scaling_laws():
    rng = np.random.default_rng(9)
    for n in (2, 4, 6):
        s = rand_state(n)
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        scaled = new_state(n, c * s.amplitudes)
        assert tau(scaled) == pytest.approx(abs(c) ** 2 * tau(s), rel=1e-12)
    for n in (3, 5, 7):
        s = rand_state(n)
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        scaled = new_state(n, c * s.amplitudes)
        assert tau(scaled) == pytest.approx(abs(c) ** 4 * tau(s), rel=1e-12)


def test_tau_complement_invariant():
    for n in range(2, 9):
        s = rand_state(n)
        assert tau(complement(s)) == pytest.approx(tau(s), rel=1e-12, abs=1e-15)


def test_lemma2_product_laws_random():
    for n1, n2 in [(2, 2), (2, 4)]:
        for _ in range(30):
            phi, omega = rand_state(n1), rand_state(n2)
            assert tau(tensor(phi, omega)) == pytest.approx(
                tau(phi) * tau(omega), abs=1e-9)
    for _ in range(30):
        assert tau(tensor(rand_state(3), rand_state(3))) <= 1e-9


def test_iv_star_bound_sample():
    for n in range(2, 8):
        for _ in range(200):
            assert abs(iv_star(rand_state(n))) <= 0.5 + 1e-9


# --- vanishing and reports ---------------------------------------------------

def test_vanishing_rule():
    assert vanishing(5e-11, 1.0)
    assert not vanishing(5e-10, 1.0)
    # degree-4 values scale with the squared norm
    assert vanishing(3.9e-10, 2.0, degree=4)
    assert not vanishing(4.1e-10, 2.0, degree=4)
    # sub-unit norms do not shrink the threshold below tol
    assert vanishing(9e-11, 0.01)


def test_vanishing_threshold_values_and_overflow():
    for nsq in (0.0, 0.01, 1.0, 2.0, 1e100, 1.3e154, 1e300):
        for degree in (2, 4):
            if degree == 4 and nsq > 1.3e154:
                continue
            want = 1e-10 * max(1.0, nsq) ** (degree / 2)
            assert vanishing_threshold(nsq, 1e-10, degree) == want
    for nsq, degree in ((1.4e154, 4), (1e200, 4), (1e300, 4), (math.inf, 4), (math.inf, 2)):
        with pytest.raises(NormOverflow) as info:
            vanishing_threshold(nsq, 1e-10, degree)
        assert isinstance(info.value, SloccInvError)
        assert isinstance(info.value, OverflowError)
    with pytest.raises(NormOverflow):
        vanishing(0.0, 2e160, degree=4)


def test_report_even():
    r = invariant_report(ghz(4))
    assert r.parity == "even"
    assert r.iv_star == pytest.approx(0.5)
    assert r.tau == pytest.approx(1.0)
    assert r.iv_bar is None and r.odd_invariant is None
    assert r.vanishing == {"iv_star": False, "tau": False}


def test_report_odd_ghz3():
    r = invariant_report(ghz(3))
    assert r.parity == "odd"
    assert r.iv_bar == pytest.approx(0.5)
    assert r.iv_star == 0
    assert r.iv_star_shifted == 0
    assert r.odd_invariant == pytest.approx(0.25)
    assert r.tau == pytest.approx(1.0)
    assert r.vanishing["tau"] is False
    assert r.vanishing["iv_star"] is True


def test_report_w4_vanishes():
    r = invariant_report(w_state(4))
    assert r.iv_star == 0
    assert r.tau == 0
    assert r.vanishing["tau"] is True
