"""Invariant values, tau, scaling laws, and the compensated summation core."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from sloccinv import (
    ParityError,
    TooFewQubits,
    cluster_c,
    complement,
    criteria_signature,
    ghz,
    invariant_report,
    iv_bar,
    iv_star,
    iv_star_lower,
    iv_star_shifted,
    new_state,
    odd_invariant,
    random_state,
    tau,
    tensor,
    vanishing,
    w_state,
)
from sloccinv import invariant
from sloccinv.errors import NormOverflow, SloccInvError
from sloccinv.invariant import _LANES, _CompensatedAccumulator, vanishing_threshold
from sloccinv.signtab import sign_star_table

RNG = np.random.default_rng(20260810)


def rand_state(n, rng=RNG):
    amps = rng.uniform(-1, 1, 1 << n) + 1j * rng.uniform(-1, 1, 1 << n)
    return new_state(n, amps / np.linalg.norm(amps))


# --- compensated summation ------------------------------------------------

def lane_sum(x):
    """The accumulator's sum of x fed in slabs of _LANES // 2 terms, as the kernel feeds it."""
    acc = _CompensatedAccumulator()
    for lo in range(0, x.size, _LANES // 2):
        acc.add(x[lo:lo + _LANES // 2])
    return acc.total()


def test_csum_matches_fsum_small():
    # at most _LANES floats: one float per lane, so exactly math.fsum's bits
    rng = np.random.default_rng(0)
    for count in (300, 1, _LANES // 2):
        x = rng.normal(0, 1, count) + 1j * rng.normal(0, 1, count)
        ref = complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
        assert lane_sum(x) == ref, count


def test_csum_matches_fsum_large_cancellation():
    rng = np.random.default_rng(1)
    half = rng.normal(0, 1, 1 << 16) + 1j * rng.normal(0, 1, 1 << 16)
    x = np.concatenate([half, -half, rng.normal(0, 1e-14, 64) + 0j])
    rng.shuffle(x)
    ref = complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    got = lane_sum(x)
    assert abs(got - ref) <= 1e-16 * np.sum(np.abs(x))


def test_csum_magnitude_contrast():
    x = np.concatenate([np.full(500, 1e15), np.full(500, 1.0),
                        np.full(500, -1e15), np.full(500, 1.0)]).astype(np.complex128)
    assert lane_sum(x) == 1000.0 + 0j


def test_csum_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 100000) + 1j * rng.normal(0, 1, 100000)
    assert lane_sum(x) == lane_sum(x.copy())


def test_lane_path_keeps_every_rounding_error():
    # 1e16 + 1 rounds to 1e16 in every lane; only the TwoSum compensation
    # keeps the ones
    k = 1 << 13
    x = np.concatenate([np.full(k, 1e16), np.full(k, 1.0), np.full(k, -1e16),
                        np.full(k, 1.0)]) * (1 + 1j)
    assert lane_sum(x) == 2 * k * (1 + 1j)


def test_a_one_term_form_allocates_no_full_lane_row():
    # the lanes are as wide as the form's slab; a fixed row of _LANES lanes
    # and their TwoSum temporaries peaked at 330 KB for one term
    x, y = ghz(2).amplitudes.reshape(2, -1)
    invariant._form(x, y)  # the sign table is cached
    tracemalloc.start()
    try:
        invariant._form(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10, peak


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
    # compensated sum; plus u for rounding the reference.  Up to n=15
    # every term array has one float per lane, so its sum is math.fsum's;
    # n=16..18 stream several lane rows.
    rng = np.random.default_rng(20261018)
    bound = (math.sqrt(5) + 5) * U
    for n in range(2, 19):
        for _ in range(3 if n <= 14 else 1):
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


def test_odd_iv_star_is_iv_bar_with_qubits_1_and_2_swapped():
    # With lo0, lo1, hi0, hi1 the quarter blocks of qubits 1 and 2, odd-n
    # IV* is B(lo0, hi1) + B(lo1, hi0): IVbar of the state whose qubits 1
    # and 2 are exchanged.  The exchange keeps each pair (j, L-1-j), so M
    # is the same for both states.
    rng = np.random.default_rng(20261018)
    bound = (math.sqrt(5) + 5) * U
    for n in range(3, 14, 2):
        for _ in range(5):
            s = rand_state(n, rng)
            a = s.amplitudes
            swapped = new_state(n, a.reshape(2, 2, -1).transpose(1, 0, 2).ravel())
            assert abs(iv_star(s) - iv_bar(swapped)) <= bound * _pair_magnitude(a), n


def _rand_block(rng, size):
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


def _block_magnitude(x, y):
    """sum_j |x_j| |y_{M-1-j}|: every product of B(x, y), once."""
    return float(np.abs(x) @ np.abs(y)[::-1])


def test_kernel_matches_the_thue_morse_form_on_unrelated_blocks():
    # the bound of test_invariants_match_the_thue_morse_form; B(y, x) is
    # exactly (-1)**m B(x, y), so the two kernel values are within twice it
    rng = np.random.default_rng(20261019)
    bound = (math.sqrt(5) + 5) * U
    for m in range(1, 11):
        for _ in range(3):
            x, y = _rand_block(rng, 1 << m), _rand_block(rng, 1 << m)
            got, scale = invariant._form(x, y), _block_magnitude(x, y)
            assert abs(got - _form(x, y)) <= bound * scale, m
            assert abs(invariant._form(y, x) - (-1) ** m * got) <= 2 * bound * scale, m


@pytest.mark.parametrize("k", [-1000, -7, 0, 3, 1000])
def test_kernel_scales_its_slabs_exactly(k):
    # _form(x, y, k) scales the regions it reads by 2**-k before any product,
    # so it equals the kernel on the scaled blocks bit for bit.  At k = +-1000
    # the unscaled products overflow or underflow, so the scaling decides the value.
    rng = np.random.default_rng(20261019 + k)
    for m in range(1, 11):
        x, y = (np.ldexp(_rand_block(rng, 1 << m).view(np.float64), k).view(np.complex128)
                for _ in range(2))
        x[rng.integers(x.size)] = 0  # an exact zero among the parts
        scaled = [np.ldexp(v.view(np.float64), -k).view(np.complex128) for v in (x, y)]
        got, want = invariant._form(x, y, k), invariant._form(*scaled)
        assert np.array([got]).view(np.uint64).tolist() == \
            np.array([want]).view(np.uint64).tolist(), m
        halves = x.reshape(2, -1) if m > 1 else None
        if halves is not None:  # two views of one array, as the reports pass them
            assert invariant._form(*halves, k) == invariant._form(*scaled[0].reshape(2, -1))
        with np.errstate(all="ignore"):
            raw = invariant._form(x, y)
        if k == 1000:
            assert not np.isfinite(raw), m
        elif k == -1000:
            assert raw == 0 and want != 0, m


def test_reports_hold_no_scaled_copy_of_the_state():
    # the reports read 2**-k * s through fixed-size slabs (the norm's 512 KiB
    # slab, the kernel's buffers, D's blocks), some 1.1 MiB in all, which is
    # more than an n=16 vector; at n=20 a scaled copy is 16 MiB, the slabs
    # under a tenth of it.  Beyond its D outputs, a report holds less than a
    # quarter of the vector.
    s = random_state(20, 1)
    for report in (invariant_report, partial(criteria_signature, include_f=False)):
        report(s)  # the sign tables are cached, not counted
        tracemalloc.start()
        try:
            result = report(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(x.nbytes for x in result.d) if hasattr(result, "d") else 0
        assert peak - outputs < s.amplitudes.nbytes / 4, (report, peak, outputs)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 4), (3, 1), (2, 5), (5, 5)])
def test_kernel_factors_over_tensor_products(p, q):
    # B(x (x) y, u (x) v) = B(x, u) B(y, v), as tm(j) = tm(j1) tm(j2) for
    # j = j1 * 2**q + j2.  First-order rounding: each side's kernel bound
    # on the product magnitude, plus sqrt(5) u for the Kronecker entries
    # and for the product of the two factors.
    rng = np.random.default_rng(20261021 + 16 * p + q)
    bound = (3 * (math.sqrt(5) + 5) + 3 * math.sqrt(5)) * U
    for _ in range(3):
        x, u = _rand_block(rng, 1 << p), _rand_block(rng, 1 << p)
        y, v = _rand_block(rng, 1 << q), _rand_block(rng, 1 << q)
        whole = invariant._form(np.kron(x, y), np.kron(u, v))
        factors = invariant._form(x, u) * invariant._form(y, v)
        scale = _block_magnitude(x, u) * _block_magnitude(y, v)
        assert abs(whole - factors) <= bound * scale, (p, q)


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
    # sub-unit norms shrink the threshold with the norm: it is homogeneous
    assert not vanishing(9e-11, 0.01)
    assert vanishing(9e-13, 0.01)


def test_vanishing_threshold_values_and_overflow():
    for nsq in (0.0, 0.01, 1.0, 2.0, 1e100, 1.3e154, 1e300):
        for degree in (2, 4):
            if degree == 4 and nsq > 1.3e154:
                continue
            want = 1e-10 * nsq ** (degree / 2)
            assert vanishing_threshold(nsq, 1e-10, degree) == want
    for nsq, degree in ((1.4e154, 4), (1e200, 4), (1e300, 4), (math.inf, 4), (math.inf, 2)):
        with pytest.raises(NormOverflow) as info:
            vanishing_threshold(nsq, 1e-10, degree)
        assert isinstance(info.value, SloccInvError)
        assert isinstance(info.value, OverflowError)
    with pytest.raises(NormOverflow):
        vanishing(0.0, 2e160, degree=4)


def test_report_needs_two_qubits():
    with pytest.raises(TooFewQubits, match="invariant_report needs n >= 2"):
        invariant_report(new_state(1, [1, 0]))


def test_norm_overflow_is_exported():
    import sloccinv

    assert "NormOverflow" in sloccinv.__all__
    assert sloccinv.NormOverflow is NormOverflow


@pytest.mark.parametrize("factor", [1e-100, 2.0 ** -1000, 1e70, 2.0 ** 250])
def test_report_decides_on_the_scaled_state(factor):
    # factor * s is SLOCC-equivalent to s: the same flags, even where raw values underflow
    for s in (ghz(3), ghz(4), w_state(5), rand_state(5), rand_state(6)):
        r = invariant_report(s)
        scaled = invariant_report(new_state(s.n, factor * s.amplitudes))
        assert dict(scaled.vanishing) == dict(r.vanishing)
        if factor == 2.0 ** 250:  # exact, and every raw value stays in the float range
            degree = 2 if s.n % 2 == 0 else 4
            assert scaled.tau == math.ldexp(r.tau, 250 * degree)


def test_report_refuses_raw_values_beyond_the_float_range():
    # the decision is still made; only reporting the degree-4 value would overflow
    with pytest.raises(NormOverflow, match="too large"):
        invariant_report(new_state(3, 2.0 ** 260 * ghz(3).amplitudes))
    big = invariant_report(new_state(4, 2.0 ** 260 * ghz(4).amplitudes))
    assert big.tau == math.ldexp(invariant_report(ghz(4)).tau, 520)


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
