"""The invariant kernels against their exact values, in units of u*R.

`exact_forms` computes B(x, y) of the given floats with Python integers,
so each kernel value has an exact reference.  With u = 2**-53 and
R(x, y) = sum_j |x_j| |y_(M-1-j)|, one value of `invariant._form` is off
by at most

    KAPPA * u * R + M * ETA,   KAPPA = 6 > sqrt(5) + 3,

where each of its terms joins four complex products (each within
sqrt(5) u of its modulus, Brent, Percival & Zimmermann 2007), two
subtractions and the fold, so a term is within (sqrt(5) + 2) u of its
share of R; the compensated sum adds u |B| <= u R and O(M u**2) R.
M * ETA, ETA = 2**-1074, bounds what products below the normal range
lose.  IV* at odd n adds two forms, one more rounding: (KAPPA + 1) u R.

The odd invariant bar**2 - 4 low high is gated by the bound that its
three forms' bounds E_bar, E_low and E_high propagate to (ROADMAP item 13):

    2|bar| E_bar + E_bar**2 + 4 (|low| E_high + |high| E_low + E_low E_high)
        + 4 u (|bar|**2 + 4 |low| |high|) + 4 ETA,

with exact moduli in the first terms and the float ones in the rounding
term of its two products and one subtraction.  It is checked in three
forms: `odd_invariant` of the raw state wherever that bound is a finite
float; the value of 2**-k s, k = statevec._exponent, that
`invariant_report` decides on; and the report's unscaled value, which
may raise NormOverflow only where the true value plus its bound is beyond
the float range.  Over n = 2..14, random, GHZ, W, cluster and tensor states at
scales 1, 1e150 and 1e-150, the worst error is 0.19 of its bound, that
is 1.14 u R for a form (numpy 2.4, x86-64).  Every value of a W state
that is exactly 0 comes out as 0.

The D criteria are gated the same way against `exact_forms.d_values`.
D = P(f) Q(b) - Q(f) P(b) is a sum of eight products of four amplitudes;
R_D is the sum of their moduli.  A minor P = b_w b_x - b_y b_z is within
(sqrt(5) + 1) u of its share r_P = |b_w b_x| + |b_y b_z| of R_D (two complex
products and a subtraction), so one product of minors, rounded once more, is
within (3 sqrt(5) + 2) u of r_P r_Q, and the last subtraction adds u:

    D_KAPPA * u * R_D + D_ETA * ETA,   D_KAPPA = 10 > 3 sqrt(5) + 3,

on the scaled state 2**-k s, whose parts are below 1, so every minor is
below 4 and the products that leave the normal range lose at most
D_ETA = 64 units of ETA.  The reported raw value is 2**(4k) times the
scaled one.  Over n = 4..12 and the same states and scales as above, the
worst error is 0.23 of its bound, 2.34 u R_D (random_state(1, 12) x
random_state(11, 12); numpy 2.4, x86-64), and every D of a W state comes
out as 0.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exact_forms import d_magnitude_sums, d_values, form, magnitude_sum, odd_parts
from sloccinv import (cluster_c, criteria_signature, ghz, invariant, invariant_report, iv_bar,
                      iv_star, iv_star_lower, iv_star_shifted, new_state, odd_invariant,
                      random_state, tensor, w_state)
from sloccinv.errors import NormOverflow
from sloccinv.statevec import _exponent

U = 2.0 ** -53
ETA = 2.0 ** -1074
KAPPA = 6
D_KAPPA = 10
D_ETA = 64
SCALES = (1.0, 1e150, 1e-150)


def states(n):
    """(name, state) at every scale: two random states, GHZ, W, a cluster
    state (times a random state above n = 4) and a product of random states."""
    bases = [(f"random_state({n}, {seed})", random_state(n, seed)) for seed in (0, 1)]
    bases += [(f"ghz({n})", ghz(n)), (f"w_state({n})", w_state(n)),
              (f"random_state(1, {n}) x random_state({n - 1}, {n})",
               tensor(random_state(1, n), random_state(n - 1, n)))]
    if n == 4:
        bases.append(("cluster_c()", cluster_c()))
    elif n > 4:
        bases.append((f"cluster_c() x random_state({n - 4}, {n})",
                      tensor(cluster_c(), random_state(n - 4, n))))
    for name, s in bases:
        for scale in SCALES:
            yield f"{name} * {scale:g}", new_state(n, scale * s.amplitudes)


def ldexp(a, k):
    """2**k * a, part by part."""
    return np.ldexp(a.view(np.float64), k).view(np.complex128)


def form_bound(x, y):
    return KAPPA * U * magnitude_sum(x, y) + x.size * ETA


def odd_bound(exact, values, bounds):
    """The bound of bar**2 - 4 low high from its forms' exact values, float values and bounds."""
    with np.errstate(over="ignore"):  # a bound past the float range is inf
        (bar, low, high), (e_bar, e_low, e_high) = np.float64([[abs(d) for d in exact], bounds])
        fbar, flow, fhigh = np.float64([abs(v) for v in values])
        return float(2 * bar * e_bar + e_bar ** 2
                     + 4 * (low * e_high + high * e_low + e_low * e_high)
                     + 4 * U * (fbar ** 2 + 4 * flow * fhigh) + 4 * ETA)


def unscaled(bound, k, degree):
    """A degree-d value's bound on 2**-k s, as a bound on s: 2**(k*d) times it,
    plus ETA for a part that the unscaling rounds below the normal range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(bound, k * degree)) + ETA


def checks(s):
    """(what, float value, exact value, bound) of every gated kernel value of s."""
    a = s.amplitudes
    k = _exponent(a)
    scaled = ldexp(a, -k)
    assert np.array_equal(ldexp(scaled, k), a)  # 2**-k s is exact, so its forms are 2**-2k B
    if s.n % 2 == 0:
        lo, hi = a.reshape(2, -1)
        star, e_star = form(lo, hi), form_bound(lo, hi)
        e_scaled = form_bound(*scaled.reshape(2, -1))
        yield "iv_star", iv_star(s), star, e_star
        yield "scaled iv_star", invariant._form(lo, hi, k), star.scaled(-2 * k), e_scaled
        yield "report iv_star", invariant_report(s).iv_star, star, unscaled(e_scaled, k, 2)
        return
    (lo0, lo1), (hi0, hi1) = a.reshape(2, 2, -1)
    yield ("iv_star", iv_star(s), form(lo0, hi1) + form(lo1, hi0),
           (KAPPA + 1) * U * (magnitude_sum(lo0, hi1) + magnitude_sum(lo1, hi0))
           + lo0.size * 2 * ETA)
    exact = odd_parts(a)
    blocks = [a.reshape(2, -1), a.reshape(2, 2, -1)[0], a.reshape(2, 2, -1)[1]]
    bounds = [form_bound(*pair) for pair in blocks]
    raw = [iv_bar(s), iv_star_lower(s), iv_star_shifted(s)]
    for what, value, want, bound in zip(("iv_bar", "iv_star_lower", "iv_star_shifted"),
                                        raw, exact, bounds):
        yield what, value, want, bound
    e_odd = odd_bound(exact[:3], raw, bounds)
    if math.isfinite(e_odd):
        yield "odd_invariant", odd_invariant(s), exact[3], e_odd

    parts = invariant._odd_parts(a, k)
    exact_k = [d.scaled(-2 * k) for d in exact[:3]] + [exact[3].scaled(-4 * k)]
    bounds_k = [form_bound(*pair) for pair in
                [scaled.reshape(2, -1), *scaled.reshape(2, 2, -1)]]
    bounds_k.append(odd_bound(exact_k[:3], parts[:3], bounds_k))
    for what, value, want, bound in zip(("bar", "low", "high", "odd_invariant"),
                                        parts, exact_k, bounds_k):
        yield f"scaled {what}", value, want, bound

    try:
        report = invariant_report(s)
    except NormOverflow:  # only a value whose bound reaches past the float range may refuse
        assert abs(exact[3]) + unscaled(bounds_k[3], k, 4) > np.finfo(float).max
        return
    for what, value, want, bound, degree in zip(
            ("iv_bar", "iv_star", "iv_star_shifted", "odd_invariant"),
            (report.iv_bar, report.iv_star, report.iv_star_shifted, report.odd_invariant),
            exact, bounds_k, (2, 2, 2, 4)):
        yield f"report {what}", value, want, unscaled(bound, k, degree)


def worst_ratio(n):
    """The largest error/bound over the gated values of every state of n; asserts each <= 1."""
    worst = 0.0
    for name, s in states(n):
        for what, value, exact, bound in checks(s):
            error = exact.error(complex(value))
            assert error <= bound, (name, what, value, error / bound)
            if name.startswith("w_state") and exact.re == exact.im == 0:
                assert value == 0, (name, what, value)
            worst = max(worst, error / bound)
    return worst


@pytest.mark.parametrize("n", range(2, 15))
def test_every_kernel_value_is_within_its_bound_of_the_exact_value(n):
    assert worst_ratio(n) <= 1.0


@pytest.mark.parametrize("n", range(3, 15))
def test_w_states_have_exactly_vanishing_invariants(n):
    # even n: IV* = B(lo, hi); odd n: bar = high = 0, so the odd invariant is 0 too
    a = w_state(n).amplitudes
    if n % 2 == 0:
        star = form(*a.reshape(2, -1))
        assert (star.re, star.im) == (0, 0)
        assert iv_star(w_state(n)) == 0
    else:
        bar, _, high, odd = odd_parts(a)
        assert (bar.re, bar.im, high.re, high.im, odd.re, odd.im) == (0,) * 6
        assert odd_invariant(w_state(n)) == 0


def test_the_exact_form_is_the_signed_sum_of_its_terms():
    # a plain Fraction sum of B's definition, for two blocks of up to 8 amplitudes
    for n in (1, 2, 3):
        x, y = random_state(n, 1).amplitudes, 1e-3 * random_state(n, 2).amplitudes
        size = x.size
        re = im = Fraction(0)
        for j in range(size):
            sign = -1 if bin(j).count("1") % 2 else 1
            xr, xi = Fraction(x[j].real), Fraction(x[j].imag)
            yr, yi = Fraction(y[size - 1 - j].real), Fraction(y[size - 1 - j].imag)
            re += sign * (xr * yr - xi * yi)
            im += sign * (xr * yi + xi * yr)
        assert form(x, y).parts() == (re, im)


def d_worst_ratio(n):
    """The largest error/bound over the D values of every state of n; asserts each <= 1."""
    worst = 0.0
    for name, s in states(n):
        a = s.amplitudes
        k = _exponent(a)
        exact = d_values(a)
        bounds = [[unscaled(D_KAPPA * U * r + D_ETA * ETA, k, 4) for r in row]
                  for row in d_magnitude_sums(ldexp(a, -k)).tolist()]
        try:
            d = criteria_signature(s, include_f=False).d
        except NormOverflow:  # only where some value plus its bound passes the float range
            assert max(abs(e) + b for row in zip(exact, bounds) for e, b in zip(*row)) \
                > np.finfo(float).max, name
            continue
        for i, (row, row_bounds) in enumerate(zip(exact, bounds)):
            for slot, (want, bound) in enumerate(zip(row, row_bounds)):
                value = complex(d.re[i, slot], d.im[i, slot])
                error = want.error(value)
                assert error <= bound, (name, i, slot, value, error / bound)
                if name.startswith("w_state"):
                    assert (want.re, want.im, value) == (0, 0, 0), (name, i, slot, value)
                worst = max(worst, error / bound)
    return worst


@pytest.mark.parametrize("n", range(4, 13))
def test_every_d_value_is_within_its_bound_of_the_exact_value(n):
    assert d_worst_ratio(n) <= 1.0
