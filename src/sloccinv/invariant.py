"""SLOCC invariants and residual entanglement tau.

Every invariant is one signed bilinear form.  With the Thue-Morse signs
tm(j) = (-1)**popcount(j) and B(x, y) = sum_j tm(j) x_j y_{M-1-j}
for blocks x, y of M amplitudes:

    even n:  IV*(a, n) = B(lo, hi) = B(a, a) / 2,   tau = 2|IV*|
    odd n:   IVbar(a, n) = B(lo, hi),  IV*(lo) = B(lo, lo) / 2, ...
             odd invariant = IVbar**2 - 4 IV*(lo) IV*(hi),  tau = 4|...|

where lo and hi are the qubit-1 half-blocks, so the odd invariant is the
discriminant B(lo,hi)**2 - B(lo,lo) B(hi,hi) of a binary quadratic form
on qubit 1.  Under an invertible local-operator chain IV* picks up the
product of the 2x2 determinants (even n) and the odd invariant its
square; tau is therefore invariant under determinant-one chains.

One kernel, `_form(x, y)`, evaluates all of them on views of the
qubit-1 halves and quarters of the vector.  It joins four terms of B into
one two-bracket term, so blocks of 2**m amplitudes cost 2**max(m-2, 0)
terms, streamed in fixed-size slabs through one compensated lane accumulator.
Every sum is compensated in fixed index order, so cancellation-heavy
states (W, single-qubit tensor factors) evaluate to clean zeros and
results are reproducible bit-for-bit; a term array of at most _LANES
floats has one float per lane and sums exactly as math.fsum does.

The reports decide on the exactly scaled state 2**-k * s, with k from
`statevec._exponent`, but never build it: `_form(x, y, k)` scales each
slab it reads, and the norm is summed over scaled slabs too.  One helper,
`_decide`, makes every vanishing decision and unscales every value that
`invariant_report` and `criteria.criteria_signature` report, and raises
NormOverflow rather than report a value that is not finite.  `tau`, the
`iv_*` functions and `odd_invariant` are raw evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import NormOverflow, ParityError, TooFewQubits
from .signtab import sign_table
from .statevec import StateVector, _exponent, _norm_squared

DEFAULT_TOL = 1e-10   # vanishing threshold, scaled by the norm (see `vanishing`)

_LANES = 8192  # even, so interleaved re/im floats never share a lane; a slab is one row


class _CompensatedAccumulator:
    """Compensated sum over one or more slabs of at most _LANES // 2 complex
    terms, none wider than the first.

    A slab is viewed as interleaved re/im float64, and its float j is
    added into lane j by Knuth's branch-free TwoSum, whose exact rounding
    error goes into the lane's compensation: the wide-lane form of Ogita,
    Rump & Oishi's Sum2.  Real and imaginary parts keep their lanes, which
    the first slab allocates as wide as itself.  The lane totals and
    compensations are combined exactly with math.fsum, so the result is
    deterministic and immune to cancellation ordering; one slab has one
    float per lane, so its sum is exactly math.fsum's.
    """

    _lanes = None  # total, comp and the three TwoSum temporaries, from the first add

    def add(self, terms: np.ndarray) -> None:
        row = np.ascontiguousarray(terms, dtype=np.complex128).view(np.float64)
        if self._lanes is None:
            self._lanes = np.zeros((5, row.size))
        total, comp, s, b, err = self._lanes[:, :row.size]
        np.add(total, row, out=s)
        np.subtract(s, total, out=b)    # the part of row that reached s
        np.subtract(s, b, out=err)
        np.subtract(total, err, out=err)  # what total lost in s
        np.subtract(row, b, out=b)      # what row lost in s
        err += b
        comp += err
        total[...] = s

    def total(self) -> complex:
        total, comp = self._lanes[:2]
        re = math.fsum(total[0::2].tolist()) + math.fsum(comp[0::2].tolist())
        im = math.fsum(total[1::2].tolist()) + math.fsum(comp[1::2].tolist())
        return complex(re, im)


def _form(x: np.ndarray, y: np.ndarray, k: int = 0) -> complex:
    """B(2**-k x, 2**-k y) of two blocks of M = 2**m >= 2 amplitudes, as
    2**max(m-2, 0) terms.

    Term i is tm(i) * (outer_i +- inner_i).  outer_i = x_{2i} y_{M-1-2i} -
    x_{2i+1} y_{M-2-2i} joins terms 2i and 2i+1 of B; inner_i = outer_{M/2-1-i}
    has the sign tm(i) * (-1)**(m-1), so it is added for odd m, subtracted for even m.
    A slab of terms reads four contiguous regions: the heads x[2lo:2hi] and
    y[2lo:2hi] and their mirrored tails.  For k != 0 they are scaled, exactly,
    into one preallocated buffer first, so no scaled copy of x or y is made.
    """
    size = x.size
    mirrored = size >> 2  # terms with an inner term: all but the one of m=1
    count = max(mirrored, 1)
    m = size.bit_length() - 1
    signs = sign_table(m + 1)
    fold = np.add if m % 2 else np.subtract
    step = min(count, _LANES // 2)  # 64 KiB of terms; powers of two, so step divides count
    wi = step if mirrored else 0  # inner terms per slab
    buf = np.empty((3, step), dtype=np.complex128)
    scaled = np.empty((4, 2 * step), dtype=np.complex128) if k else None
    acc = _CompensatedAccumulator()
    for lo in range(0, count, step):
        hi = lo + step
        head, tail = slice(2 * lo, 2 * hi), slice(size - 2 * hi, size - 2 * lo)
        regions = x[head], y[head], x[tail], y[tail]
        if k:
            for region, out in zip(regions, scaled):
                np.ldexp(region.view(np.float64), -k, out=out.view(np.float64))
            regions = scaled
        xh, yh, xt, yt = regions
        t = np.multiply(xh[0::2], yt[::-2], out=buf[0])
        t -= np.multiply(xh[1::2], yt[-2::-2], out=buf[2])
        inner = np.multiply(xt[-2::-2][:wi], yh[1::2][:wi], out=buf[1, :wi])
        inner -= np.multiply(xt[::-2][:wi], yh[0::2][:wi], out=buf[2, :wi])
        fold(t[:wi], inner, out=t[:wi])
        t *= signs[lo:hi]
        acc.add(t)
    return acc.total()


def _check_odd(s: StateVector, name: str) -> None:
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"{name} needs odd n >= 3, got {s.n}")


def iv_star(s: StateVector) -> complex:
    """B(lo, hi) = B(a, a)/2 for even n; B(lo0, hi1) + B(lo1, hi0) for odd n."""
    if s.n < 2:
        raise TooFewQubits(f"iv_star needs n >= 2, got {s.n}")
    if s.n % 2 == 0:
        return _form(*s.amplitudes.reshape(2, -1))
    (lo0, lo1), (hi0, hi1) = s.amplitudes.reshape(2, 2, -1)
    return _form(lo0, hi1) + _form(lo1, hi0)


def iv_bar(s: StateVector) -> complex:
    """B(lo, hi) of the qubit-1 half-blocks, for odd n."""
    _check_odd(s, "iv_bar")
    return _form(*s.amplitudes.reshape(2, -1))


def iv_star_lower(s: StateVector) -> complex:
    """IV* of the qubit-1 |0> half-block, viewed as an (n-1)-qubit vector."""
    _check_odd(s, "iv_star_lower")
    return _form(*s.amplitudes.reshape(2, 2, -1)[0])


def iv_star_shifted(s: StateVector) -> complex:
    """IV* of the qubit-1 |1> half-block (all subscripts raised by 2**(n-1))."""
    _check_odd(s, "iv_star_shifted")
    return _form(*s.amplitudes.reshape(2, 2, -1)[1])


def _odd_parts(a: np.ndarray, k: int = 0) -> tuple[complex, ...]:
    """IVbar, IV*(lower), IV*(upper) and IVbar**2 - 4 * IV*(lower) * IV*(upper)
    of 2**-k * a, each form from views of the qubit-1 halves and quarters."""
    bar = _form(*a.reshape(2, -1), k)
    low, high = (_form(*half, k) for half in a.reshape(2, 2, -1))
    return bar, low, high, bar * bar - 4.0 * low * high


def odd_invariant(s: StateVector) -> complex:
    """IVbar**2 - 4 * IV*(lower) * IV*(upper) for odd n >= 3."""
    _check_odd(s, "odd_invariant")
    return _odd_parts(s.amplitudes)[3]


def tau(s: StateVector) -> float:
    """Residual entanglement: 2|IV*| for even n, 4|odd invariant| for odd n.

    Reported raw (no clamping); for normalized states it lies in [0, 1].
    """
    if s.n < 2:
        raise TooFewQubits(f"tau needs n >= 2, got {s.n}")
    if s.n % 2 == 0:
        return 2.0 * abs(iv_star(s))
    return 4.0 * abs(odd_invariant(s))


def vanishing_threshold(norm_squared: float, tol: float = DEFAULT_TOL,
                        degree: int = 2) -> float:
    """tol * (|s|^2)**(degree/2), the bound of the norm-scaled zero test.

    The bound is homogeneous of the value's degree, so scaling a state
    by any c != 0 never changes a vanishing decision beyond rounding.
    Raises NormOverflow when the bound is not a finite float; on the
    scaled state that the reports decide on, only a huge tol does that.
    """
    try:
        threshold = tol * norm_squared ** (degree / 2)
    except OverflowError:
        threshold = math.inf
    if not math.isfinite(threshold):
        raise NormOverflow(f"tol = {tol:.6g} is too large for a finite degree-{degree} "
                           f"vanishing threshold tol * |s|^{degree}")
    return threshold


def vanishing(value: complex, norm_squared: float,
              tol: float = DEFAULT_TOL, degree: int = 2) -> bool:
    """Norm-scaled zero test: |value| <= tol * (|s|^2)**(degree/2)."""
    return abs(value) <= vanishing_threshold(norm_squared, tol, degree)


class CriterionValues(NamedTuple):
    """Raw values of one degree as float64 arrays, with their vanishing decisions."""

    re: np.ndarray
    im: np.ndarray
    magnitude: np.ndarray  # np.hypot(re, im), equal to abs() of the complex value
    vanishing: np.ndarray  # decided on the scaled values, see _decide


def _decide(re: np.ndarray, im: np.ndarray, norm_squared: float, tol: float,
            degree: int, k: int) -> CriterionValues:
    """Decide degree-d values v of the scaled state 2**-k * s, k =
    statevec._exponent, whose squared norm is norm_squared, and unscale
    them in place: re and im become the raw values.

    v vanishes when |v| <= vanishing_threshold(norm_squared, tol, d), so
    s and 2**j * s get bit-identical decisions; it is reported raw, as
    v * 2**(k*d), exact unless a part underflows.  Raises NormOverflow
    when a raw value is not a finite float.
    """
    magnitude = np.hypot(re, im)
    vanishing = magnitude <= vanishing_threshold(norm_squared, tol, degree)
    e = k * degree
    top = magnitude.max(initial=0.0)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ldexp(top, e)):  # ldexp is monotone: covers every part
            raise NormOverflow(f"raw value |v| = {top:.6g} * 2**{e} is too large for a float")
        for x in (re, im, magnitude):
            np.ldexp(x, e, out=x)
    return CriterionValues(re, im, magnitude, vanishing)


@dataclass(frozen=True)
class InvariantReport:
    """Parity-dependent invariant values plus tau and vanishing flags.

    For odd n, `iv_star` holds the lower half-block value IV*(a, n-1);
    the even-only and odd-only fields of the other parity are None.
    """

    n: int
    parity: str
    tau: float
    iv_star: complex
    iv_bar: complex | None
    iv_star_shifted: complex | None
    odd_invariant: complex | None
    vanishing: Mapping[str, bool]


def invariant_report(s: StateVector, tol: float = DEFAULT_TOL) -> InvariantReport:
    """Values of s and their vanishing flags, each decided and unscaled by
    _decide; tau = 2|IV*| (even n) or 4|odd invariant| (odd n) is unscaled
    with the value it is built from and shares its flag.
    """
    if s.n < 2:
        raise TooFewQubits(f"invariant_report needs n >= 2, got {s.n}")
    a = s.amplitudes
    k = _exponent(a)
    nsq = _norm_squared(a, k)

    def decide(degree: int, values: list) -> CriterionValues:
        v = np.array(values, dtype=np.complex128)
        return _decide(v.real, v.imag, nsq, tol, degree, k)

    if s.n % 2 == 0:
        star = _form(*a.reshape(2, -1), k)
        top = decide(2, [star, 2.0 * abs(star)])  # IV* and tau
        fields = {"iv_star": (top, 0)}
    else:
        bar, low, high, combo = _odd_parts(a, k)
        top = decide(4, [combo, 4.0 * abs(combo)])  # the odd invariant and tau
        halves = decide(2, [low, bar, high])
        fields = {"iv_star": (halves, 0), "iv_bar": (halves, 1),
                  "iv_star_shifted": (halves, 2), "odd_invariant": (top, 0)}
    values = dict.fromkeys(("iv_bar", "iv_star_shifted", "odd_invariant"))
    values.update((name, complex(rec.re[i], rec.im[i])) for name, (rec, i) in fields.items())
    flags = {name: bool(rec.vanishing[i]) for name, (rec, i) in fields.items()}
    flags["tau"] = bool(top.vanishing[0])
    return InvariantReport(n=s.n, parity="odd" if s.n % 2 else "even", tau=float(top.re[1]),
                           **values, vanishing=MappingProxyType(flags))
