"""SLOCC invariants and residual entanglement tau.

Every invariant is one signed bilinear form.  With the Thue-Morse signs
tm(j) = (-1)**popcount(j) and B(x, y) = sum_j tm(j) x_j y_{L-1-j}:

    even n:  IV*(a, n) = B(a, a) / 2,               tau = 2|IV*|
    odd n:   IVbar(a, n) = B(lo, hi),  IV*(lo) = B(lo, lo) / 2, ...
             odd invariant = IVbar**2 - 4 IV*(lo) IV*(hi),  tau = 4|...|

where lo and hi are the qubit-1 half-blocks, so the odd invariant is the
discriminant B(lo,hi)**2 - B(lo,lo) B(hi,hi) of a binary quadratic form
on qubit 1.  Under an invertible local-operator chain IV* picks up the
product of the 2x2 determinants (even n) and the odd invariant its
square; tau is therefore invariant under determinant-one chains.

One kernel, `_bracket_sum`, evaluates all of them.  It folds the terms
i and L/4-1-i of the one-bracket sum into one two-bracket term, so a
2**n-amplitude vector costs 2**(n-3) terms, streamed in fixed-size
slabs.  Every sum is compensated in fixed index order, so
cancellation-heavy states (W, single-qubit tensor factors) evaluate to
clean zeros and results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import NormOverflow, ParityError, TooFewQubits
from .signtab import sign_table
from .statevec import StateVector

DEFAULT_TOL = 1e-10   # vanishing threshold, scaled by the norm (see `vanishing`)

_FSUM_CUTOFF = 4096   # floats; below this math.fsum beats the lane path
_LANES = 1024         # even, so interleaved re/im floats never share a lane
_CHUNK = 1 << 18      # complex terms per slab (4 MiB); multiple of _LANES/2


class _CompensatedAccumulator:
    """Streaming Neumaier-compensated sum over complex term chunks.

    Chunks are viewed as interleaved re/im float64 and folded into a
    fixed number of compensated lanes; every chunk except the last must
    carry a multiple of _LANES/2 terms so real and imaginary parts keep
    their lanes.  Lane totals and compensations are combined exactly
    with math.fsum, so the result is deterministic for a fixed chunk
    sequence and immune to cancellation ordering.
    """

    def __init__(self):
        self._total = np.zeros(_LANES)
        self._comp = np.zeros(_LANES)

    def add(self, terms: np.ndarray) -> None:
        x = np.ascontiguousarray(terms, dtype=np.complex128).view(np.float64)
        pad = (-x.size) % _LANES
        if pad:
            x = np.concatenate([x, np.zeros(pad)])
        total, comp = self._total, self._comp
        for row in x.reshape(-1, _LANES):
            t = total + row
            comp += np.where(np.abs(total) >= np.abs(row),
                             (total - t) + row, (row - t) + total)
            total = t
        self._total = total

    def total(self) -> complex:
        re = math.fsum(self._total[0::2].tolist()) + math.fsum(self._comp[0::2].tolist())
        im = math.fsum(self._total[1::2].tolist()) + math.fsum(self._comp[1::2].tolist())
        return complex(re, im)


def _compensated_complex_sum(terms: np.ndarray) -> complex:
    """One-shot compensated sum; exact math.fsum for small inputs."""
    x = np.ascontiguousarray(terms, dtype=np.complex128).view(np.float64)
    if x.size <= _FSUM_CUTOFF:
        vals = x.tolist()
        return complex(math.fsum(vals[0::2]), math.fsum(vals[1::2]))
    acc = _CompensatedAccumulator()
    acc.add(terms)
    return acc.total()


def _bracket_sum(a: np.ndarray, sign: int) -> complex:
    """sum_i tm(i) * (outer_i + sign * inner_i) over the 2**max(n-3, 0) terms
    of a 2**n-amplitude vector.

    outer_i = a_{2i} a_{L-1-2i} - a_{2i+1} a_{L-2-2i} is the i-th one-bracket
    term; inner_i is the term L/4-1-i, its mirror about the middle, which a
    4-amplitude vector does not have.  sign is +1 for IV* and -1 for IVbar.
    """
    size = a.size
    half = size >> 1
    mirrored = size >> 3  # terms that have a mirror: all but the one of n=2
    m = (size >> 2) - mirrored
    e1, o1, e2, o2 = a[0::2], a[size - 1::-2], a[1::2], a[size - 2::-2]
    m1, m2 = a[half - 2::-2][:mirrored], a[half + 1::2][:mirrored]
    m3, m4 = a[half - 1::-2][:mirrored], a[half::2][:mirrored]
    signs = sign_table(size.bit_length() - 1)
    fold = np.add if sign > 0 else np.subtract
    step = m if 2 * m <= _FSUM_CUTOFF else min(m, _CHUNK)
    buf = np.empty((3, step), dtype=np.complex128)
    acc = _CompensatedAccumulator()
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        w, wi = hi - lo, min(hi, mirrored) - lo
        t = np.multiply(e1[lo:hi], o1[lo:hi], out=buf[0, :w])
        t -= np.multiply(e2[lo:hi], o2[lo:hi], out=buf[2, :w])
        inner = np.multiply(m1[lo:hi], m2[lo:hi], out=buf[1, :wi])
        inner -= np.multiply(m3[lo:hi], m4[lo:hi], out=buf[2, :wi])
        fold(t[:wi], inner, out=t[:wi])
        t *= signs[lo:hi]
        if step == m:  # the whole term array in one slab
            return _compensated_complex_sum(t)
        acc.add(t)
    return acc.total()


def _check_odd(s: StateVector, name: str) -> None:
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"{name} needs odd n >= 3, got {s.n}")


def iv_star(s: StateVector) -> complex:
    """The sign*-weighted one-bracket sum over the full vector; B(a, a)/2 for even n."""
    if s.n < 2:
        raise TooFewQubits(f"iv_star needs n >= 2, got {s.n}")
    return _bracket_sum(s.amplitudes, +1)


def iv_bar(s: StateVector) -> complex:
    """B(lo, hi): the odd-n bilinear sum (minus-bracket variant of IV*)."""
    _check_odd(s, "iv_bar")
    return _bracket_sum(s.amplitudes, -1)


def iv_star_lower(s: StateVector) -> complex:
    """IV* of the qubit-1 |0> half-block, viewed as an (n-1)-qubit vector."""
    _check_odd(s, "iv_star_lower")
    return _bracket_sum(s.amplitudes[: 1 << (s.n - 1)], +1)


def iv_star_shifted(s: StateVector) -> complex:
    """IV* of the qubit-1 |1> half-block (all subscripts raised by 2**(n-1))."""
    _check_odd(s, "iv_star_shifted")
    return _bracket_sum(s.amplitudes[1 << (s.n - 1):], +1)


def odd_invariant(s: StateVector) -> complex:
    """IVbar**2 - 4 * IV*(lower) * IV*(upper) for odd n >= 3."""
    _check_odd(s, "odd_invariant")
    bar = iv_bar(s)
    half = 1 << (s.n - 1)
    low = _bracket_sum(s.amplitudes[:half], +1)
    high = _bracket_sum(s.amplitudes[half:], +1)
    return bar * bar - 4.0 * low * high


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
    """tol * max(1, |s|^2)**(degree/2), the bound of the norm-scaled zero test.

    Raises NormOverflow when the bound is not a finite float: |s|^2 is
    itself inf, or max(1, |s|^2)**(degree/2) overflows.
    """
    try:
        threshold = tol * max(1.0, norm_squared) ** (degree / 2)
    except OverflowError:
        threshold = math.inf
    if not math.isfinite(threshold):
        raise NormOverflow(f"|s|^2 = {norm_squared:.6g} is too large for a finite "
                           f"degree-{degree} vanishing threshold")
    return threshold


def vanishing(value: complex, norm_squared: float,
              tol: float = DEFAULT_TOL, degree: int = 2) -> bool:
    """Norm-scaled zero test: |value| <= tol * max(1, |s|^2)**(degree/2)."""
    return abs(value) <= vanishing_threshold(norm_squared, tol, degree)


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
    if s.n < 2:
        raise TooFewQubits(f"invariant_report needs n >= 2, got {s.n}")
    nsq = s.norm_squared()
    threshold = vanishing_threshold(nsq, tol)
    if s.n % 2 == 0:
        star = iv_star(s)
        flags = {"iv_star": abs(star) <= threshold, "tau": abs(star) <= threshold}
        return InvariantReport(n=s.n, parity="even", tau=2.0 * abs(star),
                               iv_star=star, iv_bar=None, iv_star_shifted=None,
                               odd_invariant=None, vanishing=MappingProxyType(flags))
    threshold4 = vanishing_threshold(nsq, tol, 4)
    bar = iv_bar(s)
    low = iv_star_lower(s)
    high = iv_star_shifted(s)
    combo = bar * bar - 4.0 * low * high
    flags = {
        "iv_star": abs(low) <= threshold,
        "iv_bar": abs(bar) <= threshold,
        "iv_star_shifted": abs(high) <= threshold,
        "odd_invariant": abs(combo) <= threshold4,
        "tau": abs(combo) <= threshold4,
    }
    return InvariantReport(n=s.n, parity="odd", tau=4.0 * abs(combo),
                           iv_star=low, iv_bar=bar, iv_star_shifted=high,
                           odd_invariant=combo, vanishing=MappingProxyType(flags))


def _complex_pair(z: complex | None):
    return None if z is None else [z.real, z.imag]


def report_json_dict(report: InvariantReport) -> dict:
    """JSON-friendly rendering with complex values as [re, im] pairs."""
    return {
        "n": report.n,
        "parity": report.parity,
        "tau": report.tau,
        "iv_star": _complex_pair(report.iv_star),
        "iv_bar": _complex_pair(report.iv_bar),
        "iv_star_shifted": _complex_pair(report.iv_star_shifted),
        "odd_invariant": _complex_pair(report.odd_invariant),
        "vanishing": dict(report.vanishing),
    }
