"""SLOCC invariants and residual entanglement tau.

Even n uses the 2**(n-2)-term bilinear sum IV*(a, n); tau = 2|IV*|.
Odd n uses the half-block combination

    IVbar(a, n)**2 - 4 * IV*(lower half, n-1) * IV*(upper half, n-1)

and tau = 4|combination|.  Under an invertible local-operator chain,
IV* picks up the product of the 2x2 determinants (even n) and the odd
combination picks up its square; tau is therefore invariant under
determinant-one chains of either parity.

Every sum is accumulated with compensated summation in fixed index
order, so cancellation-heavy states (W, single-qubit tensor factors)
evaluate to clean zeros and results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import NormOverflow, ParityError, TooFewQubits
from .signtab import sign_star_table, sign_table
from .statevec import StateVector

DEFAULT_TOL = 1e-10   # vanishing threshold, scaled by the norm (see `vanishing`)

_FSUM_CUTOFF = 4096   # floats; below this math.fsum beats the lane path
_LANES = 1024         # even, so interleaved re/im floats never share a lane
_CHUNK = 1 << 19      # complex terms per slab (8 MiB); multiple of _LANES/2


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


def _iv_star_of(a: np.ndarray, n: int) -> complex:
    """IV*(a, n) = sum_i sign*(n,i) (a_{2i} a_{N-1-2i} - a_{2i+1} a_{N-2-2i})."""
    half = 1 << (n - 1)
    m = 1 << (n - 2)
    e1 = a[0:half:2]
    o1 = a[2 * half - 1: half - 1: -2]
    e2 = a[1:half:2]
    o2 = a[2 * half - 2: half - 2: -2]
    signs = sign_star_table(n)
    if m <= _CHUNK:
        terms = e1 * o1
        terms -= e2 * o2
        terms *= signs
        return _compensated_complex_sum(terms)
    # large n: stream fixed-size slabs so no term array is ever materialized
    acc = _CompensatedAccumulator()
    buf = np.empty(_CHUNK, dtype=np.complex128)
    buf2 = np.empty(_CHUNK, dtype=np.complex128)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        w = hi - lo
        t = np.multiply(e1[lo:hi], o1[lo:hi], out=buf[:w])
        np.multiply(e2[lo:hi], o2[lo:hi], out=buf2[:w])
        t -= buf2[:w]
        t *= signs[lo:hi]
        acc.add(t)
    return acc.total()


def _two_bracket_sum(a: np.ndarray, n: int, second_sign: int) -> complex:
    """Signed sum of the 2**(n-3) two-bracket terms shared by the even IV
    and the odd IVbar.

    Bracket one pairs the outermost antipodal indices, bracket two the
    innermost; `second_sign` is +1 for even n and -1 for odd n.
    """
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    m = 1 << (n - 3)
    e1 = a[0:quarter:2]
    o1 = a[2 * half - 1: 2 * half - 1 - 2 * m: -2]
    e2 = a[1:quarter:2]
    o2 = a[2 * half - 2: 2 * half - 2 - 2 * m: -2]
    m1 = a[half - 2: quarter - 2: -2]
    m2 = a[half + 1: half + 1 + 2 * m: 2]
    m3 = a[half - 1: quarter - 1: -2]
    m4 = a[half: half + 2 * m: 2]
    signs = sign_table(n)
    if m <= _CHUNK:
        terms = e1 * o1
        terms -= e2 * o2
        inner = m1 * m2
        inner -= m3 * m4
        if second_sign > 0:
            terms += inner
        else:
            terms -= inner
        terms *= signs
        return _compensated_complex_sum(terms)
    acc = _CompensatedAccumulator()
    buf = np.empty(_CHUNK, dtype=np.complex128)
    buf2 = np.empty(_CHUNK, dtype=np.complex128)
    buf3 = np.empty(_CHUNK, dtype=np.complex128)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        w = hi - lo
        t = np.multiply(e1[lo:hi], o1[lo:hi], out=buf[:w])
        np.multiply(e2[lo:hi], o2[lo:hi], out=buf3[:w])
        t -= buf3[:w]
        inner = np.multiply(m1[lo:hi], m2[lo:hi], out=buf2[:w])
        np.multiply(m3[lo:hi], m4[lo:hi], out=buf3[:w])
        inner -= buf3[:w]
        if second_sign > 0:
            t += inner
        else:
            t -= inner
        t *= signs[lo:hi]
        acc.add(t)
    return acc.total()


def iv_star(s: StateVector) -> complex:
    """The parity-agnostic invariant sum over the full amplitude vector."""
    if s.n < 2:
        raise TooFewQubits(f"iv_star needs n >= 2, got {s.n}")
    return _iv_star_of(s.amplitudes, s.n)


def iv_even(s: StateVector) -> complex:
    """The two-bracket even-n form; equals iv_star for even n >= 4."""
    if s.n < 4 or s.n % 2:
        raise ParityError(f"iv_even needs even n >= 4, got {s.n}")
    return _two_bracket_sum(s.amplitudes, s.n, +1)


def iv_bar(s: StateVector) -> complex:
    """The odd-n bilinear sum (minus-bracket variant of the even form)."""
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"iv_bar needs odd n >= 3, got {s.n}")
    return _two_bracket_sum(s.amplitudes, s.n, -1)


def iv_star_lower(s: StateVector) -> complex:
    """IV* of the qubit-1 |0> half-block, viewed as an (n-1)-qubit vector."""
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"iv_star_lower needs odd n >= 3, got {s.n}")
    return _iv_star_of(s.amplitudes[: 1 << (s.n - 1)], s.n - 1)


def iv_star_shifted(s: StateVector) -> complex:
    """IV* of the qubit-1 |1> half-block (all subscripts raised by 2**(n-1))."""
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"iv_star_shifted needs odd n >= 3, got {s.n}")
    return _iv_star_of(s.amplitudes[1 << (s.n - 1):], s.n - 1)


def odd_invariant(s: StateVector) -> complex:
    """IVbar**2 - 4 * IV*(lower) * IV*(upper) for odd n >= 3."""
    if s.n < 3 or s.n % 2 == 0:
        raise ParityError(f"odd_invariant needs odd n >= 3, got {s.n}")
    bar = iv_bar(s)
    half = 1 << (s.n - 1)
    low = _iv_star_of(s.amplitudes[:half], s.n - 1)
    high = _iv_star_of(s.amplitudes[half:], s.n - 1)
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

    Raises NormOverflow when max(1, |s|^2)**(degree/2) overflows a float.
    """
    try:
        return tol * max(1.0, norm_squared) ** (degree / 2)
    except OverflowError:
        raise NormOverflow(f"|s|^2 = {norm_squared:.6g} is too large for a finite "
                           f"degree-{degree} vanishing threshold") from None


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
    if s.n % 2 == 0:
        star = iv_star(s)
        flags = {
            "iv_star": vanishing(star, nsq, tol),
            "tau": vanishing(star, nsq, tol),
        }
        return InvariantReport(n=s.n, parity="even", tau=2.0 * abs(star),
                               iv_star=star, iv_bar=None, iv_star_shifted=None,
                               odd_invariant=None, vanishing=MappingProxyType(flags))
    bar = iv_bar(s)
    low = iv_star_lower(s)
    high = iv_star_shifted(s)
    combo = bar * bar - 4.0 * low * high
    flags = {
        "iv_star": vanishing(low, nsq, tol),
        "iv_bar": vanishing(bar, nsq, tol),
        "iv_star_shifted": vanishing(high, nsq, tol),
        "odd_invariant": vanishing(combo, nsq, tol, degree=4),
        "tau": vanishing(combo, nsq, tol, degree=4),
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
