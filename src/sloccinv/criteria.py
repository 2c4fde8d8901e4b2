"""Degree-4 D- and F-criteria families supporting SLOCC classification.

The D-criteria pair each 8-amplitude block from the front of the vector
with its mirror block from the back; there are 2**(n-4) blocks of three
values each.

The F-criteria are indexed by four basis-index pairs sharing one sum
and one XOR: i<j, k<l, p<q, r<s, i<k<p<r, i+j=k+l=p+q=r+s and
i^j = k^l = p^q = r^s.  The evaluated expression shifts half the
subscripts by d = 1 (odd sums) or 2 (even sums), never out of [0, 2**n - 1]:
equal sums give j > l > q > s, so q >= 1 and l <= 2**n - 2, and an even sum
has an even XOR, so the partners share bit 0 and q >= 2, l <= 2**n - 3.
The pair count per (sum, xor) class is a power of two, so the tuple count
grows roughly like 2**(4n).  The CLI refuses F work that `_f_count`, the
exact row count, puts above its memory budget (every n >= 8); at n = 7
it evaluates F only when `--set f|all` asks for it.

Array form.  Results exist only as arrays: `criteria_signature` holds
the D and F values as float64 (re, im) arrays with their magnitudes and
vanishing masks.  A pair u < v is fixed by its class (A, X) =
(u & v, u ^ v) and a split of X's bits, so `f_enumerate` writes the F
tuples class by class into one array of exactly `_f_count(n)` rows,
sorts it stably on (i+j, i) and caches it read-only.
Both families are evaluated in row blocks, each written into two
preallocated arrays: D in blocks of _D_BLOCK rows of the (blocks, 8)
views of the front half and the mirrored back half, F in blocks of
_F_BLOCK rows with one gather per distinct subscript column.  D scales
a block's amplitudes by 2**-k, exactly, as they are read; F scales the
state's parts once per block, a copy of 2 * 2**n floats (at most
2 * 2**8 wherever its tuples fit in memory).
Every complex operation is spelled out on float64 real and imaginary
arrays exactly as numpy's scalar complex arithmetic rounds it: products
without fused multiply-add, `z ** 2` as z * z except that an exact zero
squares to +0, and `4 * z` as a product with 4+0j.  Each value
therefore equals the scalar formula of `f_evaluate` and the literal D
transcription bit for bit, signed zeros included.  Both families are
decided and unscaled by `invariant._decide`, as the invariants are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import IndexOutOfRange, TooFewQubits
from .invariant import DEFAULT_TOL, CriterionValues, _decide
from .statevec import StateVector, _exponent, _norm_squared


# Complex arithmetic on (re, im) pairs of float64 arrays, rounded op for
# op as numpy's scalar complex128 arithmetic rounds it.

def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _square(x):
    """z ** 2: numpy's power returns +0 for an exact zero base, z * z otherwise."""
    re, im = _mul(x, x)
    zero = (x[0] == 0) & (x[1] == 0)
    return np.where(zero, 0.0, re), np.where(zero, 0.0, im)


# D_k = P(lo) Q(hi) - Q(lo) P(hi), with P, Q the 2x2 minors
# b[w] b[x] - b[y] b[z] of an 8-amplitude block b, given as (w, x, y, z).
_D_MINORS = (((1, 4, 0, 5), (3, 6, 2, 7)),
             ((4, 7, 5, 6), (0, 3, 1, 2)),
             ((3, 5, 1, 7), (2, 4, 0, 6)))


def _d_values(amplitudes: np.ndarray, lo: int = 0, hi: int | None = None,
              exponent: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of shape (hi - lo, 3): row i - lo holds D1..D3 of block i
    of 2**-exponent * amplitudes, for rows [lo, hi) of amplitudes.size // 16 (all by default)."""
    if amplitudes.size < 16:
        raise TooFewQubits(f"D-criteria need n >= 4, got {amplitudes.size.bit_length() - 1}")
    blocks = amplitudes.reshape(-1, 8)
    hi = len(blocks) // 2 if hi is None else hi
    front, back = blocks[lo:hi], blocks[::-1][lo:hi]  # back[i-lo] = a[2^n-8i-8 : 2^n-8i]
    if exponent:  # scale the block's rows, exactly
        front, back = (np.ldexp(b.view(np.float64), -exponent).view(np.complex128)
                       for b in (front, back))

    def minor(b, w, x, y, z):
        re, im = b.real, b.imag
        return _sub(_mul((re[:, w], im[:, w]), (re[:, x], im[:, x])),
                    _mul((re[:, y], im[:, y]), (re[:, z], im[:, z])))

    values = [_sub(_mul(minor(front, *p), minor(back, *q)),
                   _mul(minor(front, *q), minor(back, *p))) for p, q in _D_MINORS]
    return (np.stack([re for re, _ in values], axis=1),
            np.stack([im for _, im in values], axis=1))


def _submasks(mask: int, size: int) -> np.ndarray:
    """Every v in [0, size) with v & ~mask == 0, ascending."""
    v = np.arange(size)
    return v[(v & ~mask) == 0]


@lru_cache(maxsize=None)
def f_enumerate(n: int) -> np.ndarray:
    """All subscript tuples as one cached, read-only (_f_count(n), 8) int64
    array, a row (i, j, k, l, p, q, r, s) each, ordered by (i+j, i, k, p, r).

    The class (A, X) = (u & v, u ^ v) has sum 2A + X and XOR X; its pairs
    are u = A | S, v = u ^ X for the subsets S of X without X's top bit,
    2**(popcount(X) - 1) of them in ascending u.  Classes with fewer than
    four pairs give no tuple.  A class is written in (i, k, p, r) order and
    (i+j, i) fixes the class, so a stable sort on (i+j, i) orders the rows.
    """
    if n < 3:
        raise TooFewQubits(f"F-criteria need n >= 3, got {n}")
    size = 1 << n
    t = np.empty((_f_count(n), 8), dtype=np.int64)
    row = 0
    for x in range(size):
        if bin(x).count("1") < 3:
            continue
        splits = _submasks(x ^ (1 << (x.bit_length() - 1)), size).tolist()
        quads = np.fromiter(chain.from_iterable(combinations(splits, 4)), np.int64,
                            count=4 * comb(len(splits), 4)).reshape(-1, 4)
        for a in _submasks(~x & (size - 1), size).tolist():
            block = t[row:row + len(quads)]  # too few rows fail to broadcast
            np.bitwise_or(quads, a, out=block[:, 0::2])
            np.bitwise_xor(block[:, 0::2], x, out=block[:, 1::2])
            row += len(quads)
    if row != len(t):
        raise RuntimeError(f"F enumeration at n={n} wrote {row} of {len(t)} rows")
    order = np.lexsort((t[:, 0], t[:, 0] + t[:, 1]))
    for col in range(8):
        t[:, col] = t[order, col]
    t.setflags(write=False)
    return t


def _f_count(n: int) -> int:
    """The number of rows of f_enumerate(n), in O(n) arithmetic.

    The 2**(n - p) classes of each XOR x of popcount p have 2**(p - 1)
    pairs each, so sum over p of C(n, p) * 2**(n - p) * C(2**(p - 1), 4).
    """
    return sum(comb(n, p) * 2 ** (n - p) * comb(2 ** (p - 1), 4) for p in range(1, n + 1))


def f_evaluate(s: StateVector, t) -> complex:
    """The literal F expression at the 8 subscripts t = (i, j, k, l, p, q, r, s),
    dispatched on the parity of i+j: the scalar reference that the F arrays
    of criteria_signature equal bit for bit.
    """
    size = 1 << s.n
    if not all(0 <= idx < size for idx in t):
        raise IndexOutOfRange(f"{t} has subscripts outside [0, {size})")
    a = s.amplitudes
    i, j, k, l, p, q, r, s = t
    d = 1 if (i + j) % 2 else 2
    if not (j - d >= 0 and q - d >= 0 and l + d < size and s + d < size):
        raise IndexOutOfRange(f"{t} has shifted subscripts outside [0, {size})")
    head = (a[i] * a[j] + a[k] * a[l] - a[p] * a[q] - a[r] * a[s]) ** 2
    tail = 4 * (a[i] * a[j - d] - a[p] * a[q - d]) * (a[k] * a[l + d] - a[r] * a[s + d])
    return complex(head - tail)


def _f_values(amplitudes: np.ndarray, tuples: np.ndarray,
              exponent: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of f_evaluate at every row of `tuples` on 2**-exponent * amplitudes,
    bit for bit; the parts are scaled once, exactly, and each of the 12 distinct
    columns, the 8 subscripts and the 4 shifted ones, is gathered once."""
    re, im = np.ldexp(amplitudes.real, -exponent), np.ldexp(amplitudes.imag, -exponent)

    def amp(idx):
        return re[idx], im[idx]

    i, j, k, l, p, q, r, s = tuples.T
    d = 2 - (i + j) % 2
    ai, ak, ap, ar = amp(i), amp(k), amp(p), amp(r)  # the columns used twice
    head = _sub(_sub(_add(_mul(ai, amp(j)), _mul(ak, amp(l))), _mul(ap, amp(q))), _mul(ar, amp(s)))
    left = _sub(_mul(ai, amp(j - d)), _mul(ap, amp(q - d)))
    right = _sub(_mul(ak, amp(l + d)), _mul(ar, amp(s + d)))
    return _sub(_square(head), _mul(_mul((4.0, 0.0), left), right))


_F_SIGNATURE_MAX_N = 6  # tuple counts explode past this; override explicitly
_F_BLOCK = 1 << 14  # tuple rows per _f_values call: its temporaries stay block-sized
_D_BLOCK = 1 << 10  # D rows per _d_values call, 256 KiB of scaled blocks; splits n=18's 2**14


@dataclass(frozen=True, eq=False)
class CriteriaSignature:
    """All D and F values for one state plus their vanishing pattern.

    `d` holds (2**(n-4), 3) arrays whose row i is D1..D3 of block i; `f`
    holds one entry per row of `f_tuples`, which is f_enumerate(n) itself
    when F is included.
    """

    n: int
    tol: float
    d: CriterionValues
    f_tuples: np.ndarray
    f: CriterionValues
    f_included: bool


def _in_blocks(shape: tuple, block: int, values) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) float64 arrays of the given shape, filled `block` rows at a time
    from values(lo, hi), the (re, im) of rows [lo, hi)."""
    re, im = np.empty(shape), np.empty(shape)
    for lo in range(0, shape[0], block):
        hi = min(lo + block, shape[0])
        re[lo:hi], im[lo:hi] = values(lo, hi)
    return re, im


def criteria_signature(s: StateVector, tol: float = DEFAULT_TOL,
                       include_f: bool | None = None) -> CriteriaSignature:
    """Evaluate every criterion, a degree-4 value each, decided on the exactly
    scaled 2**-k * s and reported raw by invariant._decide.

    include_f defaults to n <= 6 (the F family grows combinatorially).
    """
    a = s.amplitudes
    k = _exponent(a)
    nsq = _norm_squared(a, k)
    d_rows = 1 << (s.n - 4) if s.n >= 4 else 0
    d = _decide(*_in_blocks((d_rows, 3), _D_BLOCK, lambda lo, hi: _d_values(a, lo, hi, k)),
                nsq, tol, 4, k)
    if include_f is None:
        include_f = s.n <= _F_SIGNATURE_MAX_N
    f_included = bool(include_f and s.n >= 3)
    tuples = f_enumerate(s.n) if f_included else np.empty((0, 8), dtype=np.int64)
    f = _decide(*_in_blocks((len(tuples),), _F_BLOCK,
                            lambda lo, hi: _f_values(a, tuples[lo:hi], k)), nsq, tol, 4, k)
    return CriteriaSignature(n=s.n, tol=tol, d=d, f_tuples=tuples, f=f,
                             f_included=f_included)


def achieved_pair_sums(n: int) -> list[int]:
    """Sorted set of sums i+j realized by at least one admissible tuple."""
    t = f_enumerate(n)
    return np.unique(t[:, 0] + t[:, 1]).tolist()
