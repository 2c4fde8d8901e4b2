"""Invertible local-operator chains and the determinant transform laws.

A chain A_1 x ... x A_n is one read-only (n, 2, 2) complex128 array, and
the laws see it only through those matrices and their determinants, dets.
apply_chain sweeps the n 2x2 operators over the amplitude vector in
O(n * 2**n) time: the leading qubits four at a time as 16x16 Kronecker
blocks, the last six or fewer as one row GEMM.  Its extra memory is the
one output vector plus a 512 KiB slab; the full 2**n x 2**n matrix is
never formed.  verify_theorem1 and verify_theorem2 are randomized
harnesses for the transform laws

    theorem 1 (even n):  IV*(a, n) = IV*(b, n) * prod(det)
    theorem 2 (odd n):   odd_invariant(a) = odd_invariant(b) * prod(det)**2

where a = chain(b).  Each trial folds its own draw b into a in place
through the same passes, so a trial holds one amplitude vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import LengthMismatch, NormOverflow, ParityError, ParseError
from .invariant import iv_star, odd_invariant
from .statevec import StateVector, _complex_pairs, _random_amplitudes, _wrap

INVERTIBLE_TOL = 1e-12     # |det| above this counts as invertible
_MIN_RANDOM_DET = 0.1      # random operators below this are redrawn

_REL_ERR_FLOOR = 1e-14     # |reference| below this switches to the absolute check
_ABS_PASS = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_IDENTITY = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class LocalOperatorChain:
    """A read-only (n, 2, 2) complex128 array; ops[k] acts on qubit k+1 (qubit 1 = MSB)."""

    ops: np.ndarray

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def dets(self) -> np.ndarray:
        """Each m00*m11 - m01*m10 in scalar arithmetic (array loops may use FMA)."""
        return np.array([m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in self.ops],
                        dtype=np.complex128)


def chain_of(matrices) -> LocalOperatorChain:
    """Copy a (k, 2, 2) array-like into a chain; any other shape raises LengthMismatch."""
    try:
        ops = np.array(matrices, dtype=np.complex128)
    except ValueError:  # ragged nesting
        raise LengthMismatch("a chain needs (k, 2, 2) operators, got a ragged nesting") from None
    if ops.shape[1:] != (2, 2):
        raise LengthMismatch(f"a chain needs (k, 2, 2) operators, got shape {ops.shape}")
    if not np.all(np.isfinite(ops)):
        raise NormOverflow("operator entries must be finite (no NaN/Inf)")
    ops.setflags(write=False)
    return LocalOperatorChain(ops=ops)


def identity_chain(n: int) -> LocalOperatorChain:
    return chain_of([_IDENTITY] * n)


def sigma_x_chain(n: int) -> LocalOperatorChain:
    return chain_of([SIGMA_X] * n)


def det_product(chain: LocalOperatorChain) -> complex:
    prod = complex(1.0)
    for det in chain.dets.tolist():
        prod *= det
    return prod


_GROUP = 4                  # leading qubits folded per pass: one 16x16 block
_TAIL = 6                   # trailing qubits up to this many fold into one row GEMM
_SCRATCH_COMPLEX = 1 << 15  # 512 KiB slab keeps the in-place working set in L2;
                            # at least 2**_TAIL, so one row of any pass fits


def _mix(src: np.ndarray, dst: np.ndarray, op: np.ndarray, block: int,
         scratch: np.ndarray) -> None:
    """Axis mix of the (-1, dim, block) view of src into the same view of dst.

    Each piece of src is copied into the contiguous slab and the matmul
    writes it to the same location of dst, so src may be dst and only
    the slab is extra memory.
    """
    dim = op.shape[0]
    if block == 1:  # trailing qubits: rows of dim amplitudes, one GEMM per slab
        rows, out = src.reshape(-1, dim), dst.reshape(-1, dim)
        step = _SCRATCH_COMPLEX // dim
        for a in range(0, rows.shape[0], step):
            piece = rows[a:a + step]
            slab = scratch[:piece.size].reshape(piece.shape)
            slab[...] = piece
            np.matmul(slab, op.T, out=out[a:a + step])
        return
    view, out = src.reshape(-1, dim, block), dst.reshape(-1, dim, block)
    width = min(block, _SCRATCH_COMPLEX // dim)  # block-axis chunk
    step = _SCRATCH_COMPLEX // (dim * width)     # rows per chunk
    for c in range(0, block, width):
        for a in range(0, len(view), step):
            piece = view[a:a + step, :, c:c + width]
            slab = scratch[:piece.size].reshape(piece.shape)
            slab[...] = piece
            np.matmul(op, slab, out=out[a:a + step, :, c:c + width])


def _fold(chain: LocalOperatorChain, src: np.ndarray, dst: np.ndarray) -> None:
    """Write chain(src) to dst pass by pass; src may be dst (an in-place fold).

    The first pass reads src and every later pass reads dst, so src is
    never written unless it is dst.
    """
    n = len(chain)
    scratch = np.empty(min(_SCRATCH_COMPLEX, dst.size), dtype=np.complex128)
    k = 0
    while k < n:
        width = n - k if n - k <= _TAIL else _GROUP
        _mix(src if k == 0 else dst, dst, reduce(np.kron, chain.ops[k:k + width]),
             block=1 << (n - k - width), scratch=scratch)
        k += width


def _check_length(chain: LocalOperatorChain, n: int) -> None:
    if len(chain) != n:
        raise LengthMismatch(f"chain has {len(chain)} operators for n={n}")


def apply_chain(chain: LocalOperatorChain, s: StateVector) -> StateVector:
    """Apply the n-fold tensor product of the chain's operators to s.

    Operators are folded in qubit order.  Each pass over the leading
    qubits applies the Kronecker product of four operators (a 16x16
    block); once at most six qubits remain they are folded together as
    one GEMM over rows of up to 64 amplitudes.  Every pass goes through
    a small slab into the one output vector: the first reads s, the
    later ones update the output in place, so peak extra memory is one
    amplitude vector plus the slab.  The input state is never written.
    """
    _check_length(chain, s.n)
    buf = np.empty_like(s.amplitudes)
    _fold(chain, s.amplitudes, buf)
    return _wrap(s.n, buf)


def _random_ops(rng: np.random.Generator, n: int, unit_det: bool) -> LocalOperatorChain:
    ops = []
    while len(ops) < n:
        m = rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) >= _MIN_RANDOM_DET:
            ops.append(m / cmath.sqrt(det) if unit_det else m)  # any branch: only det enters
    return chain_of(ops)


def random_chain(n: int, seed: int, unit_det: bool = False) -> LocalOperatorChain:
    """Seed-deterministic chain with re/im entries uniform in [-1, 1].

    Operators with |det| < 0.1 are redrawn; with unit_det each operator
    is divided by a square root of its determinant.
    """
    return _random_ops(np.random.default_rng(seed), n, unit_det)


def _transform_error(lhs: complex, rhs: complex) -> float:
    """Relative error with an absolute-agreement fallback near zero."""
    if abs(lhs) < _REL_ERR_FLOOR:
        return 0.0 if abs(rhs) < _ABS_PASS else math.inf
    return abs(lhs - rhs) / abs(lhs)


def _trial(n: int, seed: int) -> float:
    """One seeded trial of n's law, iv_star with prod(det) (even n) or odd_invariant
    with prod(det)**2 (odd n), both looked up at call time.  The draw and then the
    chain come from one substream; the draw is folded in place and read through
    read-only views, so the trial holds a single amplitude vector."""
    value, det_power = (odd_invariant, 2) if n % 2 else (iv_star, 1)
    rng = np.random.default_rng(seed)
    x = _random_amplitudes(rng, n)
    chain = _random_ops(rng, n, unit_det=False)
    before = value(_wrap(n, x.view()))
    _fold(chain, x, x)
    after = value(_wrap(n, x.view()))
    return _transform_error(after, before * det_product(chain) ** det_power)


def _verify(n: int, trials: int, seed: int) -> float:
    """The largest error of n's law over the trials of seeds seed, seed + 1, ..."""
    worst = 0.0
    for trial in range(trials):  # nothing of one trial is alive during the next
        worst = max(worst, _trial(n, seed + trial))
    return worst


def verify_theorem1(n: int, trials: int, seed: int) -> float:
    """Max relative error of IV*(chain(b)) = IV*(b) * prod(det) over seeded trials."""
    if n < 2 or n % 2:
        raise ParityError(f"theorem 1 needs even n >= 2, got {n}")
    return _verify(n, trials, seed)


def verify_theorem2(n: int, trials: int, seed: int) -> float:
    """Max relative error of the odd-invariant law with prod(det)**2."""
    if n < 3 or n % 2 == 0:
        raise ParityError(f"theorem 2 needs odd n >= 3, got {n}")
    return _verify(n, trials, seed)


def ops_json_dict(chain: LocalOperatorChain) -> dict:
    """{"ops": [[[re,im] x4], ...]} row-major per 2x2 operator."""
    return {"ops": chain.ops.view(np.float64).reshape(-1, 4, 2).tolist()}


def ops_from_json_dict(doc) -> LocalOperatorChain:
    """Validate {"ops": [[[re,im] x4], ...]}; entries are checked as in state files."""
    if not isinstance(doc, dict) or not isinstance(doc.get("ops"), list):
        raise ParseError('operator JSON must be {"ops": [[[re,im], ...x4], ...]}')
    if not all(isinstance(op, list) and len(op) == 4 for op in doc["ops"]):
        raise ParseError("each operator needs exactly four [re, im] entries")
    entries = [pair for op in doc["ops"] for pair in op]
    return chain_of(_complex_pairs(entries, "operator").reshape(-1, 2, 2))
