"""n-qubit pure-state amplitude vectors: construction, algebra, JSON I/O.

Basis label i is read with qubit 1 at the most significant bit, so the
index ranges [0, 2**(n-1)) and [2**(n-1), 2**n) are the qubit-1 |0> and
|1> half-blocks.  States are immutable; unnormalized amplitude vectors
are accepted everywhere and the invariants are evaluated on the raw
amplitudes (see README for the resulting scaling laws).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import AllZero, LengthMismatch, NormOverflow, ParseError, TooFewQubits

NORM_TOL = 1e-12      # |<s|s> - 1| below this marks the state normalized
_RESCALE_TOL = 1e-15  # normalize() returns its input unchanged this close to 1

_CLUSTER_SUPPORT = (3, 5, 6, 9, 10, 12)
_DRAW_SLAB = 1 << 16  # floats per rng.random call of _random_amplitudes (512 KiB)


@dataclass(frozen=True)
class StateVector:
    """Immutable n-qubit amplitude vector (length 2**n, complex128)."""

    n: int
    amplitudes: np.ndarray
    normalized: bool

    def norm_squared(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


def _wrap(n: int, amplitudes: np.ndarray) -> StateVector:
    """Wrap a trusted, correctly sized array without copying."""
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    amps.setflags(write=False)
    norm_sq = float(np.real(np.vdot(amps, amps)))
    return StateVector(n=n, amplitudes=amps, normalized=abs(norm_sq - 1.0) <= NORM_TOL)


def new_state(n: int, amplitudes) -> StateVector:
    """Build a state from raw amplitudes; the normalized flag is measured, not forced."""
    if n < 1:
        raise TooFewQubits(f"need n >= 1, got {n}")
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size != 1 << n:
        raise LengthMismatch(f"expected {1 << n} amplitudes for n={n}, got {amps.size}")
    if not np.any(amps):
        raise AllZero("state vector has no nonzero amplitude")
    return _wrap(n, amps)


def normalize(s: StateVector) -> StateVector:
    """Rescale to unit norm. A no-op (same object) when already within 1e-15 of 1."""
    peak = float(np.max(np.abs(s.amplitudes)))
    if peak == 0.0:
        raise AllZero("cannot normalize the zero vector")
    k = math.frexp(peak)[1]  # the norm of the exact 2**-k * s neither overflows nor underflows
    scaled = np.ldexp(s.amplitudes.view(np.float64), -k).view(np.complex128)
    nrm = math.sqrt(float(np.real(np.vdot(scaled, scaled))))
    if abs(math.ldexp(nrm, k) - 1.0) <= _RESCALE_TOL:
        return s
    return _wrap(s.n, scaled / nrm)


def ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 1:
        raise TooFewQubits(f"need n >= 1, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = math.sqrt(0.5)
    return _wrap(n, amps)


def w_state(n: int) -> StateVector:
    """Equal superposition of the n single-excitation basis states."""
    if n < 2:
        raise TooFewQubits(f"need n >= 2, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << k for k in range(n)]] = 1.0 / math.sqrt(n)
    return _wrap(n, amps)


def cluster_c() -> StateVector:
    """The 4-qubit cluster state (|3>+|5>+|6>+|9>+|10>+|12>)/sqrt(6)."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[list(_CLUSTER_SUPPORT)] = 1.0 / math.sqrt(6)
    return _wrap(4, amps)


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product; s1's qubits become the most significant ones."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN products: save_state refuses
        return _wrap(s1.n + s2.n, np.kron(s1.amplitudes, s2.amplitudes))


def complement(s: StateVector) -> StateVector:
    """Move the amplitude at index i to the bit-complement index (2**n-1) ^ i."""
    return _wrap(s.n, s.amplitudes[::-1].copy())


def _random_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm amplitudes with re/im parts drawn uniformly from [-1, 1].

    The bits and the generator's state afterwards equal those of
    (rng.uniform(-1, 1, 2**n) + 1j * rng.uniform(-1, 1, 2**n)) / norm:
    uniform(-1, 1) is -1 + 2r with one rounding (2r is exact), and numpy
    divides a complex by a real as x * (1/norm) per component.  Drawing
    through one reused slab keeps every temporary in cache.
    """
    amps = np.empty(1 << n, dtype=np.complex128)
    slab = np.empty(min(_DRAW_SLAB, amps.size))
    for part in (amps.real, amps.imag):
        for lo in range(0, part.size, slab.size):
            rng.random(out=slab)
            slab *= 2.0
            np.subtract(slab, 1.0, out=part[lo:lo + slab.size])
    amps.view(np.float64)[...] *= 1.0 / np.linalg.norm(amps)
    return amps


def random_state(n: int, seed: int) -> StateVector:
    """Seed-deterministic random normalized state."""
    if n < 1:
        raise TooFewQubits(f"need n >= 1, got {n}")
    return _wrap(n, _random_amplitudes(np.random.default_rng(seed), n))


def to_json_dict(s: StateVector) -> dict:
    """{"n": ..., "amplitudes": [[re, im], ...]} with exactly 2**n entries."""
    pairs = np.column_stack([s.amplitudes.real, s.amplitudes.imag]).tolist()
    return {"n": s.n, "amplitudes": pairs}


def _reject_constant(token: str):
    raise ParseError(f"non-finite JSON token {token!r} is not allowed")


def _complex_pairs(entries: list, what: str) -> np.ndarray:
    """[re, im] number pairs as complex; NaN/Inf, bools, strings and other lengths raise."""
    try:  # one C-speed scan over the entries and one over the numbers
        pair_sizes = set(map(len, entries))
        kinds = set(map(type, chain.from_iterable(entries)))
    except TypeError:  # an entry without a length or without items
        raise ParseError(f"{what} entries must be [re, im] number pairs") from None
    bad = sorted(k.__name__ for k in kinds
                 if not issubclass(k, numbers.Real) or issubclass(k, bool))
    if bad or pair_sizes - {2}:
        raise ParseError(f"{what} entries must be [re, im] number pairs"
                         + (f", got {', '.join(bad)}" if bad else ""))
    try:
        pairs = np.fromiter(chain.from_iterable(entries), dtype=np.float64,
                            count=2 * len(entries)).reshape(-1, 2)
    except OverflowError as exc:
        raise ParseError(f"{what} out of the float range: {exc}") from None
    if not np.all(np.isfinite(pairs)):
        raise ParseError(f"{what}s must be finite (no NaN/Inf)")
    return pairs[:, 0] + 1j * pairs[:, 1]


def from_json_dict(doc) -> StateVector:
    """Validate and build a state from the JSON schema.

    Amplitude parts must be numbers: NaN/Inf, booleans and strings are rejected.
    """
    if not isinstance(doc, dict) or "n" not in doc or "amplitudes" not in doc:
        raise ParseError('state JSON must be {"n": ..., "amplitudes": [[re, im], ...]}')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    entries = doc["amplitudes"]
    if not isinstance(entries, list) or len(entries) != 1 << n:
        raise ParseError(f"expected {1 << n} amplitude entries for n={n}")
    amps = _complex_pairs(entries, "amplitude")
    if not np.any(amps):
        raise AllZero("state vector has no nonzero amplitude")
    return _wrap(n, amps)


def _read_json(path):
    """Parse a JSON file; malformed text and NaN/Infinity tokens raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def load_state(path) -> StateVector:
    return from_json_dict(_read_json(path))


_SAVE_SLAB = 1 << 14  # amplitudes per json.dumps call of save_state


def save_state(s: StateVector, path) -> None:
    """Write json.dumps(to_json_dict(s)) and a newline, encoded in slabs.

    One-shot json.dumps runs the C encoder (json.dump does not); slabs
    keep the nested lists and the text of one slab in memory at a time.
    A state that load_state would reject raises before the file is opened.
    """
    if not np.all(np.isfinite(s.amplitudes)):
        raise NormOverflow(f"{path}: amplitudes out of the float range; not written")
    if not np.any(s.amplitudes):
        raise AllZero(f"{path}: state vector has no nonzero amplitude; not written")
    head, tail = json.dumps({"n": s.n, "amplitudes": [None]}).split("null")
    pairs = np.column_stack([s.amplitudes.real, s.amplitudes.imag])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, len(pairs), _SAVE_SLAB):
            if start:
                fh.write(", ")
            fh.write(json.dumps(pairs[start:start + _SAVE_SLAB].tolist())[1:-1])
        fh.write(tail + "\n")
