"""n-qubit pure-state amplitude vectors: construction, algebra, JSON I/O.

Basis label i is read with qubit 1 at the most significant bit, so the
index ranges [0, 2**(n-1)) and [2**(n-1), 2**n) are the qubit-1 |0> and
|1> half-blocks.  States are immutable; unnormalized amplitude vectors
are accepted everywhere and the invariants are evaluated on the raw
amplitudes (see README for the resulting scaling laws).
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
import re
import stat
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import AllZero, LengthMismatch, NormOverflow, ParseError, TooFewQubits

_RESCALE_TOL = 1e-15  # normalize() returns its input unchanged this close to 1

_CLUSTER_SUPPORT = (3, 5, 6, 9, 10, 12)
_DRAW_SLAB = 1 << 16  # floats per drawn row and per partial norm (512 KiB)
_DRAW_STEP = 1 << 12  # floats per rng.random call of a streamed draw (32 KiB)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable n-qubit amplitude vector (length 2**n, complex128)."""

    n: int
    amplitudes: np.ndarray

    def norm_squared(self) -> float:
        return _norm_squared(self.amplitudes)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


def _norm_squared(amps: np.ndarray, k: int = 0) -> float:
    """|2**-k * amps|^2 through one slab of min(_DRAW_SLAB, amps.size) floats."""
    return _sum_of_squares(amps, np.empty(min(_DRAW_SLAB, amps.size)), k)


def _sum_of_squares(amps: np.ndarray, slab: np.ndarray, k: int = 0) -> float:
    """|2**-k * amps|^2 in a fixed order that no BLAS thread count changes: each
    slab.size-float row (slab.size divides the float count) is scaled into slab,
    exactly (or squared straight into slab when k = 0), squared and summed by
    np.add.reduce, and the rows are combined by math.fsum.  No scaled copy of
    amps is made."""
    rows = amps.view(np.float64).reshape(-1, slab.size)
    with np.errstate(over="ignore"):  # an inf norm is a result: callers refuse or print it
        return math.fsum(np.add.reduce(np.square(np.ldexp(row, -k, out=slab) if k else row,
                                                 out=slab))
                         for row in rows)


def _wrap(n: int, amplitudes: np.ndarray) -> StateVector:
    """Wrap a trusted, correctly sized array without copying."""
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    amps.setflags(write=False)
    return StateVector(n=n, amplitudes=amps)


def _is_2_pow(count: int, n: int) -> bool:
    """count == 2**n, without building 2**n for a huge declared n."""
    return count.bit_length() == n + 1 and count == 1 << n


def new_state(n: int, amplitudes) -> StateVector:
    """Build a state from raw amplitudes; NaN/Inf raise NormOverflow."""
    if n < 1:
        raise TooFewQubits(f"need n >= 1, got {n}")
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or not _is_2_pow(amps.size, n):
        raise LengthMismatch(f"expected 2**{n} amplitudes for n={n}, got {amps.size}")
    if not np.all(np.isfinite(amps)):
        raise NormOverflow("amplitudes must be finite (no NaN/Inf)")
    if not np.any(amps):
        raise AllZero("state vector has no nonzero amplitude")
    return _wrap(n, amps)


def _exponent(amps: np.ndarray) -> int:
    """The binary exponent k of the largest real or imaginary part of amps, so
    that part of 2**-k * amps is in [1/2, 1).

    Scaling by 2**-k is exact: a degree-d value of 2**-k * amps is exactly
    2**(-k*d) times that of amps unless it underflows, and the scaled norm
    neither overflows nor underflows, even where |a| is not a finite float.
    The reports read amps through slabs scaled by 2**-k; none holds a scaled copy.
    """
    parts = amps.view(np.float64)
    return math.frexp(max(parts.max(), -parts.min()))[1]


def normalize(s: StateVector) -> StateVector:
    """Rescale to unit norm. A no-op (same object) when already within 1e-15 of 1.

    The norm is taken of 2**-k * s, k = _exponent, and that scaled state is
    divided by it, so amplitudes anywhere in the float range normalize.
    """
    k = _exponent(s.amplitudes)
    nrm = math.sqrt(_norm_squared(s.amplitudes, k))
    if nrm == 0.0:
        raise AllZero("cannot normalize the zero vector")
    if k <= 1 and abs(math.ldexp(nrm, k) - 1.0) <= _RESCALE_TOL:  # nrm >= 1/2: norm 1 needs k <= 1
        return s
    out = np.ldexp(s.amplitudes.view(np.float64), -k).view(np.complex128)
    out /= nrm  # in place: the one output array
    return _wrap(s.n, out)


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


def _drawn_rows(rng: np.random.Generator, n: int, out: np.ndarray, scratch: np.ndarray):
    """Yield the rows of 2**n amplitudes with re/im parts uniform in [-1, 1],
    then leave rng where rng.uniform(-1, 1, 2**n) and a second such call
    would leave it.

    A row is min(_DRAW_SLAB, 2**n) floats of [re, im] pairs, the rows of
    _sum_of_squares.  Real parts come from rng, imaginary parts from a
    copy of its PCG64 advanced by 2**n; uniform(-1, 1) is -1 + 2r with one
    rounding (2r is exact).  Each row is written into out, a contiguous
    float array of every row or of one row that is reused, and its parts
    are drawn scratch.size floats at a time (a power of two) into scratch.
    """
    width = min(_DRAW_SLAB, 1 << n)
    rows, half = out.reshape(-1, width), width // 2
    step = min(scratch.size, half)
    bits = rng.bit_generator
    start = bits.state
    im_bits = copy.deepcopy(bits)
    im_bits.advance(1 << n)
    im_rng = np.random.Generator(im_bits)
    for r in range((2 << n) // width):
        row = rows[r % len(rows)]
        for part, draw in ((row[0::2], rng.random), (row[1::2], im_rng.random)):
            for lo in range(0, half, step):
                draw(out=scratch[:step])
                np.multiply(scratch[:step], 2.0, out=part[lo:lo + step])
        row -= 1.0
        yield row
    end = im_bits.state  # 2**(n+1) doubles on; advance() dropped a buffered 32-bit half
    end.update(has_uint32=start["has_uint32"], uinteger=start["uinteger"])
    bits.state = end


def _random_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm amplitudes with re/im parts drawn uniformly from [-1, 1].

    The bits and the generator's state afterwards equal those of
    (rng.uniform(-1, 1, 2**n) + 1j * rng.uniform(-1, 1, 2**n)) / norm,
    with the fixed-order norm of StateVector.norm; numpy divides a complex
    by a real as x * (1/norm) per component.  The rows are drawn into the
    vector through one slab, which then takes each row's squares while
    the row is in cache.
    """
    amps = np.empty(1 << n, dtype=np.complex128)
    floats = amps.view(np.float64)
    slab = np.empty(min(_DRAW_SLAB, amps.size))
    rows = _drawn_rows(rng, n, floats, slab)
    norm = math.sqrt(math.fsum(np.add.reduce(np.square(row, out=slab)) for row in rows))
    floats *= 1.0 / norm
    return amps


def random_state(n: int, seed: int) -> StateVector:
    """Seed-deterministic random normalized state."""
    if n < 1:
        raise TooFewQubits(f"need n >= 1, got {n}")
    return _wrap(n, _random_amplitudes(np.random.default_rng(seed), n))


def to_json_dict(s: StateVector) -> dict:
    """{"n": ..., "amplitudes": [[re, im], ...]} with exactly 2**n entries."""
    return {"n": s.n, "amplitudes": s.amplitudes.view(np.float64).reshape(-1, 2).tolist()}


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
    if not isinstance(entries, list) or not _is_2_pow(len(entries), n):
        raise ParseError(f"expected 2**{n} amplitude entries for n={n}")
    amps = _complex_pairs(entries, "amplitude")
    if not np.any(amps):
        raise AllZero("state vector has no nonzero amplitude")
    return _wrap(n, amps)


_WS = json.decoder.WHITESPACE.match  # JSON whitespace, [ \t\n\r]*
_LOAD_SLAB = 1 << 16  # characters per read and per decode call of load_state

# save_state's layout: _HEAD % n, the [re, im] pairs joined by ", ", _TAIL and "\n"
_HEAD, _TAIL = '{"n": %d, "amplitudes": [', "]}"
_SAVED_HEAD = re.compile(re.escape(_HEAD).replace("%d", "([1-9][0-9]?)"))


def _streamed_state(fh, size: int, check_n) -> StateVector | None:
    """The state of a file in save_state's layout, read and decoded _LOAD_SLAB
    characters at a time into one preallocated vector; None for any other text.

    The head is read first, and check_n gets its n before any amplitude is
    decoded.  The vector is allocated only if the file can hold 2**n of the
    shortest entry, "[0,0],".  The pair list is cut just after the first
    "]" at _LOAD_SLAB - 1 characters or more into the unread text; each cut
    must be followed by ",".  A cut that meets the last entry reads on to
    the end of the file, where "]]}" may be followed only by JSON whitespace.
    Each slab is decoded and turned into complex values before the next is
    read.  When every slab decodes to number pairs, the list is exactly
    their entries, so the state is that of the whole-list parse.  Any other
    text, bad UTF-8 in any read, or a slab, count or all-zero check that
    fails gives None, for the whole parse to decide.
    """
    try:  # the first read decodes a whole chunk of the file, not just the head
        text = fh.read(len(_HEAD % 99))  # the longest head
    except ValueError:  # bad UTF-8 near the start
        return None
    head = _SAVED_HEAD.match(text)
    if not head:
        return None
    n = int(head[1])
    if check_n is not None:
        check_n(n)
    if 6 << n > size:
        return None
    amps, count, text, eof = np.empty(1 << n, dtype=np.complex128), 0, text[head.end():], False
    try:
        while True:
            stop = text.rfind("]" + _TAIL) + 1 if eof else len(text)
            if eof and (not stop or _WS(text, stop + len(_TAIL)).end() < len(text)):
                return None
            hi = text.find("]", min(_LOAD_SLAB, stop) - 1, stop) + 1
            comma = _WS(text, hi).end()
            if not (hi and text.startswith(",", comma) or eof and hi == stop):
                if eof:
                    return None
                more = fh.read(_LOAD_SLAB)  # the cut or its comma lies beyond the text read
                text += more
                eof = not more
                continue
            part = _complex_pairs(json.loads(f"[{text[:hi]}]"), "amplitude")
            amps[count:count + part.size] = part  # past 2**n entries: a ValueError
            count += part.size
            if eof and hi == stop:
                break
            text = text[comma + 1:]
    except (ValueError, RecursionError):  # bad UTF-8, no pairs, a cut inside an entry or a string
        return None
    return _wrap(n, amps) if count == amps.size and np.any(amps) else None


def _read_json(path):
    """json.loads of a UTF-8 file's whole text, for ops files and for state files
    that load_state does not stream; malformed or too deeply nested JSON and
    NaN/Infinity tokens raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read(), parse_constant=_reject_constant)  # BOM check included
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, an int past the digit limit
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def load_state(path, check_n=None) -> StateVector:
    """from_json_dict(json.load(file)), streaming a file in save_state's layout.

    A regular file in save_state's layout is read and decoded in slabs of
    about _LOAD_SLAB characters, each written into one preallocated
    vector before the next is read, where json.load would hold the text and
    build 2**n two-float lists first (about 130 bytes per amplitude): the
    peak is the vector plus a few slabs, whatever the file's size.
    check_n, if given, is called with the n of save_state's head before
    any amplitude is decoded; what it raises propagates.  Any other file,
    or one whose stream fails a check, is read again whole and parsed by
    json.loads.  Values and errors, messages included, are those of
    from_json_dict(json.load(file)).
    """
    info = os.stat(path)
    if stat.S_ISREG(info.st_mode):  # a pipe cannot be read twice
        with open(path, "r", encoding="utf-8") as fh:
            s = _streamed_state(fh, info.st_size, check_n)
        if s is not None:
            return s
    return from_json_dict(_read_json(path))


_SAVE_SLAB = 1 << 10  # amplitudes per json.dumps call of save_state


def _write_pairs(path, n: int, rows) -> None:
    """Write save_state's layout for n with the [re, im] pairs of rows, float
    arrays of whole pairs, taken in order and encoded _SAVE_SLAB pairs per
    json.dumps call; the text does not depend on where rows split."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEAD % n)
        sep = ""
        for row in rows:
            pairs = row.reshape(-1, 2)  # [re, im] rows, no copy
            for start in range(0, len(pairs), _SAVE_SLAB):
                fh.write(sep)
                fh.write(json.dumps(pairs[start:start + _SAVE_SLAB].tolist())[1:-1])
                sep = ", "
        fh.write(_TAIL + "\n")


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
    _write_pairs(path, s.n, [s.amplitudes.view(np.float64)])


def _save_random_state(n: int, seed: int, path) -> float:
    """save_state(random_state(n, seed), path), returning the saved state's
    norm, bit for bit, without a 2**n vector: the draw is made twice
    through one reused row, first for its norm, then scaled and encoded
    row by row.  A row's squares are taken in place, after its encoding."""
    row = np.empty(min(_DRAW_SLAB, 1 << n))
    scratch = np.empty(min(_DRAW_STEP, row.size))
    drawn = _drawn_rows(np.random.default_rng(seed), n, row, scratch)
    scale = 1.0 / math.sqrt(math.fsum(np.add.reduce(np.square(r, out=r)) for r in drawn))
    sums = []

    def scaled_rows():
        for r in _drawn_rows(np.random.default_rng(seed), n, row, scratch):
            r *= scale
            yield r
            sums.append(np.add.reduce(np.square(r, out=r)))

    _write_pairs(path, n, scaled_rows())
    return math.sqrt(math.fsum(sums))
