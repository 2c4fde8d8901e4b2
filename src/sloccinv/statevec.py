"""n-qubit pure-state amplitude vectors: construction, algebra, JSON I/O.

Basis label i is read with qubit 1 at the most significant bit, so the
index ranges [0, 2**(n-1)) and [2**(n-1), 2**n) are the qubit-1 |0> and
|1> half-blocks.  States are immutable; unnormalized amplitude vectors
are accepted everywhere and the invariants are evaluated on the raw
amplitudes (see README for the resulting scaling laws).
"""

from __future__ import annotations

import contextlib
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
    """|2**-k * amps|^2 by _sum_of_squares over rows of min(_DRAW_SLAB,
    amps.size) floats, a size that divides the float count, each scaled
    exactly by 2**-k into one slab, or read in place when k = 0.  No
    scaled copy of amps is made."""
    slab = np.empty(min(_DRAW_SLAB, amps.size))
    rows = amps.view(np.float64).reshape(-1, slab.size)
    return _sum_of_squares((np.ldexp(row, -k, out=slab) for row in rows) if k else rows, slab)


def _sum_of_squares(rows, out: np.ndarray) -> float:
    """The sum of the squares of float rows in a fixed order that no BLAS
    thread count changes: each row is squared into out (which may be the
    row itself) and summed by np.add.reduce, and math.fsum rounds the exact
    sum of the rows' sums once.  So the rows' partition fixes the bits."""
    with np.errstate(over="ignore"):  # an inf norm is a result: callers refuse or print it
        return math.fsum(np.add.reduce(np.square(row, out=out)) for row in rows)


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
    The reports read amps through scaled slabs; only F, whose tuples dwarf it, holds a scaled copy.
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


def _drawn_rows(rng: np.random.Generator, n: int, out: np.ndarray, scratch: np.ndarray,
                first: int = 0, stop: int | None = None):
    """Yield rows first to stop - 1 (all by default) of the 2**n amplitudes
    with re/im parts uniform in [-1, 1], then leave rng where
    rng.uniform(-1, 1, 2**n) and a second such call would leave it.

    A row is min(_DRAW_SLAB, 2**n) floats of [re, im] pairs, the rows of
    _norm_squared.  Real parts come from rng, imaginary parts from a
    copy of its PCG64 advanced by 2**n; uniform(-1, 1) is -1 + 2r with one
    rounding (2r is exact).  A later first row advances both streams past
    the parts of the rows before it, so every row has the bits of the whole
    draw's.  Each row is written into out, a contiguous float array of every
    row or of one row that is reused; each of its two parts is one rng call
    into scratch, which holds at least half a row.
    """
    width = min(_DRAW_SLAB, 1 << n)
    rows, half = out.reshape(-1, width), width // 2
    bits = rng.bit_generator
    start = bits.state
    im_bits = copy.deepcopy(bits)
    im_bits.advance((1 << n) + first * half)
    bits.advance(first * half)
    im_rng = np.random.Generator(im_bits)
    for r in range(first, (2 << n) // width if stop is None else stop):
        row = rows[r % len(rows)]
        for part, draw in ((row[0::2], rng.random), (row[1::2], im_rng.random)):
            draw(out=scratch[:half])
            np.multiply(scratch[:half], 2.0, out=part)
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
    norm = math.sqrt(_sum_of_squares(_drawn_rows(rng, n, floats, slab), slab))
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
    return pairs.view(np.complex128).ravel()  # keeps the sign of a -0.0 part


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


_LOAD_SLAB = 1 << 16  # bytes per read and per decode call of load_state
_SPLIT_N = 14  # from this n on, a forked child does the second half of an I/O (see _splits)

# save_state's layout: _HEAD % n, the [re, im] pairs joined by ", ", _TAIL and "\n"
_HEAD, _TAIL = b'{"n": %d, "amplitudes": [', b"]}"
_SAVED_HEAD = re.compile(re.escape(_HEAD).replace(b"%d", rb"([1-9][0-9]?)"))
_PAIR = "[%r, %r], "  # json.dumps spells a finite float as float.__repr__ does


def _splits(n: int) -> bool:
    """Whether a load or save of 2**n amplitudes runs in two halves, the second
    in a forked child: from n = _SPLIT_N on, where os.fork exists and no other
    Python thread runs (a fork copies only the calling thread)."""
    import threading
    return n >= _SPLIT_N and hasattr(os, "fork") and threading.active_count() == 1


def _in_halves(split: bool, first, second):
    """(first(), whether second() returned true).  When split, second() runs
    meanwhile in a forked child.  It runs here after first() when not
    split, when os.fork raises, or when the child did not finish: it raised
    or was killed.  So it may run twice and must then redo all it did.  A
    child's false is final: it is not run again here.  A child runs no
    BLAS, imports nothing, touches no stdio and ends in os._exit, with
    status 0 when second() returned true, 2 when it returned false and 1
    from a finally when it raised.  If first() raises, the child is killed;
    it is always reaped before second() runs here or this returns or raises.
    """
    pid = None
    if split:
        import warnings
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads may deadlock
            # the child.  Those threads are OpenBLAS's (the caller checked that no
            # other Python thread runs), and the child calls neither BLAS nor
            # anything that takes a lock they could hold.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory
                pass
        if pid == 0:
            try:
                os._exit(0 if second() else 2)
            finally:  # second() raised
                os._exit(1)
    try:
        result = first()
    except BaseException:
        if pid:
            import signal
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else None
    return result, code == 0 if code in (0, 2) else bool(second())


def _decode_entries(fh, out: np.ndarray, size: int = -1) -> bool:
    """Decode into out the [re, im] entries of fh's next size bytes, or of
    all the rest; whether they are exactly out.size number pairs and the
    range's text ends, up to JSON whitespace, with "]," or, in the rest,
    with the list's "]]}".

    Each read is cut after its last "],", and the text before the cut is
    decoded into out before the next read.  The decoded slabs are lists
    of number pairs only if every cut lies between two entries.  Bad
    UTF-8, text that is not number pairs, a cut inside an entry or a wrong
    count gives False.
    """
    end = b"]" + _TAIL if size < 0 else b"],"
    text, count = b"", 0
    try:
        while True:
            more = fh.read(_LOAD_SLAB if size < 0 else min(_LOAD_SLAB, size))
            size -= len(more)
            text += more
            last = not more or size == 0
            if last:
                text = text.strip(b" \t\n\r")
                if not text.endswith(end):
                    return False
                hi = len(text) + 1 - len(end)
            elif not (hi := text.rfind(b"],") + 1):
                continue
            part = _complex_pairs(json.loads(f"[{text[:hi].decode()}]"), "amplitude")
            out[count:count + part.size] = part  # past out.size entries: a ValueError
            count += part.size
            if last:
                return count == out.size
            text = text[hi + 1:]
    except (ValueError, RecursionError):  # bad UTF-8, no pairs, a cut inside an entry or a string
        return False


def _entry_offset(fh, count: int) -> int | None:
    """The byte offset just after the count-th "]," from fh's position on,
    or None if there are fewer."""
    pos, carry = fh.tell(), b""
    while chunk := fh.read(_LOAD_SLAB):
        text = carry + chunk  # carry: a "]," may straddle two reads
        found = text.count(b"],")
        if found >= count:
            at = -1
            for _ in range(count):
                at = text.index(b"],", at + 1)
            return pos - len(carry) + at + 2
        count -= found
        pos += len(chunk)
        carry = text[-1:]
    return None


def _streamed_state(fh, size: int, check_n) -> StateVector | None:
    """The state of a file in save_state's layout, opened as fh in binary
    mode; None for any other text.

    check_n gets the head's n before any amplitude is decoded.  The vector
    is allocated only if the file can hold 2**n of the shortest entry,
    "[0,0],", and has 2**(n-1) "],".  The entries up to the 2**(n-1)-th
    "]," and the rest are decoded by _decode_entries into the two halves
    of the vector, the rest in a forked child, from its own open of fh.name,
    when _splits(n); the vector then lies in a shared mmap.  A rest that
    the child did not finish is decoded again here (see _in_halves), from
    a new open too.  Without a split, fh reads on from the cut, so the
    file is opened once.  A range that does not decode or an all-zero
    vector gives None, for the whole parse to decide.
    """
    text = fh.read(len(_HEAD % 99))  # the longest head
    head = _SAVED_HEAD.match(text)
    if not head:
        return None
    n = int(head[1])
    if check_n is not None:
        check_n(n)
    if 6 << n > size:
        return None
    start, half = fh.seek(head.end()), 1 << (n - 1)
    cut = _entry_offset(fh, half)
    if cut is None:
        return None
    fh.seek(start)
    split = _splits(n)
    if split:  # a shared anonymous map: what the child writes there is in place here
        import mmap
        amps = np.frombuffer(mmap.mmap(-1, 16 << n), dtype=np.complex128)
    else:
        amps = np.empty(1 << n, dtype=np.complex128)

    def second() -> bool:  # a forked child must not move fh's offset, which it shares
        with open(fh.name, "rb") if split else contextlib.nullcontext(fh) as rest:
            rest.seek(cut)
            return _decode_entries(rest, amps[half:])

    halves = _in_halves(split, lambda: _decode_entries(fh, amps[:half], cut - start), second)
    return _wrap(n, amps) if all(halves) and np.any(amps) else None


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

    A regular file in save_state's layout is decoded as two byte ranges,
    cut after its 2**(n-1)-th "],", in slabs of about _LOAD_SLAB bytes,
    each written into one preallocated vector before the next is read,
    where json.load would hold the text and build 2**n two-float lists
    first (about 130 bytes per amplitude): the peak is the vector plus a
    few slabs, whatever the file's size.  From n = _SPLIT_N on, a forked
    child decodes the second range meanwhile and is reaped before this
    returns (see _splits); a range that the child did not finish is
    decoded again here, in slabs.  check_n, if given, gets the n of
    save_state's head before any amplitude is decoded, or of a file parsed
    whole; what it raises propagates.  Any other file, or one whose text
    fails to decode, is read again whole and parsed by json.loads.  Values
    and errors, messages included, are those of from_json_dict(json.load(file)).
    """
    info = os.stat(path)
    if stat.S_ISREG(info.st_mode):  # a pipe cannot be read twice
        with open(path, "rb") as fh:
            s = _streamed_state(fh, info.st_size, check_n)
        if s is not None:
            return s
    s = from_json_dict(_read_json(path))
    if check_n is not None:
        check_n(s.n)
    return s


_SAVE_SLAB = 1 << 10  # amplitudes per formatting call of save_state


def _write_rows(fh, rows, sep: bytes) -> None:
    """Write the [re, im] pairs of rows, float arrays of whole pairs, as
    json.dumps spells them, joined by ", " and the first preceded by sep:
    b"" for a first half, b", " for a second half, which may be written
    twice (see _write_pairs).  Each slab of _SAVE_SLAB pairs is one
    ("[%r, %r], " * k)[:-2] % pairs, which builds no pair lists."""
    for row in rows:
        for start in range(0, row.size, 2 * _SAVE_SLAB):
            part = row[start:start + 2 * _SAVE_SLAB].tolist()
            fh.write(sep)
            fh.write(((_PAIR * (len(part) // 2))[:-2] % tuple(part)).encode())
            sep = b", "


def _write_pairs(path, n: int, first, second) -> None:
    """Write save_state's layout for n with the [re, im] pairs of the rows
    of first() and then of second(); the text does not depend on where
    the rows split.  first() yields at least one pair.

    When _splits(n), a forked child writes second()'s pairs into an unlinked
    temporary file beside path while this process writes first()'s into
    path, then appends that file's bytes.  If the child did not finish,
    this process empties the file and writes them there again, so
    second() may run twice.  Without the file they go straight to path.
    """
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        fh.write(_HEAD % n)
        spare = None
        if _splits(n):
            import tempfile
            with contextlib.suppress(OSError):  # the split needs it; the serial write does not
                spare = stack.enter_context(
                    tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))))

        def rest() -> bool:
            out = spare or fh
            if spare:  # a child that did not finish may have written part of it
                spare.truncate(spare.seek(0))
            _write_rows(out, second(), b", ")
            out.flush()
            return True

        _in_halves(bool(spare), lambda: _write_rows(fh, first(), b""), rest)
        if spare:
            import shutil
            spare.seek(0)
            shutil.copyfileobj(spare, fh)
        fh.write(_TAIL + b"\n")


def save_state(s: StateVector, path) -> None:
    """Write json.dumps(to_json_dict(s)) and a newline, encoded in slabs.

    Each slab spells its floats with float.__repr__, as json.dumps does,
    and holds one slab's floats and text in memory at a time.  From n =
    _SPLIT_N on, a forked child encodes the second half (see _write_pairs).
    A state that load_state would reject raises before the file is opened.
    """
    if not np.all(np.isfinite(s.amplitudes)):
        raise NormOverflow(f"{path}: amplitudes out of the float range; not written")
    if not np.any(s.amplitudes):
        raise AllZero(f"{path}: state vector has no nonzero amplitude; not written")
    floats = s.amplitudes.view(np.float64)
    half = floats.size // 2
    _write_pairs(path, s.n, lambda: [floats[:half]], lambda: [floats[half:]])


def _save_random_state(n: int, seed: int, path) -> float:
    """save_state(random_state(n, seed), path), returning the saved state's
    norm, bit for bit, without a 2**n vector: the draw is made three times
    through one reused row, for its norm, then scaled and encoded row by
    row, then scaled again for the norm of what was written.  When
    _splits(n), a forked child encodes the second half of the rows (see
    _write_pairs), drawn from both PCG64 streams advanced to its first
    row; both norms are taken here.
    """
    row = np.empty(min(_DRAW_SLAB, 1 << n))
    scratch = np.empty(row.size // 2)
    count = (2 << n) // row.size  # rows of the draw, at least two
    default_rng = np.random.default_rng  # numpy.random is imported here, not in a child

    def scaled(first, stop, scale=1.0):
        for x in _drawn_rows(default_rng(seed), n, row, scratch, first, stop):
            x *= scale
            yield x

    scale = 1.0 / math.sqrt(_sum_of_squares(scaled(0, count), row))
    _write_pairs(path, n, lambda: scaled(0, count // 2, scale),
                 lambda: scaled(count // 2, count, scale))
    return math.sqrt(_sum_of_squares(scaled(0, count, scale), row))
