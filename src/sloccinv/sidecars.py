"""The CLI's binary sidecars of its state files.

A CLI command that writes a state file in save_state's layout with n >=
statevec._SPLIT_N (make of every kind, apply) also writes the file's
vector as a .npy in the directory DIRECTORY beside it, named by the
file's name and the BLAKE2b-256 of its bytes: a 32-byte BLAKE2b digest,
64 hex digits.  A CLI load of such a file hashes it and reads that .npy
instead of decoding the JSON.  A load that finds none decodes the JSON
in one pass that hashes the bytes it reads, and keeps the parse as the
sidecar if they are the bytes first hashed: a miss reads the file twice,
a hit once.  A sidecar maps the digest of a file's bytes to the vector
those bytes parse to, bit for bit; nothing but the digest decides
whether it is used.  No output byte and no exit code depends on the
sidecars: any failure of theirs falls back to statevec's parse and
writes, silently.

The digest is BLAKE2b because a hit hashes the whole file: CPython's own
BLAKE2b hashes about 2.8x as fast as its SHA-256 on x86-64.  A sidecar
named by the SHA-256 of its file, as sidecars were named before, is a
miss, and the sidecar that the missing load writes replaces it.

The library's load_state and save_state neither read nor write them;
only the CLI imports this module.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat

import numpy as np

from . import statevec

DIRECTORY = ".sloccinv"


def _directory(path) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(path)), DIRECTORY)


def _path(path, digest: str) -> str:
    return os.path.join(_directory(path), f"{os.path.basename(path)}.{digest}.npy")


def _blake2b():
    """A new BLAKE2b hash object of 32-byte digests from CPython's own _blake2
    module, not hashlib's: importing hashlib loads OpenSSL, which costs a
    process about 3.4 MiB of RSS."""
    try:
        from _blake2 import blake2b
    except ImportError:  # a Python built without its own BLAKE2
        from hashlib import blake2b
    return blake2b(digest_size=32)


def _file_digest(fh) -> str:
    """The BLAKE2b-256 hex digest of the bytes of fh, a binary file opened at
    its start, read statevec._LOAD_SLAB bytes at a time."""
    digest, slab = _blake2b(), bytearray(statevec._LOAD_SLAB)
    while size := fh.readinto(slab):
        digest.update(memoryview(slab)[:size])
    return digest.hexdigest()


class Entry:
    """The sidecar of a state file's 2**n amplitudes while it is written, as
    a context: a temporary .npy in the file's sidecar directory, whose
    values are written at their byte offsets with os.pwrite, from a forked
    child too, and which install() moves into place with os.replace.  The
    temporary file is removed on exit unless it was installed.  digest is a
    hash object for the file's bytes, for the writer to update.

    An Entry is false once it has no temporary file.  Any OSError leaves the
    sidecar unwritten and is not raised, except in a forked child: there it
    ends the child with status 1 (see statevec._in_halves), so that the
    parent writes the child's rows again.
    """

    def __init__(self, path, n: int):
        self.path, self.pid, self.fd, self.tmp = path, os.getpid(), -1, None
        self.digest = _blake2b()
        head = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.complex128)),
                "fortran_order": False, "shape": (1 << n,)}
        try:
            import io
            import tempfile
            with contextlib.suppress(FileExistsError):
                os.mkdir(_directory(path))  # not makedirs: path's directory must exist
            self.fd, self.tmp = tempfile.mkstemp(".tmp", os.path.basename(path) + ".",
                                                 _directory(path))
            text = io.BytesIO()
            np.lib.format.write_array_header_1_0(text, head)
            self.start = len(text.getvalue())
            self._pwrite(text.getvalue(), 0)
        except OSError:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._drop()

    def __bool__(self) -> bool:
        return self.tmp is not None

    def put(self, at: int, floats: np.ndarray) -> None:
        """Write floats, a contiguous float array, as the values' floats from index at on."""
        if self:
            self._pwrite(memoryview(floats).cast("B"), self.start + 8 * at)

    def _pwrite(self, data, offset: int) -> None:
        try:
            while data:
                done = os.pwrite(self.fd, data, offset)
                data, offset = data[done:], offset + done
        except OSError:
            if os.getpid() != self.pid:
                raise
            self._drop()

    def install(self, digest: str) -> None:
        """Move the file to path's sidecar name for digest; remove path's other sidecars."""
        if not self:
            return
        name = os.path.basename(self.path)
        try:
            os.fchmod(self.fd, stat.S_IMODE(os.stat(self.path).st_mode))  # the file's readers
            os.replace(self.tmp, _path(self.path, digest))
            self.tmp = None
            stale = re.compile(re.escape(name) + r"\.[0-9a-f]{64}\.npy")
            for other in os.listdir(_directory(self.path)):
                if stale.fullmatch(other) and other != f"{name}.{digest}.npy":
                    os.unlink(os.path.join(_directory(self.path), other))
        except OSError:
            pass

    def _drop(self) -> None:
        """Close the file, and remove it if it is not in place, then the
        sidecar directory if that is left empty."""
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1
        if self.tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.tmp)
            with contextlib.suppress(OSError):
                os.rmdir(_directory(self.path))
            self.tmp = None


def _write(path, s: statevec.StateVector, digest: str) -> None:
    """Install s as the sidecar of path's bytes, whose digest is digest."""
    with Entry(path, s.n) as entry:
        entry.put(0, s.amplitudes.view(np.float64))
        entry.install(digest)


def _state(path, n: int, digest: str) -> statevec.StateVector | None:
    """The state in path's sidecar for digest, if that is a valid one: a .npy
    of 2**n complex128 values, all finite and not all zero, checked in rows
    of statevec._DRAW_SLAB floats with no full-size temporary.  None otherwise."""
    try:
        with open(_path(path, digest), "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if shape != (1 << n,) or fortran_order or dtype != np.complex128:
                return None
            amps = np.empty(1 << n, dtype=np.complex128)
            if fh.readinto(amps) != amps.nbytes or fh.read(1):
                return None
    except (OSError, ValueError):  # no file, or a malformed .npy header
        return None
    rows = amps.view(np.float64).reshape(-1, min(statevec._DRAW_SLAB, 2 << n))
    finite = np.empty(rows.shape[1], dtype=bool)
    if all(np.isfinite(row, out=finite).all() for row in rows) and any(map(np.any, rows)):
        return statevec._wrap(n, amps)
    return None


def load(path, n: int, check_n=None) -> statevec.StateVector:
    """statevec.load_state(path, check_n), through path's sidecar, for a file
    whose head has n >= _SPLIT_N (see statevec._saved_n).

    The file is hashed after check_n(n), so the cap refuses it before any
    byte is hashed.  A valid sidecar for its digest (see _state) is the
    state.  Otherwise load_state parses the file as it does without
    sidecars, hashing the bytes as it reads them, and if that digest is the
    lookup's, the file held still and was decoded in one pass, and the
    parsed state becomes the sidecar.  An OSError of the sidecar work is not
    raised: the load goes on as load_state.
    """
    if check_n is not None:
        check_n(n)
    digest = None
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        digest = _file_digest(fh)
    if digest is not None:
        s = _state(path, n, digest)
        if s is not None:
            return s
    read = _blake2b()
    s = statevec.load_state(path, check_n, read)
    if read.hexdigest() == digest:
        _write(path, s, digest)
    return s


def save(s: statevec.StateVector, path) -> None:
    """statevec.save_state(s, path), and s as the sidecar of the bytes
    written, hashed as they are written."""
    digest = _blake2b()
    statevec.save_state(s, path, digest)
    _write(path, s, digest.hexdigest())


def save_random(n: int, seed: int, path) -> float:
    """statevec._save_random_state(n, seed, path), and its sidecar, written
    row by row as the rows are encoded: no 2**n vector is held."""
    with Entry(path, n) as entry:
        norm = statevec._save_random_state(n, seed, path, entry)
        entry.install(entry.digest.hexdigest())
    return norm
