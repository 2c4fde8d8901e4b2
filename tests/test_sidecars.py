"""The CLI's binary sidecars: a state file's vector kept as a .npy in a
hidden directory beside it, named by the BLAKE2b-256 of the file's bytes,
and read by CLI loads instead of the JSON."""

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from sloccinv import load_state, random_state, save_state, sidecars, slocc, statevec
from sloccinv.cli import main

N = statevec._SPLIT_N  # the smallest n with a sidecar


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def listing(directory):
    """The names in directory's sidecar directory, or None without one."""
    side = Path(directory) / sidecars.DIRECTORY
    return sorted(p.name for p in side.iterdir()) if side.exists() else None


def sidecar_of(path):
    """Where the sidecar of path's current bytes lies."""
    digest = hashlib.blake2b(Path(path).read_bytes(), digest_size=32).hexdigest()
    return Path(path).parent / sidecars.DIRECTORY / f"{Path(path).name}.{digest}.npy"


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_sidecar_is_the_parse(path):
    """path has one sidecar, for its bytes, and it holds load_state's parse bit for bit."""
    side = sidecar_of(path)
    assert [name for name in listing(path.parent) if name.startswith(path.name + ".")] \
        == [side.name]
    stored = np.load(side, allow_pickle=False)
    assert stored.dtype == np.complex128
    assert same_bits(stored, load_state(path).amplitudes), path


@pytest.fixture
def decoded(monkeypatch):
    """The sizes of the amplitude lists that this process decodes from JSON."""
    sizes, convert = [], statevec._complex_pairs
    monkeypatch.setattr(statevec, "_complex_pairs", lambda entries, what:
                        sizes.append(len(entries)) or convert(entries, what))
    return sizes


def write_ops(path, n, seed):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(slocc.ops_json_dict(slocc.random_chain(n, seed, unit_det=True)), fh)


def test_a_session_decodes_no_amplitude_after_make(tmp_path, capsys, monkeypatch, decoded):
    # make random writes a.json's sidecar, apply reads it and writes b.json's;
    # compare and invariant read both; without sidecars every byte is the same
    monkeypatch.chdir(tmp_path)
    write_ops("ops.json", 18, 3)
    session = [["make", "random", "--n", "18", "--seed", "5", "-o", "a.json"],
               ["apply", "--input", "a.json", "--ops", "ops.json", "--output", "b.json"],
               ["compare", "a.json", "b.json"],
               ["invariant", "--input", "a.json"]]
    warm = [run(capsys, *argv) for argv in session]
    assert decoded == [] and [code for code, _, _ in warm] == [0, 0, 0, 0]
    files = [Path(f).read_bytes() for f in ("a.json", "b.json")]
    shutil.rmtree(sidecars.DIRECTORY)
    cold = [run(capsys, *argv) for argv in session[1:]]
    assert decoded and cold == warm[1:]
    assert [Path(f).read_bytes() for f in ("a.json", "b.json")] == files
    for f in ("a.json", "b.json"):
        assert_sidecar_is_the_parse(tmp_path / f)


def test_a_same_length_rewrite_with_the_old_mtime_misses(tmp_path, capsys, monkeypatch):
    # only the digest decides: not the size, the mtime or the inode
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "make", "random", "--n", str(N), "--seed", "1", "-o", "a.json")[0] == 0
    path = tmp_path / "a.json"
    before, old = os.stat(path), sidecar_of(path)
    old_values = np.load(old)
    text = bytearray(path.read_bytes())
    at = text.index(b", ", text.index(b"[[")) - 1  # the last digit of the first real part
    text[at] = ord("1") if text[at] != ord("1") else ord("2")
    with open(path, "r+b") as fh:
        fh.write(text)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == \
        (before.st_size, before.st_mtime_ns, before.st_ino)
    loaded = sidecars.load(path, N)
    assert same_bits(loaded.amplitudes, load_state(path).amplitudes)
    assert not same_bits(loaded.amplitudes, old_values)
    assert not old.exists()  # the new sidecar replaced it
    assert_sidecar_is_the_parse(path)
    warm = run(capsys, "invariant", "--input", "a.json")
    shutil.rmtree(sidecars.DIRECTORY)
    assert run(capsys, "invariant", "--input", "a.json") == warm


def test_a_sidecar_named_by_the_sha256_of_its_file_is_replaced(tmp_path, capsys, monkeypatch,
                                                               decoded):
    # sidecars were once named by the SHA-256 of their file: such a name is a
    # miss, the load parses the file, and its sidecar replaces the old one
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "make", "random", "--n", str(N), "--seed", "6", "-o", "a.json")[0] == 0
    path = tmp_path / "a.json"
    warm = run(capsys, "invariant", "--input", "a.json")
    assert warm[0] == 0 and decoded == []
    old = sidecar_of(path).with_name(f"a.json.{hashlib.sha256(path.read_bytes()).hexdigest()}.npy")
    sidecar_of(path).rename(old)
    assert run(capsys, "invariant", "--input", "a.json") == warm and sum(decoded) == 1 << N
    assert listing(tmp_path) == [sidecar_of(path).name]
    assert_sidecar_is_the_parse(path)


def test_a_file_that_changes_while_it_is_parsed_gets_no_sidecar(tmp_path, monkeypatch):
    # a same-length rewrite between two slab reads of the parse: the bytes
    # parsed are not the bytes hashed for the lookup
    path = tmp_path / "a.json"
    save_state(random_state(N, 1), path)
    text = bytearray(path.read_bytes())
    at = text.rindex(b"]]}") - 1  # the last digit of the last imaginary part
    text[at] = ord("1") if text[at] != ord("1") else ord("2")
    read, rewrites = statevec._Hashed.read, []

    def read_then_rewrite(self, size=-1):
        data = read(self, size)
        if size == statevec._LOAD_SLAB and not rewrites:
            rewrites.append(size)
            with open(path, "r+b") as fh:
                fh.write(text)
        return data
    monkeypatch.setattr(statevec._Hashed, "read", read_then_rewrite)
    assert len(text) > 2 * statevec._LOAD_SLAB
    loaded = sidecars.load(path, N)
    assert rewrites and listing(tmp_path) is None
    assert same_bits(loaded.amplitudes, load_state(path).amplitudes)  # the rewritten values
    assert not same_bits(loaded.amplitudes, random_state(N, 1).amplitudes)
    monkeypatch.setattr(statevec._Hashed, "read", read)
    assert same_bits(sidecars.load(path, N).amplitudes, loaded.amplitudes)
    assert_sidecar_is_the_parse(path)


def test_a_file_rewritten_after_its_parse_keeps_the_sidecar_of_the_bytes_parsed(tmp_path,
                                                                                monkeypatch):
    # the parse hashed the bytes it decoded, so its sidecar maps their digest;
    # the rewritten file misses it and loads its new values
    path = tmp_path / "a.json"
    first, later = random_state(N, 1), random_state(N, 2)
    save_state(first, path)
    old = sidecar_of(path)
    parse = statevec.load_state

    def parse_then_rewrite(*args):
        s = parse(*args)
        save_state(later, path)
        return s
    monkeypatch.setattr(statevec, "load_state", parse_then_rewrite)
    assert same_bits(sidecars.load(path, N).amplitudes, first.amplitudes)
    assert same_bits(np.load(old, allow_pickle=False), first.amplitudes)
    monkeypatch.setattr(statevec, "load_state", parse)
    assert same_bits(sidecars.load(path, N).amplitudes, later.amplitudes)
    assert not old.exists()  # the new sidecar replaced it
    assert_sidecar_is_the_parse(path)


def test_a_miss_reads_the_file_twice_and_a_hit_once(tmp_path, monkeypatch):
    # a miss hashes the file for the lookup, then streams it once, hashing
    # each byte as it is read; nothing hashes it again after the parse
    path = tmp_path / "a.json"
    save_state(random_state(N, 1), path)
    digests, hashed = [], []
    file_digest, read = sidecars._file_digest, statevec._Hashed.read
    monkeypatch.setattr(sidecars, "_file_digest", lambda fh: digests.append(1) or file_digest(fh))
    monkeypatch.setattr(statevec._Hashed, "read", lambda self, size=-1:
                        hashed.append(read(self, size)) or hashed[-1])
    monkeypatch.setattr(statevec, "_read_json", lambda *args: pytest.fail("parsed whole"))
    assert same_bits(sidecars.load(path, N).amplitudes, random_state(N, 1).amplitudes)
    assert digests == [1] and b"".join(hashed) == path.read_bytes()
    assert_sidecar_is_the_parse(path)
    del digests[:], hashed[:]
    assert same_bits(sidecars.load(path, N).amplitudes, random_state(N, 1).amplitudes)
    assert digests == [1] and hashed == []


def _damage(path, how, monkeypatch):
    """Spoil path's sidecar as how says."""
    side = sidecar_of(path)
    if how == "truncated":
        os.truncate(side, side.stat().st_size // 2)
    elif how == "wrong digest":  # a valid sidecar of another state, under another digest
        side.unlink()
        np.save(side.with_name(f"{path.name}.{'0' * 64}.npy"), random_state(N, 99).amplitudes)
    elif how in ("nan", "zeros"):
        stored = np.load(side)
        stored[-1 if how == "nan" else slice(None)] = np.nan if how == "nan" else 0
        np.save(side, stored)
    elif how == "wrong length":
        np.save(side, random_state(N - 1, 1).amplitudes)
    elif how == "not complex":
        np.save(side, np.load(side).view(np.float64))
    elif how == "replace fails":  # no sidecar, and the load cannot put one in place
        side.unlink()

        def refuse(*args):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.parametrize("how", ["truncated", "wrong digest", "nan", "zeros", "wrong length",
                                 "not complex", "replace fails"])
def test_a_bad_sidecar_gives_the_parse(tmp_path, capsys, monkeypatch, decoded, how):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "make", "random", "--n", str(N), "--seed", "2", "-o", "a.json")[0] == 0
    path = tmp_path / "a.json"
    with monkeypatch.context() as patch:  # the parse alone, no sidecar read or written
        patch.setattr(statevec, "_SPLIT_N", 64)
        want = run(capsys, "invariant", "--input", "a.json")
    assert want[0] == 0 and decoded
    del decoded[:]
    with monkeypatch.context() as patch:
        _damage(path, how, patch)
        assert run(capsys, "invariant", "--input", "a.json") == want
    assert decoded  # the file was parsed
    if how == "replace fails":
        assert listing(tmp_path) in (None, [])  # no temporary file is left
    else:  # the bad sidecar is replaced by a good one
        assert_sidecar_is_the_parse(path)
        del decoded[:]
        assert run(capsys, "invariant", "--input", "a.json") == want and decoded == []


def _disk_full(pid):
    """os.pwrite, failing as on a full disk past the .npy header, in the
    process pid (None: in any child)."""
    pwrite, parent = os.pwrite, os.getpid()

    def full(fd, data, offset):
        if offset and (os.getpid() == pid or (pid is None and os.getpid() != parent)):
            raise OSError(28, "No space left on device")
        return pwrite(fd, data, offset)
    return full


@pytest.mark.parametrize("child", ["finishes", "exits", "spoils", "cannot write"])
def test_make_random_writes_the_parse_as_its_sidecar(tmp_path, capsys, monkeypatch, child):
    # each process writes its own rows; a child that did not finish has its
    # rows written again by the parent, whatever it left in the sidecar
    parent, fork, put = os.getpid(), os.fork, sidecars.Entry.put
    if child == "exits":
        monkeypatch.setattr(os, "fork", lambda: fork() or os._exit(1))
    elif child == "cannot write":
        monkeypatch.setattr(os, "pwrite", _disk_full(None))
    elif child == "spoils":
        def spoiling_put(self, at, floats):
            if os.getpid() != parent:
                put(self, at, np.full_like(floats, np.nan))
                raise RuntimeError("the child fails after a bad row")
            put(self, at, floats)
        monkeypatch.setattr(sidecars.Entry, "put", spoiling_put)
    sizes = range(N, 21) if child == "finishes" else (N, 18)
    for n in sizes:
        for seed in (0, 7, 2**31 - 1):
            path = tmp_path / f"r{n}_{seed}.json"
            code, out, err = run(capsys, "make", "random", "--n", str(n), "--seed", str(seed),
                                 "-o", str(path))
            assert (code, err) == (0, "")
            assert_sidecar_is_the_parse(path)
            path.unlink()
            shutil.rmtree(tmp_path / sidecars.DIRECTORY)


def test_a_writer_that_cannot_write_its_sidecar_writes_the_file_alone(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [["make", "random", "--n", str(N), "--seed", "4", "-o", "r.json"],
             ["make", "ghz", "--n", str(N), "-o", "g.json"]]
    want = [(run(capsys, *argv), Path(argv[-1]).read_bytes()) for argv in argvs]
    shutil.rmtree(sidecars.DIRECTORY)
    monkeypatch.setattr(os, "pwrite", _disk_full(os.getpid()))
    assert [(run(capsys, *argv), Path(argv[-1]).read_bytes()) for argv in argvs] == want
    assert listing(tmp_path) is None  # nor a temporary file


def test_every_other_cli_writer_writes_the_parse_as_its_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    half = N // 2
    for argv in (["make", "ghz", "--n", str(N), "-o", "g.json"],
                 ["make", "w", "--n", str(N + 1), "-o", "w.json"],
                 ["make", "random", "--n", str(N), "--seed", "3", "-o", "r.json"],
                 ["make", "complement", "r.json", "-o", "c.json"],
                 ["make", "ghz", "--n", str(half), "-o", "g1.json"],
                 ["make", "w", "--n", str(N - half), "-o", "w1.json"],
                 ["make", "product", "g1.json", "w1.json", "-o", "p.json"],
                 ["make", "ghz", "--n", "1", "-o", "one.json"],
                 ["make", "product", "r.json", "one.json", "-o", "q.json"]):
        assert run(capsys, *argv)[0] == 0, argv
    write_ops("ops.json", N, 4)
    assert run(capsys, "apply", "--input", "c.json", "--ops", "ops.json",
               "--output", "b.json")[0] == 0
    for name in ("g", "w", "r", "c", "p", "q", "b"):
        assert_sidecar_is_the_parse(tmp_path / f"{name}.json")
    assert not [name for name in listing(tmp_path) if name.startswith(("g1.", "w1.", "one."))]


def test_the_library_writes_no_sidecar(tmp_path):
    path = tmp_path / "s.json"
    save_state(random_state(N + 1, 1), path)
    load_state(path)
    assert listing(tmp_path) is None


def test_no_sidecar_below_the_split_n(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    small = str(N - 1)
    write_ops("ops.json", N - 1, 2)
    for argv in (["make", "random", "--n", small, "-o", "r.json"],
                 ["make", "ghz", "--n", small, "-o", "g.json"],
                 ["make", "complement", "r.json", "-o", "c.json"],
                 ["apply", "--input", "r.json", "--ops", "ops.json", "--output", "b.json"],
                 ["compare", "r.json", "b.json"],
                 ["invariant", "--input", "r.json"],
                 ["criteria", "--input", "g.json"]):
        assert run(capsys, *argv)[0] == 0, argv
    assert listing(tmp_path) is None


def test_a_writer_into_a_missing_directory_makes_none(tmp_path, capsys):
    # the sidecar directory is made only inside an existing one
    code, out, err = run(capsys, "make", "random", "--n", str(N), "-o",
                         str(tmp_path / "missing" / "a.json"))
    assert code == 1 and out == "" and err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


def test_a_file_in_another_layout_is_parsed_and_gets_no_sidecar(tmp_path, capsys, monkeypatch,
                                                               decoded):
    # only save_state's layout gives n from its head, before any byte is hashed
    monkeypatch.chdir(tmp_path)
    s = random_state(N, 5)
    save_state(s, "a.json")
    with open("pretty.json", "w", encoding="utf-8") as fh:
        json.dump(statevec.to_json_dict(s), fh, indent=1)
    assert statevec._saved_n("pretty.json") == 0 and statevec._saved_n("a.json") == N
    want = run(capsys, "invariant", "--input", "a.json")
    shutil.rmtree(sidecars.DIRECTORY)
    del decoded[:]
    for _ in range(2):
        assert run(capsys, "invariant", "--input", "pretty.json") == want
    assert listing(tmp_path) is None and decoded == [1 << N] * 2
    # save_state's head, but a key after the list: the stream reads every byte
    # and fails, and the whole parse, from a second read, is not what was hashed
    with open("a.json", "rb") as fh, open("keyed.json", "wb") as out:
        out.write(fh.read().rstrip().removesuffix(b"}") + b', "x": 1}')
    assert statevec._saved_n("keyed.json") == N
    for _ in range(2):
        del decoded[:]
        assert run(capsys, "invariant", "--input", "keyed.json") == want
        assert len(decoded) > 1 and decoded[-1] == 1 << N  # streamed, then parsed whole
    assert listing(tmp_path) is None
