"""State construction, algebra, and JSON I/O."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sloccinv import (
    AllZero,
    LengthMismatch,
    ParseError,
    TooFewQubits,
    cluster_c,
    complement,
    from_json_dict,
    ghz,
    load_state,
    new_state,
    normalize,
    random_state,
    save_state,
    tensor,
    to_json_dict,
    w_state,
)
from sloccinv import statevec
from sloccinv.errors import NormOverflow, SloccInvError
from sloccinv.slocc import apply_chain, chain_of, ops_from_json_dict

SQ2 = math.sqrt(0.5)


def test_new_state_basis():
    s = new_state(1, [1, 0])
    assert s.n == 1
    assert s.norm_squared() == 1.0
    np.testing.assert_array_equal(s.amplitudes, [1.0 + 0j, 0.0 + 0j])


def test_new_state_unnormalized_flag():
    s = new_state(2, [1, 0, 0, 1])
    assert s.norm_squared() == 2.0
    assert s.norm() == pytest.approx(math.sqrt(2))


def test_new_state_uniform_normalized():
    assert new_state(2, [0.5, 0.5, 0.5, 0.5]).norm_squared() == 1.0


def test_new_state_length_mismatch():
    with pytest.raises(LengthMismatch):
        new_state(2, [1, 0, 0])
    # a huge n is compared with the count without building 2**n
    for n in (20_000, 1 << 40):
        with pytest.raises(LengthMismatch, match=r"expected 2\*\*\d+ amplitudes"):
            new_state(n, [1, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_new_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NormOverflow, match="finite") as exc:
        new_state(2, [bad, 1, 0, 1])
    assert "\n" not in str(exc.value)


def test_states_compare_by_identity():
    s = ghz(3)
    assert s == s and s != ghz(3)
    assert len({s, ghz(3), s}) == 2


def test_new_state_all_zero():
    with pytest.raises(AllZero):
        new_state(1, [0, 0])


def test_new_state_needs_positive_n():
    with pytest.raises(TooFewQubits):
        new_state(0, [1])


def test_new_state_copies_input():
    amps = np.array([1, 0, 0, 1], dtype=np.complex128)
    s = new_state(2, amps)
    amps[0] = 5
    assert s.amplitudes[0] == 1


def test_amplitudes_read_only():
    s = ghz(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0


def test_normalize_bell():
    s = normalize(new_state(2, [1, 0, 0, 1]))
    np.testing.assert_allclose(s.amplitudes, [SQ2, 0, 0, SQ2])
    assert abs(s.norm_squared() - 1.0) <= 1e-12


def test_normalize_idempotent_identity():
    s = ghz(3)
    assert normalize(s) is s  # no rescale within 1e-15 of unit norm


def test_normalize_scalar():
    s = normalize(new_state(1, [2, 0]))
    np.testing.assert_array_equal(s.amplitudes, [1.0, 0.0])


@pytest.mark.parametrize("peak", [1e300, 1e200, 1e-170, 1e-300, 3 * 5e-324])
def test_normalize_at_both_ends_of_the_float_range(peak):
    # |s|^2 overflows above about 1e154 and underflows below about 1e-162
    s = normalize(new_state(1, [peak, peak]))
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2], rtol=1e-15)
    assert abs(s.norm_squared() - 1.0) <= 1e-12


# finite parts whose modulus |a| is not a finite float
TOP_OF_RANGE = {2: [1.5e308 + 1.5e308j, 0, 0, 1], 3: [1.5e308 + 1.5e308j] + [0] * 6 + [1]}


@pytest.mark.parametrize("n", [2, 3])
def test_normalize_at_the_top_of_the_float_range(n):
    s = normalize(new_state(n, TOP_OF_RANGE[n]))
    np.testing.assert_allclose(s.amplitudes, [SQ2 + SQ2 * 1j] + [0] * ((1 << n) - 1),
                               rtol=1e-15, atol=1e-308)  # the last one is 1/|a0| = 4.7e-309
    assert abs(s.norm_squared() - 1.0) <= 1e-12


def test_normalize_of_a_norm_past_the_float_range():
    # |s| = 2.4e308: the no-op test must not unscale the norm
    s = normalize(new_state(2, [1.7e308, 0, 0, 1.7e308]))
    np.testing.assert_allclose(s.amplitudes, [SQ2, 0, 0, SQ2], rtol=1e-15)


def test_normalize_bits_match_the_plain_division():
    # the exact power-of-two scaling leaves in-range results bit for bit as s / |s|
    for n in range(1, 11):
        for scale in (1e-30, 0.3, 1.0, 7.0, 1e30):
            s = new_state(n, random_state(n, n).amplitudes * scale)
            out = normalize(s)
            if out is not s:
                assert out.amplitudes.tobytes() == (s.amplitudes / s.norm()).tobytes()


def test_ghz_amplitudes():
    s = ghz(3)
    assert s.amplitudes[0] == pytest.approx(SQ2)
    assert s.amplitudes[7] == pytest.approx(SQ2)
    assert np.count_nonzero(s.amplitudes) == 2

    b = ghz(2)
    assert b.amplitudes[0] == b.amplitudes[3] == pytest.approx(SQ2)

    big = ghz(6)
    assert big.amplitudes[0] == big.amplitudes[63] == pytest.approx(SQ2)


def test_ghz_requires_positive_n():
    with pytest.raises(TooFewQubits):
        ghz(0)


def test_w_state_amplitudes():
    s = w_state(3)
    val = 1 / math.sqrt(3)
    for idx in (1, 2, 4):
        assert s.amplitudes[idx] == pytest.approx(val)
    assert np.count_nonzero(s.amplitudes) == 3

    assert w_state(2).amplitudes[1] == pytest.approx(SQ2)
    assert w_state(4).amplitudes[8] == pytest.approx(0.5)
    with pytest.raises(TooFewQubits):
        w_state(1)


def test_cluster_c():
    s = cluster_c()
    assert s.n == 4
    val = 1 / math.sqrt(6)
    for idx in (3, 5, 6, 9, 10, 12):
        assert s.amplitudes[idx] == pytest.approx(val)
    assert np.count_nonzero(s.amplitudes) == 6
    assert abs(s.norm() - 1.0) <= 1e-12


def test_builder_norms():
    for s in (ghz(2), ghz(7), w_state(5), cluster_c()):
        assert abs(s.norm() - 1.0) <= 1e-12
        assert abs(s.norm_squared() - 1.0) <= 1e-12


def test_tensor_ghz2_ghz2():
    s = tensor(ghz(2), ghz(2))
    assert s.n == 4
    for idx in (0, 3, 12, 15):
        assert s.amplitudes[idx] == pytest.approx(0.5)
    assert np.count_nonzero(s.amplitudes) == 4


def test_tensor_zero_prefix_places_lower_half():
    zero = new_state(1, [1, 0])
    s = random_state(3, 5)
    out = tensor(zero, s)
    np.testing.assert_array_equal(out.amplitudes[:8], s.amplitudes)
    np.testing.assert_array_equal(out.amplitudes[8:], np.zeros(8))


def test_tensor_beyond_the_float_range_warns_nothing():
    # pytest turns RuntimeWarning into an error, so an overflow warning would fail here
    big = tensor(new_state(1, [1e200, 1e200j]), new_state(1, [1e200, 1e200]))
    assert not np.all(np.isfinite(big.amplitudes))
    assert not np.any(tensor(new_state(1, [1e-200, 0]), new_state(1, [1e-200, 0])).amplitudes)


def test_tensor_ghz3_ghz3():
    s = tensor(ghz(3), ghz(3))
    assert s.n == 6
    for idx in (0, 7, 56, 63):
        assert s.amplitudes[idx] == pytest.approx(0.5)
    assert np.count_nonzero(s.amplitudes) == 4


def test_tensor_associative_exact_on_exact_amplitudes():
    # integer amplitudes multiply exactly, so association is bitwise here
    a = new_state(1, [1, -1])
    b = new_state(2, [0, 1, 1, 0])
    c = new_state(1, [1, 1])
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_array_equal(left.amplitudes, right.amplitudes)


def test_tensor_associative_random_to_rounding():
    a, b, c = random_state(2, 1), random_state(2, 2), random_state(1, 3)
    left = tensor(tensor(a, b), c).amplitudes
    right = tensor(a, tensor(b, c)).amplitudes
    np.testing.assert_allclose(left, right, rtol=5e-16, atol=0)


def test_complement_moves_index_to_bit_complement():
    amps = np.zeros(8)
    amps[1] = 1.0
    s = new_state(3, amps)
    out = complement(s)
    assert out.amplitudes[6] == 1.0
    assert np.count_nonzero(out.amplitudes) == 1


def test_complement_ghz_fixed_point():
    s = ghz(4)
    np.testing.assert_array_equal(complement(s).amplitudes, s.amplitudes)


def test_complement_w3():
    out = complement(w_state(3))
    val = 1 / math.sqrt(3)
    for idx in (6, 5, 3):
        assert out.amplitudes[idx] == pytest.approx(val)


def test_complement_involution_exact():
    s = random_state(5, 77)
    np.testing.assert_array_equal(complement(complement(s)).amplitudes, s.amplitudes)


def test_random_state_deterministic():
    a = random_state(4, 42)
    b = random_state(4, 42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, random_state(4, 43).amplitudes)


def test_random_amplitudes_bits_match_the_sum_and_divide_form():
    from sloccinv.statevec import _random_amplitudes

    def reference(rng, n):
        # the norm is the fixed-order sum of squares of StateVector.norm
        amps = rng.uniform(-1.0, 1.0, 1 << n) + 1j * rng.uniform(-1.0, 1.0, 1 << n)
        return amps / new_state(n, amps).norm()

    # n=17 and 20 draw each part in several 2**16-float slabs
    for n in (1, 2, 5, 9, 14, 17, 20):
        for seed in (0, 1, 42, 2**31 - 1):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_amplitudes(rng, n)
            want = reference(ref_rng, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (n, seed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, seed)


def test_random_amplitudes_leave_the_generator_for_the_chain_draw():
    # the imaginary parts come from a copy of the generator advanced by 2**n,
    # so the draw must move rng past them; a verify trial draws its chain
    # next, and perfbench's rounding check redoes the trial from that state.
    # A 32-bit half buffered before the draw survives it, as under uniform().
    from sloccinv.slocc import _random_ops
    from sloccinv.statevec import _random_amplitudes

    for n in (1, 4, 15, 17):
        for buffered in (False, True):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            if buffered:
                rng.integers(0, 2**32, dtype=np.uint32)
                ref_rng.integers(0, 2**32, dtype=np.uint32)
            got = _random_amplitudes(rng, n)
            ref = ref_rng.uniform(-1.0, 1.0, 1 << n) + 1j * ref_rng.uniform(-1.0, 1.0, 1 << n)
            assert got.tobytes() == (ref / new_state(n, ref).norm()).tobytes(), n
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, buffered)
            assert rng.integers(0, 2**32, dtype=np.uint32) == ref_rng.integers(
                0, 2**32, dtype=np.uint32)
            assert rng.random() == ref_rng.random()
            chain, ref_chain = _random_ops(rng, n, False), _random_ops(ref_rng, n, False)
            assert chain.ops.tobytes() == ref_chain.ops.tobytes(), (n, buffered)


def test_draws_and_norms_do_not_depend_on_the_blas_thread_count():
    # a BLAS reduction splits its sum across threads; the fixed-order sum does not
    code = ("import hashlib\n"
            "from sloccinv import random_state\n"
            "for n in (14, 18):\n"
            "    s = random_state(n, 5)\n"
            "    print(hashlib.sha256(s.amplitudes.tobytes()).hexdigest(), "
            "s.norm_squared().hex())\n")
    src = str(Path(statevec.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0].count("\n") == 2
    assert outs[0] == outs[1]


def test_random_state_norm_and_small_n():
    for n, seed in [(1, 7), (3, 0), (6, 9)]:
        s = random_state(n, seed)
        assert abs(s.norm() - 1.0) <= 1e-12
        assert s.amplitudes.size == 1 << n


def test_random_state_needs_positive_n():
    with pytest.raises(TooFewQubits):
        random_state(0, 1)


def test_json_roundtrip_bitwise(tmp_path):
    s = random_state(5, 123)
    path = tmp_path / "s.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.n == s.n
    np.testing.assert_array_equal(loaded.amplitudes, s.amplitudes)


def test_signed_zero_parts_survive_a_load(tmp_path):
    # -0.0 == 0.0, so the bits are compared
    path = tmp_path / "s.json"
    path.write_text('{"n": 1, "amplitudes": [[0.6, -0.0], [-0.0, 0.8]]}\n')
    from_file = load_state(path)
    assert from_file.amplitudes.view(np.uint64).tolist() == (
        np.array([0.6, -0.0, -0.0, 0.8]).view(np.uint64).tolist())
    for s in (new_state(2, [-0.0, -1j, 1e-300, 0.1 + 0.2j]), from_file):
        save_state(s, path)
        for loaded in (load_state(path), from_json_dict(to_json_dict(s))):
            np.testing.assert_array_equal(loaded.amplitudes.view(np.uint64),
                                          s.amplitudes.view(np.uint64))
    ops = ops_from_json_dict({"ops": [[[1, -0.0], [0, 0], [-0.0, 0], [1, 0]]]}).ops
    assert np.signbit(ops.view(np.float64)).ravel().tolist() == [0, 1, 0, 0, 1, 0, 0, 0]


def test_json_schema_shape():
    doc = to_json_dict(ghz(2))
    assert doc["n"] == 2
    assert len(doc["amplitudes"]) == 4
    assert doc["amplitudes"][0] == [SQ2, 0.0]


def test_json_rejects_nan_token(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "amplitudes": [[NaN, 0], [0, 0]]}')
    with pytest.raises(ParseError):
        load_state(path)


def test_json_rejects_overflowing_float(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "amplitudes": [[1e999, 0], [0, 0]]}')
    with pytest.raises(ParseError):
        load_state(path)


def test_json_rejects_wrong_count():
    with pytest.raises(ParseError):
        from_json_dict({"n": 2, "amplitudes": [[1, 0], [0, 0]]})


def test_json_rejects_bad_entries():
    with pytest.raises(ParseError):
        from_json_dict({"n": 1, "amplitudes": [[1, 0], ["x", 0]]})
    with pytest.raises(ParseError):
        from_json_dict({"n": 1, "amplitudes": [[1, 0], [0]]})
    with pytest.raises(ParseError):
        from_json_dict({"n": 0, "amplitudes": []})
    with pytest.raises(ParseError):
        from_json_dict({"amplitudes": [[1, 0], [0, 0]]})
    for n in (20_000, 1 << 40):  # 2**n is never built
        with pytest.raises(ParseError, match=r"expected 2\*\*\d+ amplitude entries"):
            from_json_dict({"n": n, "amplitudes": []})


def test_save_state_writes_one_shot_json(tmp_path):
    path = tmp_path / "s.json"
    for s in (random_state(6, 5), ghz(3), complement(w_state(4)),
              new_state(2, [-0.0, -1j, 1e-300, 0.1 + 0.2j])):
        save_state(s, path)
        assert path.read_bytes() == (json.dumps(to_json_dict(s)) + "\n").encode()


def test_save_state_joins_slabs_as_one_shot_json(tmp_path):
    # many slabs, so the file holds slab separators; n = 13..16 spans both
    # sides of the size from which a save and a load run in two halves
    path = tmp_path / "s.json"
    for n in range(statevec._SPLIT_N - 1, statevec._SPLIT_N + 3):
        assert statevec._SAVE_SLAB < 1 << n
        s = random_state(n, 3)
        save_state(s, path)
        assert path.read_bytes() == (json.dumps(to_json_dict(s)) + "\n").encode(), n
        loaded = load_state(path)
        np.testing.assert_array_equal(loaded.amplitudes.view(np.uint64),
                                      s.amplitudes.view(np.uint64))


PAIR_SPELLINGS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-05, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53, 123456789.0]


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False))
def test_pair_spelling_is_json_dumps(a, b):
    # save_state's slabs spell each pair with this template
    assert statevec._PAIR[:-2] % (a, b) == json.dumps([a, b])


@pytest.mark.parametrize("a", PAIR_SPELLINGS)
def test_pair_spelling_of_the_edge_floats(a):
    assert statevec._PAIR[:-2] % (a, -a) == json.dumps([a, -a])


def test_all_zero_state_file_and_zero_vector(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 1, "amplitudes": [[0, 0], [0.0, -0.0]]}))
    with pytest.raises(AllZero):
        load_state(path)
    with pytest.raises(AllZero, match="normalize"):
        normalize(statevec._wrap(2, np.zeros(4)))


def json_load_state(path):
    """from_json_dict(json.load(file)): the whole-list parse that load_state replaces,
    with a decode error in load_state's "<path>: invalid JSON: ..." form."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=statevec._reject_constant)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return from_json_dict(doc)


def load_outcome(load, path):
    """(n, amplitude bits) of load(path), or the class and message of the package error
    it raised."""
    try:
        s = load(path)
    except SloccInvError as exc:
        return type(exc), str(exc)
    return s.n, s.amplitudes.view(np.uint64).tolist()


PAIRS = "[[0.6, -0.0], [0, 0.8]]"
STATE_TEXT_VARIANTS = [
    json.dumps(to_json_dict(random_state(2, 3)), indent=2),
    json.dumps(to_json_dict(random_state(2, 3)), indent="\t", separators=(" ,\r\n", " : ")),
    '{"amplitudes": %s, "n": 1}' % PAIRS,
    '{"\\u006e": 1, "\\u0061mplitudes": %s}' % PAIRS,
    # repeated keys keep the last value, whatever the earlier ones held
    '{"n": 2, "amplitudes": %s, "n": 1}' % PAIRS,
    '{"n": 1, "amplitudes": [[1, 0]], "amplitudes": %s}' % PAIRS,
    '{"n": 1, "amplitudes": %s, "amplitudes": [[1, 0]]}' % PAIRS,
    '{"n": 1, "amplitudes": [["x", 0], [0, 1]], "amplitudes": %s}' % PAIRS,
    '{"n": 1, "amplitudes": [[1, 0], 5], "amplitudes": %s}' % PAIRS,
    '{"n": 1, "amplitudes": [["], [", 0], [0, 1]], "amplitudes": %s}' % PAIRS,
    '{"n": 1, "amplitudes": [[NaN, 0], [0, 1]], "amplitudes": %s}' % PAIRS,
    # no list of pairs
    '{"n": 1, "amplitudes": []}',
    '{"n": 1, "amplitudes": [ ]}',
    '{"n": 1, "amplitudes": 5}',
    '{"n": 1, "amplitudes": [0.6, 0.8]}',
    '{"n": 1, "amplitudes": {"re": [0.6, 0]}}',
    '{"n": 1, "amplitudes": "%s"}' % PAIRS,
    # whitespace that JSON does not allow between or after entries
    '{"n": 1, "amplitudes": [[0.6, 0], [0, 0.8]\x0c]}',
    '{"n": 1, "amplitudes": [[0.6, 0]\xa0, [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[0.6, 0], [0, 0.8] ], "x": [[1]]}',
    '{"n": 1, "amplitudes": [[0.6, 0]\x0b]], "x": [[1]]}',
    # entries outside the schema
    '{"n": 1, "amplitudes": [[[0.6], 0], [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[0.6, 0, 1], [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[0.6, 0], [0, 0.8], ]}',
    '{"n": 1, "amplitudes": [[0.6, 0]; [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[true, 0], [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[true, 0], ["x", 0]]}',
    '{"n": 1, "amplitudes": [[1e999, 0], [0, 0.8]]}',
    '{"n": 1, "amplitudes": [[0, 0], [-0.0, 0.0]]}',
    # save_state's head with whitespace before a comma, which JSON allows
    '{"n": 1, "amplitudes": [[0.6, 0] , [0, 0.8]]}',
    # save_state's head and tail around a count or an n outside the schema
    '{"n": 2, "amplitudes": %s}' % PAIRS,
    '{"n": 0, "amplitudes": [[1, 0]]}',
    '{"n": 01, "amplitudes": %s}' % PAIRS,
    '{"n": 100, "amplitudes": %s}' % PAIRS,
    '{"n": 99, "amplitudes": %s}' % PAIRS,  # a head whose vector could never be allocated
    '{"n": 1, "amplitudes": %s}\x0c' % PAIRS,
    # not one object
    PAIRS, "{}", " { } ", "", "\ufeff" + '{"n": 1, "amplitudes": %s}' % PAIRS,
    '{"n": 1, "amplitudes": %s} x' % PAIRS, '{"n": 1 "amplitudes": %s}' % PAIRS,
    '{"n" 1}', '{n: 1}', '{"n": 1,}', '{"n": }',
]


def state_texts():
    """Every prefix and single-character deletion of canonical n=1..3 files, and the variants."""
    for s in (random_state(1, 7), new_state(2, [-0.0, -1j, 1e-300, 0.1 + 0.2j]),
              random_state(3, 7)):
        text = json.dumps(to_json_dict(s)) + "\n"
        yield text
        for k in range(len(text)):
            yield text[:k]
            yield text[:k] + text[k + 1:]
    yield from STATE_TEXT_VARIANTS


def mid_stream_files(data: bytes):
    """(bytes, streamed) cases of save_state's n=15 file, several slabs long: a
    fault in the first text read or past the first slab, a valid file whose
    last cut meets its final entry, and one of the shortest entries."""
    past = 2 * statevec._LOAD_SLAB
    entry = data.index(b"[", len(data) - 5000)
    last = data.rindex(b", [") + 2
    yield b"\xff" + data[1:], False  # invalid UTF-8 at the first byte
    yield b"\xff\xfe" + data.decode().encode("utf-16-le"), False  # UTF-16
    # the first read decodes a whole chunk of the file, not just the head
    yield data[:4000] + b"\xff" + data[4001:], False
    yield data[:past] + b"\xff" + data[past + 1:], False  # invalid UTF-8
    yield data[:past], False  # truncated
    yield data + b"x", False  # non-whitespace after "]]}\n"
    yield data[:entry] + b"[NaN, 0]" + data[data.index(b"]", entry) + 1:], False
    # the whitespace holds no "]", so the last slab's cut is the final entry's
    yield data[:last] + b" " * statevec._LOAD_SLAB + data[last:], True
    yield data, True
    # the shortest entries, "[0,0],", are streamed too
    yield data[:data.index(b"[") + 1] + b"[0,0]," * ((1 << 15) - 2) + b"[1,0],[0,0]]}", True


@pytest.mark.parametrize("slab", [1, 16, 100, None])
def test_load_state_is_the_whole_list_parse(tmp_path, monkeypatch, slab):
    # with slabs of 1 and 16 characters a cut follows every entry
    if slab is not None:
        monkeypatch.setattr(statevec, "_LOAD_SLAB", slab)
    path = tmp_path / "s.json"
    outcomes = set()
    for text in state_texts():
        path.write_bytes(text.encode())
        want = load_outcome(json_load_state, path)
        assert load_outcome(load_state, path) == want, text
        outcomes.add(want[0] if isinstance(want[0], type) else "state")
    assert outcomes == {ParseError, AllZero, "state"}
    # the n=15 file holds a save_state slab separator
    save_state(random_state(15, 3), path)
    assert load_outcome(load_state, path) == load_outcome(json_load_state, path)
    if slab is None:
        whole_reads = []
        monkeypatch.setattr(statevec, "_read_json", lambda p, *digest, read=statevec._read_json:
                            whole_reads.append(p) or read(p, *digest))
        for data, streamed in mid_stream_files(path.read_bytes()):
            path.write_bytes(data)
            del whole_reads[:]
            want = load_outcome(json_load_state, path)
            assert load_outcome(load_state, path) == want, data[-80:]
            assert (want[0] == 15) == streamed
            assert whole_reads == ([] if streamed else [path])  # a failed stream reads again


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_state_reads_a_pipe_once():
    # a pipe cannot be read twice, so it is parsed whole, never streamed
    s = random_state(3, 7)
    r, w = os.pipe()
    try:
        with os.fdopen(w, "w") as fh:
            fh.write(json.dumps(to_json_dict(s)) + "\n")
        loaded = load_state(f"/dev/fd/{r}")
    finally:
        os.close(r)
    np.testing.assert_array_equal(loaded.amplitudes.view(np.uint64), s.amplitudes.view(np.uint64))


def test_load_state_calls_check_n_on_every_file(tmp_path):
    # a file in save_state's layout by its head's n, any other once parsed whole
    seen = []
    save_state(ghz(3), tmp_path / "saved.json")
    (tmp_path / "pretty.json").write_text(json.dumps(to_json_dict(w_state(4)), indent=1))
    for name in ("saved.json", "pretty.json"):
        load_state(tmp_path / name, seen.append)
    assert seen == [3, 4]


def test_a_load_opens_its_file_once_here(tmp_path, monkeypatch, forks):
    # one pass reads the file from one handle, and no child is forked for it
    opens = []

    def counting_open(file, *args, **kwargs):
        opens.append(file)
        return open(file, *args, **kwargs)
    for n in (statevec._SPLIT_N - 1, statevec._SPLIT_N):
        s, path = random_state(n, 2), tmp_path / f"r{n}.json"
        save_state(s, path)
        del forks[:]
        with monkeypatch.context() as patch:
            patch.setattr(statevec, "open", counting_open, raising=False)
            loaded = load_state(path)
        assert opens == [path] and forks == [], (n, opens)
        del opens[:]
        np.testing.assert_array_equal(loaded.amplitudes.view(np.uint64),
                                      s.amplitudes.view(np.uint64))


def test_load_state_holds_one_slab_of_pair_lists(tmp_path, monkeypatch):
    # json.load built 2**16 two-float lists before converting any: its peak
    # was 12.05 MiB for the 3.01 MiB n=16 file, text plus 9 vectors.  Reading
    # the whole text held its bytes and its str at once, twice the text, and
    # at n=18 the peak was 20.4 MiB above the vector.  The stream holds the
    # vector and a few slabs, whatever the file's size.
    for n in (16, 18):
        path = tmp_path / f"r{n}.json"
        save_state(random_state(n, 1), path)
        size, vector = path.stat().st_size, 16 << n
        load_state(path)
        tracemalloc.start()
        try:
            load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size + vector, (n, (peak - size) / vector)
        assert peak - vector < 12 * statevec._LOAD_SLAB, (n, (peak - vector) / statevec._LOAD_SLAB)


def test_save_state_holds_no_copy_of_the_vector(tmp_path):
    # the [re, im] rows are a view of the amplitudes, and the encoder holds
    # one slab of lists and text at a time; the encoder's peak, some 0.4 MiB
    # with 2**10-amplitude slabs, does not grow with n, so the 4 MiB n=18
    # vector tells it apart from a copy with room to spare
    s = random_state(18, 1)
    tracemalloc.start()
    try:
        save_state(s, tmp_path / "r18.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.amplitudes.nbytes, peak / s.amplitudes.nbytes


def assert_reaped():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes while a test runs."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    return pids


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def io_outcomes(tmp_path, s, seeds):
    """The sha256 of save_state(s)'s file; the outcome of loading it back, as
    (n, sha256 of the bits) or the error; and the sha256 of make random's file
    and the bits of its norm at each seed.  No call leaves a child behind."""
    path = tmp_path / "s.json"
    save_state(s, path)
    assert_reaped()
    saved = file_digest(path)
    try:
        loaded = load_state(path)
    except SloccInvError as exc:
        outcome = type(exc), str(exc)
    else:
        outcome = loaded.n, hashlib.sha256(loaded.amplitudes.tobytes()).hexdigest()
        del loaded
    assert_reaped()
    drawn = []
    for seed in seeds:
        norm = statevec._save_random_state(s.n, seed, path)
        assert_reaped()
        drawn.append((file_digest(path), norm.hex()))
    return saved, outcome, drawn


SPLIT_SEEDS = (0, 7, 2**31 - 1)


def test_split_and_serial_io_agree(tmp_path, monkeypatch, forks):
    # from _SPLIT_N on a save and make random fork one child each, a load none;
    # the serial path runs with the size test patched above n
    split_n = statevec._SPLIT_N
    for n in range(split_n - 1, 21):
        s = random_state(n, n)
        split = io_outcomes(tmp_path, s, SPLIT_SEEDS)
        assert split[1] == (n, hashlib.sha256(s.amplitudes.tobytes()).hexdigest())
        assert len(forks) == (1 + len(SPLIT_SEEDS) if n >= split_n else 0), n
        del forks[:]
        monkeypatch.setattr(statevec, "_SPLIT_N", n + 1)
        assert io_outcomes(tmp_path, s, SPLIT_SEEDS) == split, n
        assert forks == []
        monkeypatch.setattr(statevec, "_SPLIT_N", split_n)


@pytest.mark.parametrize("n", [1, 4, 14, 17, 18])
def test_a_later_first_row_draws_that_slice_of_the_draw(n):
    width = min(statevec._DRAW_SLAB, 1 << n)
    scratch = np.empty(width // 2)
    whole = np.empty(2 << n)
    for _ in statevec._drawn_rows(np.random.default_rng(9), n, whole, scratch):
        pass
    rows = whole.reshape(-1, width)
    count = len(rows)
    for first, stop in ((0, 1), (1, count), (count // 2, count), (count - 1, count)):
        got = [row.copy() for row in statevec._drawn_rows(
            np.random.default_rng(9), n, np.empty(width), scratch, first, stop)]
        np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                      rows[first:stop].view(np.uint64), (first, stop))


def test_damage_in_one_half_gives_the_serial_error(tmp_path, forks):
    # damage before or after the middle entry stops the one pass, and the
    # whole parse gives the error
    n = statevec._SPLIT_N + 1
    path = tmp_path / "s.json"
    save_state(random_state(n, 3), path)
    del forks[:]
    data = path.read_bytes()
    middle = data.index(b"], [", len(data) // 2)
    past = data.index(b"], [", (middle + len(data)) // 2) + 3  # an entry well past the middle
    early = data.index(b"], [", middle // 2) + 3  # one well before it
    cases = [data[:past + 5],  # truncated
             data[:past] + b"[NaN, 0]" + data[data.index(b"]", past) + 1:],
             data[:past + 2] + b"\xff" + data[past + 3:],
             data[:past] + b"[1, 0, 0]" + data[data.index(b"]", past) + 1:],
             data + b"x",  # a byte after "]]}\n"
             data[:early] + b"[1, 0, 0]" + data[data.index(b"]", early) + 1:]]
    for bad in cases:
        path.write_bytes(bad)
        outcome = load_outcome(load_state, path)
        assert outcome[0] is ParseError
        assert outcome == load_outcome(json_load_state, path), bad[-80:]
    assert forks == []


def test_a_second_half_that_does_not_decode_is_decoded_once(tmp_path, monkeypatch, forks):
    # a damaged file is streamed once, in one _decode_entries call, and then
    # parsed whole, which gives the error
    n = statevec._SPLIT_N + 1
    path = tmp_path / "s.json"
    save_state(random_state(n, 3), path)
    data = path.read_bytes()
    past = data.index(b"], [", len(data) * 3 // 4) + 3  # an entry in the second half
    path.write_bytes(data[:past] + b"[NaN, 0]" + data[data.index(b"]", past) + 1:])
    me, decoded, whole_reads = os.getpid(), [], []
    monkeypatch.setattr(statevec, "_decode_entries", lambda *args, decode=statevec._decode_entries:
                        decoded.append(os.getpid()) or decode(*args))
    monkeypatch.setattr(statevec, "_read_json", lambda p, *digest, read=statevec._read_json:
                        whole_reads.append(p) or read(p, *digest))
    del forks[:]
    outcome = load_outcome(load_state, path)
    assert outcome[0] is ParseError and outcome == load_outcome(json_load_state, path)
    assert decoded == [me] and whole_reads == [path] and forks == []
    # the whole parse holds the text as json.load does, not the file's bytes too
    peaks = []
    for load in (load_state, json_load_state):
        tracemalloc.start()
        try:
            load_outcome(load, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] + len(data) / 4, [peak / len(data) for peak in peaks]


def fail_children(monkeypatch, how):
    """Make every forked child fail; return the children's pids.  "exit": it
    exits 1 at once; "kill": it SIGKILLs itself at once; "late": it runs as
    usual, but once it has written its rows to the save's temporary file it
    writes a few more bytes there and SIGKILLs itself."""
    pids, fork, write_rows, parent = [], os.fork, statevec._write_rows, os.getpid()

    def failing_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        elif how != "late":
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        return pid

    def dying_write_rows(fh, rows, sep):
        write_rows(fh, rows, sep)
        if os.getpid() != parent:
            fh.write(b"[0, 0]")
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(os, "fork", failing_fork)
    if how == "late":
        monkeypatch.setattr(statevec, "_write_rows", dying_write_rows)
    return pids


def test_a_failed_child_leaves_the_outcome(tmp_path, monkeypatch):
    # this process does the half that the child did not finish: a save and
    # make random write the serial bytes and norm bits
    s = random_state(statevec._SPLIT_N + 2, 5)
    want = io_outcomes(tmp_path, s, SPLIT_SEEDS)
    for how in ("exit", "kill", "late"):
        with monkeypatch.context() as patch:
            pids = fail_children(patch, how)
            assert io_outcomes(tmp_path, s, SPLIT_SEEDS) == want, how
        assert len(pids) == 1 + len(SPLIT_SEEDS), how

    def no_process():  # out of process ids: this process does both halves
        pids.append(0)
        raise BlockingIOError("fork: Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_process)
    assert io_outcomes(tmp_path, s, SPLIT_SEEDS) == want
    assert pids.count(0) == 1 + len(SPLIT_SEEDS)


def test_a_failing_first_half_kills_and_reaps_its_child(forks):
    me, ran = os.getpid(), []

    def here():  # what this process ran; a child's runs leave no trace here
        ran.append(os.getpid())

    def here_only():  # raises in a child, which then exits 1
        here()
        if os.getpid() != me:
            raise RuntimeError("second half")
    # a child that finished: second() does not run here
    statevec._in_halves(True, lambda: ran.append("first"), here)
    assert ran == ["first"] and len(forks) == 1
    # a failed child's second() runs here, after first()
    del ran[:]
    statevec._in_halves(True, lambda: ran.append("first"), here_only)
    assert ran == ["first", me] and len(forks) == 2
    assert_reaped()
    # no split: no fork, and second() runs here after first()
    del ran[:]
    statevec._in_halves(False, lambda: ran.append("first"), here_only)
    assert ran == ["first", me] and len(forks) == 2

    def fails_here():  # an error of the run here propagates; the child is reaped by then
        if os.getpid() != me:
            raise RuntimeError("second half")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        raise ValueError("second half")
    with pytest.raises(ValueError, match="second half"):
        statevec._in_halves(True, lambda: "first", fails_here)
    assert len(forks) == 3
    assert_reaped()
    # first() raising kills the child and reaps it, and second() does not run here
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        statevec._in_halves(True, lambda: 1 / 0, lambda: time.sleep(60))
    assert time.monotonic() - start < 30
    assert len(forks) == 4
    assert_reaped()


def test_only_the_fork_warning_of_python_3_12_is_silenced(monkeypatch, forks):
    # Python 3.12 warns in os.fork when the process has other threads, as it
    # has with OpenBLAS's; no CI Python does, so a fork that warns stands in
    fork = os.fork

    def warning_fork(text):
        def warned():
            warnings.warn(text % os.getpid(), DeprecationWarning, stacklevel=2)
            return fork()
        return warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(os, "fork", warning_fork(
            "This process (pid=%d) is multi-threaded, use of fork() may lead to deadlocks"
            " in the child."))
        statevec._in_halves(True, lambda: 1, lambda: True)
        assert len(forks) == 1
        monkeypatch.setattr(os, "fork", warning_fork("fork() in pid %d is deprecated"))
        with pytest.raises(DeprecationWarning, match="is deprecated"):
            statevec._in_halves(True, lambda: 1, lambda: True)
    assert len(forks) == 1
    assert_reaped()


def test_no_fork_beside_another_python_thread_or_without_os_fork(tmp_path, monkeypatch):
    s = random_state(statevec._SPLIT_N + 1, 5)
    want = io_outcomes(tmp_path, s, SPLIT_SEEDS[:1])

    def no_fork():
        raise AssertionError("os.fork called")
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert io_outcomes(tmp_path, s, SPLIT_SEEDS[:1]) == want
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.delattr(os, "fork")
    assert io_outcomes(tmp_path, s, SPLIT_SEEDS[:1]) == want


@pytest.mark.parametrize("amplitudes, k", [
    ([SQ2, 0, 0, SQ2], 0), ([3, 0, 0, -1j], 2), ([0.5, 0.25j, 0, 0], 0),
    ([1e-300, 0, 0, 2e-300j], -995), ([1e300, 0, 0, 0], 997)])
def test_scaled_is_an_exact_power_of_two(amplitudes, k):
    s = new_state(2, amplitudes)
    got = statevec._exponent(s.amplitudes)
    assert got == k
    scaled = np.ldexp(s.amplitudes.view(np.float64), -k)
    assert 0.5 <= np.max(np.abs(scaled.view(np.complex128))) < 1.0
    np.testing.assert_array_equal(np.ldexp(scaled, k), s.amplitudes.view(np.float64))


@pytest.mark.parametrize("n", [2, 3])
def test_scaled_takes_k_from_the_largest_part(n):
    # max|a| is inf here, while the largest part 1.5e308 has exponent 1024
    s = new_state(n, TOP_OF_RANGE[n])
    k = statevec._exponent(s.amplitudes)
    assert k == 1024
    assert np.isfinite(statevec._norm_squared(s.amplitudes, k))
    scaled = np.ldexp(s.amplitudes.view(np.float64), -k)
    np.testing.assert_array_equal(np.ldexp(scaled, k), s.amplitudes.view(np.float64))


@pytest.mark.parametrize("factor", [1.0, 3.7, 1e-300, 1e300])
def test_scaled_sum_of_squares_is_the_norm_of_the_scaled_copy(factor):
    # rows of the same min(_DRAW_SLAB, size) floats, each scaled into the slab:
    # the bits of the fixed-order norm of a scaled copy, which is never built
    for n in range(1, 21):
        s = new_state(n, factor * random_state(n, n).amplitudes)
        k = statevec._exponent(s.amplitudes)
        copy = np.ldexp(s.amplitudes.view(np.float64), -k)
        rows = copy.reshape(-1, min(statevec._DRAW_SLAB, 1 << n))
        want = math.fsum(np.add.reduce(np.square(row)) for row in rows)
        assert statevec._norm_squared(s.amplitudes, k).hex() == want.hex(), n


def test_save_state_refuses_states_load_state_rejects(tmp_path):
    path = tmp_path / "s.json"
    huge, tiny = new_state(1, [1e200, 0]), new_state(1, [1e-200, 0])
    zero_op = apply_chain(chain_of(np.zeros((1, 2, 2))), ghz(1))
    nan = statevec._wrap(1, np.array([math.nan, 1]))
    cases = ((tensor(huge, huge), NormOverflow), (nan, NormOverflow),
             (tensor(tiny, tiny), AllZero), (zero_op, AllZero))
    for s, error in cases:
        with pytest.raises(error):
            save_state(s, path)
        assert not path.exists()


@pytest.mark.parametrize("entries", [
    [[True, 0], [0, 0]],
    [[1, 0], [0, False]],
    [["1", 0], [0, 0]],
    [[1, "0"], [0, 0]],
    [[1, 0], "ab"],
    [[1, 0], 3],
    [[1, 0], None],
    [[1, 0], [[0], 0]],
    [[1, 0], [0, None]],
    [[10 ** 400, 0], [0, 0]],
])
def test_json_rejects_non_number_amplitudes(entries):
    with pytest.raises(ParseError):
        from_json_dict({"n": 1, "amplitudes": entries})


def test_json_rejects_boolean_and_string_tokens_in_files(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('[[true, 0], [0, 0]]', '[[1, 0], ["1", 0]]'):
        path.write_text('{"n": 1, "amplitudes": %s}' % text)
        with pytest.raises(ParseError):
            load_state(path)


def test_json_accepts_mixed_ints_and_floats():
    s = from_json_dict({"n": 1, "amplitudes": [[1, 0], [0.5, -2]]})
    assert s.amplitudes.tolist() == [1 + 0j, 0.5 - 2j]
