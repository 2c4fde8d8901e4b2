"""State construction, algebra, and JSON I/O."""

import json
import math

import numpy as np
import pytest

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
from sloccinv.errors import NormOverflow
from sloccinv.slocc import apply_chain, chain_of

SQ2 = math.sqrt(0.5)


def test_new_state_basis():
    s = new_state(1, [1, 0])
    assert s.n == 1
    assert s.normalized
    np.testing.assert_array_equal(s.amplitudes, [1.0 + 0j, 0.0 + 0j])


def test_new_state_unnormalized_flag():
    s = new_state(2, [1, 0, 0, 1])
    assert not s.normalized
    assert s.norm() == pytest.approx(math.sqrt(2))


def test_new_state_uniform_normalized():
    assert new_state(2, [0.5, 0.5, 0.5, 0.5]).normalized


def test_new_state_length_mismatch():
    with pytest.raises(LengthMismatch):
        new_state(2, [1, 0, 0])


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
    assert s.normalized


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
    assert s.normalized


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
        assert s.normalized


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
        amps = rng.uniform(-1.0, 1.0, 1 << n) + 1j * rng.uniform(-1.0, 1.0, 1 << n)
        return amps / np.linalg.norm(amps)

    # n=17 and 20 draw each part in several 2**16-float slabs
    for n in (1, 2, 5, 9, 14, 17, 20):
        for seed in (0, 1, 42, 2**31 - 1):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_amplitudes(rng, n)
            want = reference(ref_rng, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (n, seed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, seed)


def test_random_state_norm_and_small_n():
    for n, seed in [(1, 7), (3, 0), (6, 9)]:
        s = random_state(n, seed)
        assert abs(s.norm() - 1.0) <= 1e-12
        assert s.amplitudes.size == 1 << n


def test_json_roundtrip_bitwise(tmp_path):
    s = random_state(5, 123)
    path = tmp_path / "s.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.n == s.n
    np.testing.assert_array_equal(loaded.amplitudes, s.amplitudes)


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


def test_save_state_writes_one_shot_json(tmp_path):
    path = tmp_path / "s.json"
    for s in (random_state(6, 5), ghz(3), complement(w_state(4)),
              new_state(2, [-0.0, -1j, 1e-300, 0.1 + 0.2j])):
        save_state(s, path)
        assert path.read_bytes() == (json.dumps(to_json_dict(s)) + "\n").encode()


def test_save_state_refuses_states_load_state_rejects(tmp_path):
    path = tmp_path / "s.json"
    huge, tiny = new_state(1, [1e200, 0]), new_state(1, [1e-200, 0])
    zero_op = apply_chain(chain_of(np.zeros((1, 2, 2))), ghz(1))
    cases = ((tensor(huge, huge), NormOverflow), (new_state(1, [math.nan, 1]), NormOverflow),
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
