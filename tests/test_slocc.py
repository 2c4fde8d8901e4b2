"""Local-operator chains: application, determinants, transform-law harnesses."""

import math
from functools import reduce

import numpy as np
import pytest

from sloccinv import (
    LengthMismatch,
    ParityError,
    apply_chain,
    chain_of,
    complement,
    det_product,
    ghz,
    identity_chain,
    iv_star,
    new_state,
    random_chain,
    random_state,
    sigma_x_chain,
    tau,
    vanishing,
    verify_theorem1,
    verify_theorem2,
    w_state,
)
from sloccinv import slocc

RNG = np.random.default_rng(314159)


def rand_state(n, rng=RNG):
    amps = rng.uniform(-1, 1, 1 << n) + 1j * rng.uniform(-1, 1, 1 << n)
    return new_state(n, amps / np.linalg.norm(amps))


def dense_matrix(chain):
    return reduce(np.kron, chain.ops)


def test_local_operator_validation():
    # chain_of is the one validator: any shape but (k, 2, 2) raises, ragged input too
    for bad in ([[[1, 0, 0], [0, 1, 0]]], [[1, 2], [3, 4]], [], [[[1, 2], [3]]],
                [np.eye(2), np.eye(3)], np.zeros((2, 2, 2, 1))):
        with pytest.raises(LengthMismatch) as exc:
            chain_of(bad)
        assert "\n" not in str(exc.value)
    ch = chain_of([[[1, 2], [3, 4]], [[1, 1], [1, 1]]])
    assert ch.dets.tolist() == [-2, 0]
    assert abs(ch.dets[0]) > slocc.INVERTIBLE_TOL
    assert not abs(ch.dets[1]) > slocc.INVERTIBLE_TOL


def test_chain_ops_is_one_read_only_array():
    for n in (1, 5, 18):
        ch = random_chain(n, seed=n)
        assert ch.ops.shape == (n, 2, 2) and ch.ops.dtype == np.complex128
        assert len(ch) == n
        with pytest.raises(ValueError):
            ch.ops[0, 0, 0] = 0
    src = np.eye(2)[None].repeat(3, axis=0)
    ch = chain_of(src)
    src[0, 0, 0] = 7  # chain_of copies its input
    assert ch.ops[0, 0, 0] == 1


def _scalar_dets(chain):
    """The determinants as a literal loop of numpy complex scalar products."""
    return [complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) for m in chain.ops]


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def test_dets_and_det_product_match_a_scalar_loop_bit_for_bit():
    for n, seed, unit in ((1, 0, False), (7, 3, True), (22, 5, False), (22, 6, True)):
        ch = random_chain(n, seed=seed, unit_det=unit)
        dets = _scalar_dets(ch)
        assert _bits(ch.dets.tolist()) == _bits(dets)
        prod = complex(1.0)
        for d in dets:
            prod *= d
        assert _bits([det_product(ch)]) == _bits([prod])
    # numpy's complex array loops may fuse with FMA; about half of these would differ
    ops = np.random.default_rng(2).uniform(-1, 1, (2000, 2, 2, 2)) @ [1, 1j]
    ch = chain_of(ops)
    assert _bits(ch.dets.tolist()) == _bits(_scalar_dets(ch))


def test_random_chain_entries_are_pinned():
    # row 0 of the first operator and row 1 of the last, as float.hex of re and im
    pinned = {
        (0, False): [["0x1.187f5e7ece140p-2", "0x1.40c9e9e0b3794p-1"],
                     ["-0x1.d77a103be9318p-2", "0x1.a6a965e699006p-1"],
                     ["0x1.fd2499f5d7fbcp-1", "0x1.81f05c06b8f50p-2"],
                     ["0x1.ec60195b384f0p-1", "-0x1.c6fa5434bc698p-3"]],
        (1, True): [["0x1.a5f9def374c9dp-3", "-0x1.2345e579a2768p-2"],
                    ["0x1.922e6004290ddp-1", "0x1.4fdf5c1747e81p-2"],
                    ["-0x1.470498aa6a3c0p-2", "-0x1.b7e59db5b8e33p-2"],
                    ["-0x1.e1fc351784708p-1", "0x1.c361dcb69fc7bp-3"]],
        (42, False): [["0x1.1887ef345b648p-1", "-0x1.9f8ff92b31b20p-1"],
                      ["-0x1.f4b533cb0dc10p-4", "0x1.e7098bb61b1d4p-1"],
                      ["0x1.4f7e8bc36ee3ep-1", "0x1.e1fea9b4458ccp-1"],
                      ["0x1.0da6108236cdcp-2", "0x1.928e57ddc8624p-1"]],
    }
    for (seed, unit), want in pinned.items():
        ops = random_chain(3, seed=seed, unit_det=unit).ops
        got = ops[0, 0].tolist() + ops[2, 1].tolist()
        assert [[z.real.hex(), z.imag.hex()] for z in got] == want, (seed, unit)


def test_identity_chain_is_exact():
    for n in (6, 13, 14):
        s = rand_state(n)
        out = apply_chain(identity_chain(n), s)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_sigma_x_chain_is_complement():
    for n in (1, 3, 4, 7, 13, 14):
        s = rand_state(n)
        out = apply_chain(sigma_x_chain(n), s)
        np.testing.assert_array_equal(out.amplitudes, complement(s).amplitudes)


def test_diag_op_on_bell_state():
    # oracle: direct 4x4 matrix multiply
    ch = chain_of([np.diag([2.0, 1.0]), np.eye(2)])
    s = ghz(2)
    out = apply_chain(ch, s)
    expected = dense_matrix(ch) @ s.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=0)
    np.testing.assert_allclose(
        out.amplitudes, [2 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], rtol=1e-15)
    assert iv_star(out) == pytest.approx(2 * iv_star(s), rel=1e-14)


def test_apply_matches_dense_oracle():
    for n in range(1, 9):
        for trial in range(8):
            s = rand_state(n)
            ch = random_chain(n, seed=100 * n + trial)
            got = apply_chain(ch, s).amplitudes
            ref = dense_matrix(ch) @ s.amplitudes
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, n


def per_qubit_reference(chain, s):
    """One qubit at a time: contract each operator with its axis of the (2,)*n view."""
    psi = s.amplitudes.reshape((2,) * s.n)
    for k, op in enumerate(chain.ops):
        psi = np.moveaxis(np.tensordot(op, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


def assert_matches_reference(chain, s):
    got = apply_chain(chain, s).amplitudes
    ref = per_qubit_reference(chain, s)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), s.n


def test_apply_matches_per_qubit_reference_every_pass_plan():
    # n <= 6: one pass; 7..10: a 4-qubit pass and a tail; 11..16: several
    # 4-qubit passes before the tail, with both tail parities
    for n in range(1, 17):
        assert_matches_reference(random_chain(n, seed=500 + n), rand_state(n))


@pytest.mark.parametrize("scratch", [64, 256, 1024])
def test_apply_chunked_slab_matches_reference(monkeypatch, scratch):
    # a slab down to one 64-amplitude row forces block-axis chunks (width <
    # block), several rows per chunk in the 4-qubit passes, and many slabs
    # in the tail GEMM
    monkeypatch.setattr(slocc, "_SCRATCH_COMPLEX", scratch)
    for n in (7, 10, 11, 13, 16):
        assert_matches_reference(random_chain(n, seed=900 + n), rand_state(n))


def test_apply_chain_leaves_input_untouched():
    for n in (5, 13, 14):
        s = rand_state(n)
        before = s.amplitudes.copy()
        apply_chain(random_chain(n, seed=n), s)
        np.testing.assert_array_equal(s.amplitudes, before)


def test_apply_chain_composition():
    n = 5
    s = rand_state(n)
    c1 = random_chain(n, seed=11)
    c2 = random_chain(n, seed=22)
    two_step = apply_chain(c2, apply_chain(c1, s)).amplitudes
    fused = chain_of(c2.ops @ c1.ops)
    one_step = apply_chain(fused, s).amplitudes
    np.testing.assert_allclose(two_step, one_step, rtol=1e-12, atol=1e-15)


def test_apply_chain_length_mismatch():
    with pytest.raises(LengthMismatch):
        apply_chain(identity_chain(3), ghz(4))


def test_det_product_examples():
    assert det_product(identity_chain(5)) == 1
    ch = chain_of([np.diag([2.0, 1.0])] + [np.eye(2)] * 4)
    assert det_product(ch) == pytest.approx(2)
    for n in (2, 3, 6):
        assert det_product(sigma_x_chain(n)) == pytest.approx((-1) ** n)


def test_random_chain_properties():
    a = random_chain(4, seed=5)
    b = random_chain(4, seed=5)
    np.testing.assert_array_equal(a.ops, b.ops)
    assert np.all(np.abs(a.dets) >= 0.1)
    unit = random_chain(6, seed=5, unit_det=True)
    assert abs(det_product(unit)) == pytest.approx(1.0, abs=1e-12)


def test_verify_theorem1_spec_points():
    assert verify_theorem1(4, 100, 1) <= 1e-9
    assert verify_theorem1(6, 100, 1) <= 1e-9
    assert verify_theorem1(2, 100, 1) <= 1e-11


def test_verify_theorem2_spec_points():
    assert verify_theorem2(3, 100, 1) <= 1e-9
    assert verify_theorem2(5, 100, 1) <= 1e-9
    assert verify_theorem2(7, 50, 1) <= 1e-8


def test_verify_parity_errors():
    with pytest.raises(ParityError):
        verify_theorem1(5, 10, 1)
    with pytest.raises(ParityError):
        verify_theorem2(4, 10, 1)
    with pytest.raises(ParityError):
        verify_theorem1(1, 10, 1)


def test_unit_det_chain_preserves_tau():
    for n in range(2, 8):
        s = rand_state(n)
        ch = random_chain(n, seed=1000 + n, unit_det=True)
        t0, t1 = tau(s), tau(apply_chain(ch, s))
        assert t1 == pytest.approx(t0, rel=1e-9, abs=1e-12)


def test_vanishing_is_slocc_invariant():
    zero = new_state(1, [1, 0])
    for n in range(3, 8):
        vanisher = w_state(n)
        nonvanisher = ghz(n)
        for trial in range(20):
            ch = random_chain(n, seed=7000 + 100 * n + trial)
            for s, expect in ((vanisher, True), (nonvanisher, False)):
                out = apply_chain(ch, s)
                got = vanishing(
                    iv_star(out) if n % 2 == 0 else _odd(out),
                    out.norm_squared(),
                    degree=2 if n % 2 == 0 else 4,
                )
                assert got is expect, (n, trial, expect)


def _odd(s):
    from sloccinv import odd_invariant

    return odd_invariant(s)


def test_ops_json_roundtrip():
    from sloccinv.slocc import ops_from_json_dict, ops_json_dict

    ch = random_chain(3, seed=9)
    doc = ops_json_dict(ch)
    back = ops_from_json_dict(doc)
    np.testing.assert_array_equal(ch.ops, back.ops)
    assert ops_json_dict(back) == doc


def _symbolic_chain(sympy, b, ops, n):
    """Independent per-qubit fold of generic 2x2 operators over symbols."""
    vec = list(b)
    for k, op in enumerate(ops):
        block = 1 << (n - 1 - k)
        new = [None] * (1 << n)
        for base in range(0, 1 << n, 2 * block):
            for j in range(block):
                x = vec[base + j]
                y = vec[base + block + j]
                new[base + j] = op[0, 0] * x + op[0, 1] * y
                new[base + block + j] = op[1, 0] * x + op[1, 1] * y
        vec = new
    return vec


def _symbolic_iv_star(amps, n):
    from sloccinv.signtab import sign_star_table

    size = 1 << n
    table = sign_star_table(n)
    return sum(int(table[i]) * (amps[2 * i] * amps[size - 1 - 2 * i]
                                - amps[2 * i + 1] * amps[size - 2 - 2 * i])
               for i in range(1 << (n - 2)))


def _symbolic_odd_invariant(amps, n):
    from sloccinv.signtab import sign_table

    size = 1 << n
    half = size >> 1
    table = sign_table(n)
    bar = sum(int(table[i])
              * ((amps[2 * i] * amps[size - 1 - 2 * i]
                  - amps[2 * i + 1] * amps[size - 2 - 2 * i])
                 - (amps[half - 2 - 2 * i] * amps[half + 1 + 2 * i]
                    - amps[half - 1 - 2 * i] * amps[half + 2 * i]))
              for i in range(1 << (n - 3)))
    low = _symbolic_iv_star(amps[:half], n - 1)
    high = _symbolic_iv_star(amps[half:], n - 1)
    return bar ** 2 - 4 * low * high


@pytest.mark.parametrize("n,odd", [(2, False), (3, True), (4, False)])
def test_transform_laws_hold_symbolically(n, odd):
    # exact polynomial identity over generic operators, not just random floats
    sympy = pytest.importorskip("sympy")
    b = sympy.symbols(f"b0:{1 << n}")
    ops = [sympy.Matrix(2, 2, sympy.symbols(f"o{k}_0:4")) for k in range(n)]
    a = _symbolic_chain(sympy, b, ops, n)
    dets = sympy.prod([op.det() for op in ops])
    if odd:
        lhs = _symbolic_odd_invariant(a, n)
        rhs = _symbolic_odd_invariant(list(b), n) * dets ** 2
    else:
        lhs = _symbolic_iv_star(a, n)
        rhs = _symbolic_iv_star(list(b), n) * dets
    assert sympy.expand(lhs - rhs) == 0
