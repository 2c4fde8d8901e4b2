"""D-criteria blocks and the F-criteria subscript family."""

import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from sloccinv import (
    IndexOutOfRange,
    TooFewQubits,
    achieved_pair_sums,
    cluster_c,
    criteria_signature,
    f_enumerate,
    f_evaluate,
    ghz,
    new_state,
    w_state,
)
from sloccinv import criteria
from sloccinv.criteria import _d_values, _f_count

RNG = np.random.default_rng(271828)


def rand_state(n, rng=RNG):
    amps = rng.uniform(-1, 1, 1 << n) + 1j * rng.uniform(-1, 1, 1 << n)
    return new_state(n, amps / np.linalg.norm(amps))


def d_rows(s):
    """D1..D3 of every block as complex values, one row per block."""
    d = criteria_signature(s, include_f=False).d
    return (d.re + 1j * d.im).tolist()


def naive_f_enumerate(n):
    """Brute-force oracle: loop over first-index quadruples and pair sums."""
    size = 1 << n
    found = []
    for quad in combinations(range(size), 4):
        i, k, p, r = quad
        for total in range(r + 1, 2 * size - 1):
            j, l, q, s = total - i, total - k, total - p, total - r
            if not (i < j < size and k < l < size and p < q < size and r < s < size):
                continue
            if not (i ^ j) == (k ^ l) == (p ^ q) == (r ^ s):
                continue
            if total % 2:
                ok = j - 1 >= 0 and q - 1 >= 0 and l + 1 < size and s + 1 < size
            else:
                ok = j - 2 >= 0 and q - 2 >= 0 and l + 2 < size and s + 2 < size
            if ok:
                found.append([i, j, k, l, p, q, r, s])
    found.sort(key=lambda t: (t[0] + t[1], t[0], t[2], t[4], t[6]))
    return found


def test_d_criteria_ghz4_all_zero():
    (d,) = d_rows(ghz(4))
    assert d == [0, 0, 0]


def test_d_criteria_cluster_value():
    ((d1, d2, d3),) = d_rows(cluster_c())
    assert d2 == pytest.approx(1 / 36, rel=1e-14)
    assert d1 == pytest.approx(-1 / 36, rel=1e-14)
    assert d3 == pytest.approx(1 / 36, rel=1e-14)


def test_d_criteria_block_count():
    assert criteria_signature(rand_state(5)).d.re.shape == (2, 3)
    assert criteria_signature(rand_state(7)).d.re.shape == (8, 3)


def test_d_criteria_too_few_qubits():
    with pytest.raises(TooFewQubits):
        _d_values(ghz(3).amplitudes)
    d = criteria_signature(ghz(3)).d
    assert d.re.shape == d.vanishing.shape == (0, 3)


def test_d_criteria_literal_transcription_n4():
    s = rand_state(4)
    a = s.amplitudes
    ((got1, got2, got3),) = d_rows(s)
    d1 = (a[1] * a[4] - a[0] * a[5]) * (a[11] * a[14] - a[10] * a[15]) \
        - (a[3] * a[6] - a[2] * a[7]) * (a[9] * a[12] - a[8] * a[13])
    d2 = (a[4] * a[7] - a[5] * a[6]) * (a[8] * a[11] - a[9] * a[10]) \
        - (a[0] * a[3] - a[1] * a[2]) * (a[12] * a[15] - a[13] * a[14])
    d3 = (a[3] * a[5] - a[1] * a[7]) * (a[10] * a[12] - a[8] * a[14]) \
        - (a[2] * a[4] - a[0] * a[6]) * (a[11] * a[13] - a[9] * a[15])
    assert got1 == pytest.approx(d1, rel=1e-13)
    assert got2 == pytest.approx(d2, rel=1e-13)
    assert got3 == pytest.approx(d3, rel=1e-13)


def test_d_degree_four_homogeneity():
    s = rand_state(5)
    c = 1.3 - 0.4j
    scaled = new_state(5, c * s.amplitudes)
    for row, row_scaled in zip(d_rows(s), d_rows(scaled)):
        for d, ds in zip(row, row_scaled):
            assert ds == pytest.approx(c ** 4 * d, rel=1e-12, abs=1e-18)


def test_f_enumerate_n3():
    tuples = f_enumerate(3)
    assert tuples.tolist() == [[0, 7, 1, 6, 2, 5, 3, 4]]
    assert all(i + j != 6 for i, j, *_ in tuples.tolist())


def test_f_enumerate_matches_naive_oracle():
    for n in (3, 4):
        assert f_enumerate(n).tolist() == naive_f_enumerate(n), n


def test_f_enumerate_is_the_cached_read_only_signature_array():
    tuples = f_enumerate(4)
    assert tuples.dtype == np.int64 and tuples.shape == (78, 8)
    assert not tuples.flags.writeable
    with pytest.raises(ValueError):
        tuples[0, 0] = 1
    assert f_enumerate(4) is tuples
    assert criteria_signature(rand_state(4)).f_tuples is tuples


def test_f_enumerate_constraints_hold():
    for i, j, k, l, p, q, r, s in f_enumerate(4).tolist():
        assert i < j and k < l and p < q and r < s and i < k < p < r
        assert i + j == k + l == p + q == r + s
        assert i ^ j == k ^ l == p ^ q == r ^ s


def test_f_sum_set_n4():
    sums = set(achieved_pair_sums(4))
    assert {7, 11, 13, 14, 15, 16, 17, 19, 23} <= sums
    assert sums.isdisjoint({8, 9, 10, 12, 18, 20, 21, 22})


def test_f_count_is_the_enumerated_row_count():
    # the closed form counts every row f_enumerate writes; no shifted subscript leaves the range
    counts = [1, 78, 2560, 62160, 1311856]
    assert [_f_count(n) for n in range(3, 8)] == counts
    assert [f_enumerate(n).shape[0] for n in range(3, 8)] == counts
    assert (_f_count(8), _f_count(9)) == (25757088, 486432640)


def test_shifted_subscripts_stay_in_range_past_enumeration():
    # In a class of four or more pairs u < v, every tuple's q is at least the
    # second-smallest v and its l at most the second-largest, and j > q, s < l.
    # So no shifted subscript leaves [0, 2**n - 1] if those two v are d inside.
    for n in range(3, 13):
        size = 1 << n
        u = np.arange(size)
        classes = 0
        for x in range(1, size):
            v = u ^ x
            keep = u < v
            a, v = (u & v)[keep], v[keep]
            order = np.lexsort((v, a))
            a, v = a[order], v[order]
            _, starts, counts = np.unique(a, return_index=True, return_counts=True)
            big = counts >= 4
            first, last = starts[big], starts[big] + counts[big] - 1
            d = 1 if x % 2 else 2  # the parity of i + j = 2A + x
            assert (v[first + 1] >= d).all() and (v[last - 1] + d < size).all(), (n, x)
            classes += big.sum()
        assert classes == sum(comb(n, p) * 2 ** (n - p) for p in range(3, n + 1)), n


def test_f_enumerate_peaks_below_three_results():
    # the result is 64 B per tuple; built through temporaries, a filter and a
    # five-key sort, it peaked at 240 B per tuple
    tracemalloc.start()
    try:
        tuples = f_enumerate.__wrapped__(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 192 * len(tuples), peak / len(tuples)


def test_f_evaluation_peaks_below_80_bytes_per_tuple():
    # the tuples are cached; evaluated whole, the 12 gathers and every
    # intermediate were full-length arrays, a peak of 112 B per tuple
    s, tuples = rand_state(6), f_enumerate(6)
    tracemalloc.start()
    try:
        criteria_signature(s, include_f=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * len(tuples), peak / len(tuples)


@pytest.mark.parametrize("shift, match", [(-1, "broadcast"), (1, "wrote")])
def test_f_enumerate_raises_on_a_wrong_row_count(monkeypatch, shift, match):
    monkeypatch.setattr(criteria, "_f_count", lambda n: _f_count(n) + shift)
    with pytest.raises((ValueError, RuntimeError), match=match):
        f_enumerate.__wrapped__(4)


def test_f_enumerate_too_few_qubits():
    with pytest.raises(TooFewQubits):
        f_enumerate(2)


def test_f_evaluate_ghz3():
    t = (0, 7, 1, 6, 2, 5, 3, 4)
    assert f_evaluate(ghz(3), t) == pytest.approx(0.25)


def test_f_evaluate_w3():
    t = (0, 7, 1, 6, 2, 5, 3, 4)
    assert f_evaluate(w_state(3), t) == 0


def test_f_evaluate_even_sum_branch():
    # even-sum tuples use the +/-2 shifts; check against a literal evaluation
    s = rand_state(4)
    a = s.amplitudes
    t = next(t for t in f_enumerate(4).tolist() if (t[0] + t[1]) % 2 == 0)
    i, j, k, l, p, q, r, u = t
    head = (a[i] * a[j] + a[k] * a[l] - a[p] * a[q] - a[r] * a[u]) ** 2
    tail = 4 * (a[i] * a[j - 2] - a[p] * a[q - 2]) * (a[k] * a[l + 2] - a[r] * a[u + 2])
    assert f_evaluate(s, t) == pytest.approx(complex(head - tail), rel=1e-13)


def test_f_degree_four_homogeneity():
    s = rand_state(4)
    c = 0.7 + 0.2j
    scaled = new_state(4, c * s.amplitudes)
    for t in f_enumerate(4)[:10]:
        assert f_evaluate(scaled, t) == pytest.approx(
            c ** 4 * f_evaluate(s, t), rel=1e-12, abs=1e-18)


def test_f_evaluate_rejects_bad_subscripts():
    with pytest.raises(IndexOutOfRange):
        f_evaluate(ghz(3), (0, 7, 1, 6, 2, 5, 3, 99))
    # raw indices fit but a shifted subscript leaves the range
    with pytest.raises(IndexOutOfRange):
        f_evaluate(ghz(3), (0, 7, 1, 6, 2, 5, 6, 7))  # odd sum, s+1 = 8
    with pytest.raises(IndexOutOfRange):
        f_evaluate(ghz(3), (0, 2, 1, 7, 2, 5, 3, 4))  # even sum, l+2 = 9


def test_signature_vanishing_consistency():
    sig = criteria_signature(cluster_c())
    assert sig.d.vanishing.tolist() == [[False, False, False]]
    assert sig.f_included
    for row, (re, im) in enumerate(zip(sig.f.re.tolist(), sig.f.im.tolist())):
        assert sig.f.vanishing[row] == (abs(complex(re, im)) <= sig.tol), row


def test_signature_ghz4_d_all_vanish_f_not_all():
    sig = criteria_signature(ghz(4))
    assert sig.d.vanishing[0].tolist() == [True, True, True]
    assert not sig.f.vanishing.all()


def test_signature_f_excluded_for_large_n():
    sig = criteria_signature(rand_state(7))
    assert not sig.f_included
    assert len(sig.d.re) == 8
    assert sig.f_tuples.shape == sig.f.re.shape + (8,) == (0, 8)


def test_signature_n3_is_f_only():
    sig = criteria_signature(ghz(3))
    assert sig.d.re.size == 0
    assert sig.f_included and len(sig.f.re) == len(sig.f_tuples) == 1
