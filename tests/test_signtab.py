"""Sign-table construction against the literal recursive definition."""

import numpy as np
import pytest

from sloccinv import IndexOutOfRange, sign_star_table, sign_table


def _sign_recursive(n, i, memo={}):
    """Direct transcription of the recursive definition (test-side oracle)."""
    key = (n, i)
    if key in memo:
        return memo[key]
    if n in (2, 3):
        assert i == 0
        val = 1
    elif i <= (1 << (n - 4)) - 1:
        val = _sign_recursive(n - 1, i)
    elif n % 2:
        val = _sign_recursive(n, (1 << (n - 3)) - 1 - i)
    else:
        val = -_sign_recursive(n, (1 << (n - 3)) - 1 - i)
    memo[key] = val
    return val


def _sign_star_recursive(n, i):
    if n == 2:
        assert i == 0
        return 1
    if i <= (1 << (n - 3)) - 1:
        return _sign_recursive(n, i)
    return _sign_recursive(n, (1 << (n - 2)) - 1 - i)


def test_tables_match_direct_recursion_up_to_16():
    for n in range(2, 17):
        limit = 1 if n <= 3 else 1 << (n - 3)
        for i in range(limit):
            assert sign_table(n)[i] == _sign_recursive(n, i), (n, i)
        for i in range(1 << (n - 2)):
            assert sign_star_table(n)[i] == _sign_star_recursive(n, i), (n, i)


def test_tables_are_popcount_parity_up_to_22():
    for n in range(2, 23):
        j = np.arange(1 << (n - 2))
        parity = np.zeros_like(j)
        for bit in range(n - 2):
            parity ^= (j >> bit) & 1
        tm = 1 - 2 * parity
        base = tm[: 1 << max(n - 3, 0)]
        np.testing.assert_array_equal(sign_table(n), base)
        np.testing.assert_array_equal(sign_star_table(n), tm if n % 2 == 0 else np.tile(base, 2))
        assert sign_star_table(n).size == 1 << (n - 2)


def test_golden_patterns():
    assert sign_table(4).tolist() == [1, -1]
    assert sign_table(5).tolist() == [1, -1, -1, 1]
    assert sign_table(6).tolist() == [1, -1, -1, 1, -1, 1, 1, -1]
    assert sign_star_table(2).tolist() == [1]
    assert sign_star_table(3).tolist() == [1, 1]
    assert sign_star_table(4).tolist() == [1, -1, -1, 1]


def test_base_cases():
    assert sign_table(2).tolist() == [1]
    assert sign_table(3).tolist() == [1]
    assert sign_star_table(2).tolist() == [1]


def test_entries_are_unit():
    for n in range(2, 12):
        assert set(np.unique(sign_table(n))) <= {-1, 1}
        assert set(np.unique(sign_star_table(n))) <= {-1, 1}


def test_even_antisymmetry_and_zero_sum():
    for n in (4, 6, 8, 10):
        t = sign_table(n)
        m = t.size
        np.testing.assert_array_equal(t, -t[::-1])
        assert int(np.sum(t, dtype=np.int64)) == 0, n
        assert m == 1 << (n - 3)


def test_odd_upper_half_palindrome():
    for n in (5, 7, 9):
        t = sign_table(n)
        m = t.size
        for i in range(m // 2, m):
            assert t[i] == t[m - 1 - i], (n, i)


def test_sign_star_echoes_sign_on_shared_range():
    for n in range(3, 12):
        t = sign_table(n)
        ts = sign_star_table(n)
        np.testing.assert_array_equal(ts[: t.size], t)


def test_lemma_style_echo_for_odd_n():
    # sign*(n-1, i) == sign(n, i) on the sign range, for odd n
    for n in (5, 7, 9):
        for i in range(1 << (n - 3)):
            assert sign_star_table(n - 1)[i] == sign_table(n)[i], (n, i)


def test_range_errors():
    for table in (sign_table, sign_star_table):
        with pytest.raises(IndexOutOfRange, match="needs n >= 2"):
            table(1)


def test_tables_are_read_only():
    with pytest.raises(ValueError):
        sign_table(6)[0] = 5
