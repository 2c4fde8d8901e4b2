"""The +/-1 sign tables that orient every invariant term.

Both tables are prefixes of the Thue-Morse signs tm(j) = (-1)**popcount(j).
sign_table(n) holds the paper's sign(n, i): tm on [0, 2**(n-3)) for
n >= 4 and on the single index 0 for n in {2, 3}.  sign_star_table(n)
holds sign*(n, i) on [0, 2**(n-2)): tm there for even n, and
sign_table(n) twice for odd n.  The signs are read only as these two
cached, read-only tables, built by [t, -t] doubling, never entry by entry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange


@lru_cache(maxsize=None)
def _thue_morse(bits: int) -> np.ndarray:
    """Read-only int8 array of (-1)**popcount(j) for j in [0, 2**bits)."""
    table = np.ones(1, dtype=np.int8)
    for _ in range(bits):
        table = np.concatenate([table, -table])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def sign_table(n: int) -> np.ndarray:
    """Read-only int8 array of sign(n, i) for i in [0, 2**max(n-3, 0))."""
    if n < 2:
        raise IndexOutOfRange(f"sign table needs n >= 2, got {n}")
    return _thue_morse(max(n - 3, 0))


@lru_cache(maxsize=None)
def sign_star_table(n: int) -> np.ndarray:
    """Read-only int8 array of sign*(n, i) for i in [0, 2**(n-2))."""
    if n < 2:
        raise IndexOutOfRange(f"sign* table needs n >= 2, got {n}")
    if n % 2 == 0:
        return _thue_morse(n - 2)
    table = np.tile(sign_table(n), 2)
    table.setflags(write=False)
    return table
