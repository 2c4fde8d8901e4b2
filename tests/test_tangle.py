"""tau against the n-tangle of Wong & Christensen (PRA 63, 044301, 2001).

For even n the n-tangle |<s*|sigma_y^(x n)|s>| is the bilinear product,
with no conjugate, of the amplitudes with their image under sigma_y on
every qubit.  It is computed here with apply_chain and np.dot, never with
the invariant kernels that tau uses.
"""

import numpy as np
import pytest

from sloccinv import apply_chain, chain_of, ghz, new_state, random_state, tau, w_state

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
U = 2.0 ** -53


def n_tangle(s):
    """(|sum_j a_j b_j| with b = sigma_y^(x n) a, R = sum_j |a_j| |a_(2^n-1-j)|).

    sigma_y on every qubit moves a_j to the complement index with a factor
    of modulus 1, so R bounds the moduli of the dot product's terms."""
    a = s.amplitudes
    flipped = apply_chain(chain_of([SIGMA_Y] * s.n), s).amplitudes
    return abs(np.dot(a, flipped)), float(np.dot(np.abs(a), np.abs(a[::-1])))


def states(n):
    """(name, state): fixed seeds at scales 1, 1e150 and 1e-150, then GHZ and W."""
    for seed in range(50 if n <= 12 else 3):
        amplitudes = random_state(n, seed).amplitudes
        for scale in (1.0, 1e150, 1e-150):
            yield f"random_state({n}, {seed}) * {scale:g}", new_state(n, scale * amplitudes)
    yield f"ghz({n})", ghz(n)
    yield f"w_state({n})", w_state(n)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_tau_is_the_n_tangle_for_even_n(n):
    for name, s in states(n):
        got, (want, r) = tau(s), n_tangle(s)
        assert abs(got - want) <= 8 * U * r, (name, got, want, abs(got - want) / (U * r))
