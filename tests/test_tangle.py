"""tau against two physical definitions of the residual entanglement.

For even n the n-tangle of Wong & Christensen (PRA 63, 044301, 2001),
|<s*|sigma_y^(x n)|s>|, is the bilinear product, with no conjugate, of
the amplitudes with their image under sigma_y on every qubit.  For n = 3
the three-tangle of Coffman, Kundu & Wootters (PRA 61, 052306, 2000) is
4 det rho_A - C_AB^2 - C_AC^2, from the reduced density matrices.  Both
are computed here with numpy and apply_chain, never with the invariant
kernels that tau uses.
"""

import numpy as np
import pytest

from sloccinv import apply_chain, chain_of, ghz, new_state, random_state, tau, tensor, w_state

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
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


def concurrence(rho):
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit density
    matrix (PRL 80, 2245, 1998): the l are the square roots, clipped at 0 and
    in decreasing order, of the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    eigenvalues = np.linalg.eigvals(rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP).real
    l1, *rest = np.sort(np.sqrt(np.clip(eigenvalues, 0.0, None)))[::-1]
    return max(0.0, l1 - sum(rest))


def ckw_tangle(s):
    """4 det rho_A - C_AB^2 - C_AC^2 of a normalized 3-qubit state, qubit 1 as A."""
    psi = s.amplitudes.reshape(2, 2, 2)

    def reduced(rows):  # the density matrix of the subsystem that indexes the rows
        return rows @ rows.conj().T

    rho_a = reduced(psi.reshape(2, 4))
    c_ab = concurrence(reduced(psi.reshape(4, 2)))
    c_ac = concurrence(reduced(psi.transpose(0, 2, 1).reshape(4, 2)))
    return 4.0 * np.linalg.det(rho_a).real - c_ab ** 2 - c_ac ** 2


def three_qubit_states():
    """(name, state, its known three-tangle or None): random states, GHZ, W,
    biseparable states on each cut and a product state."""
    for seed in range(300):
        yield f"random_state(3, {seed})", random_state(3, seed), None
    yield "ghz(3)", ghz(3), 1.0
    yield "w_state(3)", w_state(3), 0.0
    for seed in range(50):
        one, two = random_state(1, seed), random_state(2, seed + 50)
        yield f"A|BC {seed}", tensor(one, two), 0.0
        yield f"AB|C {seed}", tensor(two, one), 0.0
        b_ac = tensor(one, two).amplitudes.reshape(2, 2, 2).transpose(1, 0, 2)  # qubits B, A, C
        yield f"B|AC {seed}", new_state(3, b_ac.ravel()), 0.0
    product = tensor(tensor(random_state(1, 0), random_state(1, 1)), random_state(1, 2))
    yield "product", product, 0.0


def test_tau_is_the_ckw_three_tangle_for_n_3():
    for name, s, known in three_qubit_states():
        got, want = tau(s), ckw_tangle(s)
        assert abs(got - want) <= 1e-6, (name, got, want)
        assert known is None or abs(want - known) <= 1e-6, (name, want, known)
