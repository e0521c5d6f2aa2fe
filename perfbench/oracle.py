"""Independent values for `evolve` output: negativity and detection probability.

Nothing here calls qsink.  Each line's map is exp(L t) for the master
equation's generator L, written on row-major vec'd 2x2 operators straight
from the anticommutator and Pauli-sandwich terms (L is real symmetric, so
exp comes from `eigh`).  The two-qubit map acts on the (i1 j1) x (i2 j2)
reshuffle of the state, a different route from the Pauli correlation
transform the package uses.  All rows of a trace are computed as arrays.
"""

from __future__ import annotations

import numpy as np

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _generator(rates: tuple[float, float, float]) -> np.ndarray:
    # vec(A X B) = (A kron B^T) vec(X) for row-major vec.
    gamma_h, gamma_v, gamma = rates
    loss = np.diag([gamma_h, gamma_v]).astype(complex)
    eye = np.eye(2, dtype=complex)
    gen = -0.5 * (np.kron(loss, eye) + np.kron(eye, loss.T))
    for pauli in _PAULIS:
        gen += 0.25 * gamma * np.kron(pauli, pauli.T)
    gen -= 0.75 * gamma * np.eye(4)
    return gen.real


def line_maps(rates: tuple[float, float, float], times: np.ndarray) -> np.ndarray:
    """(T, 4, 4) superoperators exp(L t) on row-major vec'd 2x2 operators."""
    vals, vecs = np.linalg.eigh(_generator(rates))
    return np.einsum("ik,tk,jk->tij", vecs, np.exp(np.outer(times, vals)), vecs)


def conditional_traces(
    maps1: np.ndarray, maps2: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Negativity of the postselected state and detection probability per time."""
    # rho[(i1 i2), (j1 j2)] -> x[(i1 j1), (i2 j2)]
    x = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    out = np.einsum("tab,bc,tdc->tad", maps1, x, maps2)
    out = out.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    prob = np.einsum("tii->t", out).real
    out = out / prob[:, None, None]
    # partial transpose of the second qubit: swap i2 and j2
    pt = out.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    pt = 0.5 * (pt + pt.conj().transpose(0, 2, 1))
    norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=1)
    return np.maximum(0.0, 0.5 * (norm - 1.0)), prob
