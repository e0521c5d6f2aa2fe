"""Shared oracles and random-input helpers.

The oracles here deliberately take a different route from the package: maps
are lifted to explicit superoperator matrices acting on row-major vec'd
states, so the package's Pauli-coefficient contractions get checked against
plain matrix multiplication in a different representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from qsink.entanglement import negativity
from qsink.ptm import PSD_TOL, SIGMA

# Negativity above this counts as entangled.
ENTANGLEMENT_TOL = 1e-10
_FLAT_TOL = 1e-9  # tolerance for the trace-preserving / unital row and column


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


def vec(op: np.ndarray) -> np.ndarray:
    return np.asarray(op, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int = 2) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim)


def ptm_to_superop(m: np.ndarray) -> np.ndarray:
    """Lift a transfer matrix to the 4x4 superoperator on vec'd 2x2 operators."""
    m = np.asarray(m, dtype=float)
    sup = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            # tr[sigma_j rho] = vec(sigma_j^T) . vec(rho)
            sup += 0.5 * m[i, j] * np.outer(vec(SIGMA[i]), vec(SIGMA[j].T))
    return sup


def identity_ptm() -> np.ndarray:
    return np.eye(4)


def choi(m: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) L[|i><j|], trace 2 for trace-preserving L."""
    # superop[(a b), (i j)] = L[|i><j|][a, b]; the Choi entry [(i a), (j b)] is
    # the same number, so the Choi operator is a reshuffle of the superoperator
    sup = ptm_to_superop(m).reshape(2, 2, 2, 2)
    return sup.transpose(2, 0, 3, 1).reshape(4, 4)


def is_cp(m: np.ndarray) -> bool:
    """Complete positivity: the Choi operator is PSD up to PSD_TOL."""
    return float(np.linalg.eigvalsh(choi(m))[0]) >= -PSD_TOL


def dual(m: np.ndarray) -> np.ndarray:
    """Transfer matrix of the adjoint map (transpose in the Pauli basis)."""
    return np.asarray(m, dtype=float).T.copy()


def is_trace_preserving(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m[0] - np.array([1.0, 0, 0, 0])))) <= _FLAT_TOL


def is_unital(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m[:, 0] - np.array([1.0, 0, 0, 0])))) <= _FLAT_TOL


def is_trace_nonincreasing(m: np.ndarray) -> bool:
    """Whether identity minus the adjoint image of the identity is PSD."""
    eye = np.eye(2, dtype=complex)
    gap = eye - unvec(ptm_to_superop(np.transpose(m)) @ vec(eye))
    return float(np.linalg.eigvalsh(gap)[0]) >= -PSD_TOL


def detection_probability(m: np.ndarray, rho: np.ndarray) -> float:
    """Probability that a photon in state rho survives the map m."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"state must have unit trace, got {np.trace(rho)!r}")
    if float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]) < -1e-9:
        raise ValueError("state must be positive semidefinite")
    return float(np.trace(unvec(ptm_to_superop(m) @ vec(rho))).real)


def is_entangled(rho: np.ndarray) -> bool:
    return negativity(rho) > ENTANGLEMENT_TOL


def two_qubit_superop(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """16x16 superoperator of the product map on vec'd 4x4 operators."""
    t1 = ptm_to_superop(m1).reshape(2, 2, 2, 2)
    t2 = ptm_to_superop(m2).reshape(2, 2, 2, 2)
    # row index (a c b d) <-> output entry [(a,c),(b,d)], column likewise
    return np.einsum("abij,cdkl->acbdikjl", t1, t2).reshape(16, 16)


def apply_two_qubit_oracle(
    m1: np.ndarray, m2: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    return unvec(two_qubit_superop(m1, m2) @ vec(rho), 4)


def random_hermitian(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_separable(rng: np.random.Generator, terms: int = 4) -> np.ndarray:
    """Random convex mixture of product states, separable by construction."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        rho += w * np.kron(random_density(rng, 2), random_density(rng, 2))
    return rho


def random_pd(
    rng: np.random.Generator, dim: int = 2, log_condition: float = 3.0
) -> np.ndarray:
    """Random positive definite matrix with condition number 10**log_condition."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return (q * 10.0 ** np.linspace(0.0, -log_condition, dim)) @ q.conj().T


def read_csv_columns(text: str) -> dict[str, list[float]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {h: [] for h in header}
    for line in lines[1:]:
        for name, value in zip(header, line.split(",")):
            cols[name].append(float(value))
    return cols
