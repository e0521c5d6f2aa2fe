"""Pauli transfer matrix representation of qubit maps.

A linear map L on qubit operators is stored as the real 4x4 matrix

    m[i, j] = tr[sigma_i L[sigma_j]] / 2,

with Pauli index order (identity, x, y, z).  States stay plain complex
numpy arrays; the polarization basis |H>, |V> is identified with |0>, |1>.
For a two-qubit product map the correlation matrix R_ij = tr[(sigma_i x
sigma_j) rho] transforms as R -> m1 R m2^T, which is what apply_two_qubit
implements.
"""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_part

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_SIG = np.stack(SIGMA)
# Two-qubit Pauli products, index 4*i + j  <->  sigma_i (x) sigma_j.
SIGMA2 = tuple(np.kron(a, b) for a in SIGMA for b in SIGMA)
_SIG2 = np.stack(SIGMA2)

# How negative an eigenvalue may get before a "positive semidefinite" claim fails.
PSD_TOL = 1e-9


def _check_ptm(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 transfer matrix, got shape {m.shape}")
    return m


def apply(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply the map with transfer matrix m to a Hermitian 2x2 operator.

    Either may also be a stack, (..., 4, 4) maps or (..., 2, 2) operators;
    the stacks broadcast against each other and the result is one operator
    per pair.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 transfer matrix, got shape {m.shape}")
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho.shape}")
    coeffs = np.einsum("kab,...ba->...k", _SIG, rho)
    return 0.5 * np.einsum("...k,kab->...ab", (m @ coeffs[..., None])[..., 0], _SIG)


def apply_two_qubit(m1: np.ndarray, m2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply the product map (first qubit m1, second m2) to a 4x4 operator.

    Any of the three may also be a stack (..., 4, 4); the stacks broadcast
    against each other and the result is one operator per map pair.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape[-2:] != (4, 4) or m2.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 transfer matrices, got shapes {m1.shape} and {m2.shape}")
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    corr = np.einsum("kab,...ba->...k", _SIG2, rho)
    corr = m1 @ corr.reshape(corr.shape[:-1] + (4, 4)) @ np.swapaxes(m2, -1, -2)
    return 0.25 * np.einsum("...k,kab->...ab", corr.reshape(corr.shape[:-2] + (16,)), _SIG2)


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Transfer matrix of outer . inner (inner acts first)."""
    return _check_ptm(outer) @ _check_ptm(inner)


def sandwich(x: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> x rho x^dag for an arbitrary 2x2 operator x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {x.shape}")
    m = 0.5 * np.einsum("iab,bc,jcd,ad->ij", _SIG, x, _SIG, x.conj())
    return np.ascontiguousarray(m.real)
