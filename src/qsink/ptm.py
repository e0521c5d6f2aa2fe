"""Pauli transfer matrix representation of qubit maps.

A linear map L on qubit operators is stored as the real 4x4 matrix

    m[i, j] = tr[sigma_i L[sigma_j]] / 2,

with Pauli index order (identity, x, y, z).  States stay plain complex
numpy arrays; the polarization basis |H>, |V> is identified with |0>, |1>.

The normal form's filters are real and diagonal, so their transfer
matrices are formed in closed form (diagonal_sandwich).  The general
sandwich of an arbitrary 2x2 operator is a test oracle in tests/conftest.py.
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

# How negative an eigenvalue may get before a "positive semidefinite" claim fails.
PSD_TOL = 1e-9


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


def diagonal_sandwich(h: float, v: float) -> np.ndarray:
    """Transfer matrix of rho -> X rho X for a real diagonal filter X = diag(h, v).

    Only the identity/z block and the x, y diagonal are nonzero.  Each entry
    is the sum of products that the general contraction
    m[i, j] = tr[sigma_i X sigma_j X^dag] / 2 forms, in closed form.
    """
    hh, vv, hv = h * h, v * v, h * v
    plus, minus, cross = 0.5 * (hh + vv), 0.5 * (hh - vv), 0.5 * (hv + hv)
    return np.array(
        [
            [plus, 0.0, 0.0, minus],
            [0.0, cross, 0.0, 0.0],
            [0.0, 0.0, cross, 0.0],
            [minus, 0.0, 0.0, plus],
        ]
    )
