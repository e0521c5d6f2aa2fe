"""Small dense Hermitian linear algebra helpers, and the Pauli matrices.

Everything here operates on plain numpy arrays and is sized for the 2x2
and 4x4 problems the rest of the package deals in.  hermitian_part and
partial_transpose_second take a complex matrix or a stack (..., n, n) of
them and work on each; inputs that are supposed to be Hermitian are
symmetrized before use and rejected if they are further than
HERMITICITY_TOL from their own adjoint.  pauli_eigenvalues and pd_inverse
work on qubit operators held as their real Pauli coefficients
c_k = tr[sigma_k X], one per operator in the last axis of a (..., 4)
stack; real coefficients can only describe Hermitian operators, so they
need no such check.  X = (c_0 + c . sigma) / 2 has the eigenvalues
(c_0 -+ |c|) / 2, so neither needs an eigendecomposition.

SIGMA holds the Pauli matrices in the index order (identity, x, y, z) of
the transfer matrices m[i, j] = tr[sigma_i L[sigma_j]] / 2; the
polarization basis |H>, |V> is identified with |0>, |1>.  PAULI_INPUTS
holds the same four vec'd, one per column.
"""

from __future__ import annotations

import numpy as np

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# sigma_0..3 vec'd row-major, one per column: a map s on the matrix units
# takes them to their images s @ PAULI_INPUTS
PAULI_INPUTS = np.stack([s.reshape(-1) for s in SIGMA], axis=1)

# Max allowed |m - m^dag| before an input no longer counts as Hermitian.
HERMITICITY_TOL = 1e-10
# Smallest eigenvalue still accepted as "positive definite".
PD_MIN_EIG = 1e-12
# How negative an eigenvalue may get before a "positive semidefinite" claim fails.
PSD_TOL = 1e-9

# the signs of (c_0, -c), X^-1's coefficients up to their common factor
_INVERSE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _refuse_flagged(values: np.ndarray, flags: np.ndarray, message: str) -> None:
    """Raise ValueError(message.format(v)), v the first entry of values where flags is set."""
    hits = np.asarray(values)[flags]
    if hits.size:
        raise ValueError(message.format(float(hits[0])))


def _as_matrices(m: np.ndarray) -> np.ndarray:
    """m as a complex array of square matrices: one (n, n) or a stack (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m^dag)/2, refusing inputs that are not Hermitian to tolerance."""
    m = _as_matrices(m)
    # ndarray methods, cheaper than the numpy functions on 2x2 inputs
    adjoint = m.swapaxes(-1, -2).conj()
    drift = float(np.abs(m - adjoint).max(initial=0.0))
    # fails closed: a NaN entry gives a NaN drift; an empty stack has none
    if not drift <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {drift:.3e}")
    return 0.5 * (m + adjoint)


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 two-qubit operator (or of each in a stack)."""
    rho = _as_matrices(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    lead = rho.shape[:-2]
    # axes (..., a, b, c, d) for the entry [(a, b), (c, d)]: swap b and d
    return np.swapaxes(rho.reshape(lead + (2, 2, 2, 2)), -3, -1).reshape(lead + (4, 4))


def pauli_eigenvalues(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (c_0 - |c|) / 2 <= (c_0 + |c|) / 2 of X = (c_0 + c . sigma) / 2.

    c holds the Pauli coefficients c_k = tr[sigma_k X], k = 0..3, of one
    operator or of each of a (..., 4) stack.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim < 1 or c.shape[-1] != 4:
        raise ValueError(f"expected Pauli coefficients (..., 4), got shape {c.shape}")
    c_0 = c[..., 0]
    # |c| without squares, which would overflow first
    length = np.hypot(np.hypot(c[..., 1], c[..., 2]), c[..., 3])
    return 0.5 * (c_0 - length), 0.5 * (c_0 + length)


def pd_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite qubit operator (or of each of a stack) on Pauli coefficients.

    c holds c_k = tr[sigma_k X], k = 0..3; X^-1 has the coefficients
    (c_0, -c) / (low high), with low and high X's eigenvalues
    (pauli_eigenvalues).
    """
    c = np.asarray(c, dtype=float)
    low, high = pauli_eigenvalues(c)
    # fails closed: a NaN eigenvalue is not positive either
    _refuse_flagged(low, ~(low > PD_MIN_EIG),
                    "pd_inverse needs a positive definite matrix; smallest eigenvalue is {:.3e}")
    # 2 low and 2 high are c_0 -+ |c| to the bit, since low > PD_MIN_EIG
    return c * (4.0 / ((2.0 * low) * (2.0 * high)))[..., None] * _INVERSE_SIGNS
