"""Small dense Hermitian linear algebra helpers.

Everything here operates on plain complex numpy arrays and is sized for the
2x2 and 4x4 problems the rest of the package deals in.  Inputs that are
supposed to be Hermitian are symmetrized before use and rejected if they are
further than HERMITICITY_TOL from their own adjoint.
"""

from __future__ import annotations

import numpy as np

# Max allowed |m - m^dag| before an input no longer counts as Hermitian.
HERMITICITY_TOL = 1e-10
# Smallest eigenvalue still accepted as "positive definite".
PD_MIN_EIG = 1e-12


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m^dag)/2, refusing inputs that are not Hermitian to tolerance."""
    m = _as_square(m)
    drift = float(np.max(np.abs(m - m.conj().T)))
    if drift > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dag| = {drift:.3e}")
    return 0.5 * (m + m.conj().T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a), _as_square(b))


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 two-qubit operator."""
    rho = _as_square(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(m)))))


def pd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via its spectrum."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    if vals[0] <= PD_MIN_EIG:
        raise ValueError(
            f"pd_inverse needs a positive definite matrix; "
            f"smallest eigenvalue is {vals[0]:.3e}"
        )
    return (vecs * (1.0 / vals)) @ vecs.conj().T
