"""Small dense Hermitian linear algebra helpers.

Everything here operates on plain complex numpy arrays and is sized for the
2x2 and 4x4 problems the rest of the package deals in.  hermitian_part,
partial_transpose_second, trace_norm and pd_inverse also take a stack
(..., n, n) of such matrices and work on each.  Inputs that are supposed to
be Hermitian are symmetrized before use and rejected if they are further
than HERMITICITY_TOL from their own adjoint.
"""

from __future__ import annotations

import numpy as np

# Max allowed |m - m^dag| before an input no longer counts as Hermitian.
HERMITICITY_TOL = 1e-10
# Smallest eigenvalue still accepted as "positive definite".
PD_MIN_EIG = 1e-12


def _first_flagged(values: np.ndarray, flags: np.ndarray) -> float | None:
    """The first entry of values where flags is set, None if it is set nowhere."""
    hits = np.asarray(values)[flags]
    return float(hits[0]) if hits.size else None


def _as_matrices(m: np.ndarray) -> np.ndarray:
    """m as a complex array of square matrices: one (n, n) or a stack (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m^dag)/2, refusing inputs that are not Hermitian to tolerance."""
    m = _as_matrices(m)
    # ndarray methods, cheaper than the numpy functions: the fixed-point
    # iteration calls this tens of thousands of times on 2x2 inputs
    adjoint = m.swapaxes(-1, -2).conj()
    drift = float(np.abs(m - adjoint).max())
    # fails closed: a NaN entry gives a NaN drift
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


def trace_norm(m: np.ndarray) -> np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix: a float, or one per matrix of a stack."""
    return np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(m))), axis=-1)


def pd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix (or of each in a stack) via its spectrum."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    # fails closed: a NaN eigenvalue is not positive either
    low = vals[..., 0]
    bad = _first_flagged(low, ~(low > PD_MIN_EIG))
    if bad is not None:
        raise ValueError(
            f"pd_inverse needs a positive definite matrix; smallest eigenvalue is {bad:.3e}"
        )
    return (vecs * (1.0 / vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
