"""Dense Hermitian helper tests."""

import numpy as np
import pytest

from conftest import random_hermitian, random_pd
from qsink.linalg import (
    hermitian_part,
    kron,
    partial_transpose_second,
    pd_inverse,
    trace_norm,
)
from qsink.ptm import SIGMA

PSI_PLUS_RHO = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4, dtype=complex))
    assert np.array_equal(
        kron(SIGMA[3], SIGMA[3]), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    )


def test_kron_flips_both_qubits():
    ket00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    ket11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.array_equal(kron(SIGMA[1], SIGMA[1]) @ ket00, ket11)


def test_kron_mixed_product_and_trace(rng):
    a, b, c, d = (random_hermitian(rng, 2) for _ in range(4))
    assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) < 1e-12
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_associative(rng):
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


def test_kron_rejects_nonsquare():
    with pytest.raises(ValueError):
        kron(np.ones((2, 3)), np.eye(2))


def test_partial_transpose_fixes_maximally_mixed():
    mixed = np.eye(4, dtype=complex) / 4.0
    assert np.array_equal(partial_transpose_second(mixed), mixed)


def test_partial_transpose_psi_plus_spectrum():
    pt = partial_transpose_second(PSI_PLUS_RHO)
    # independent route: plain numpy eigendecomposition of the 4x4
    direct = np.sort(np.linalg.eigvalsh(pt))
    assert np.max(np.abs(direct - np.array([-0.5, 0.5, 0.5, 0.5]))) < 1e-12


def test_partial_transpose_involution_and_trace(rng):
    x = random_hermitian(rng, 4)
    assert np.array_equal(partial_transpose_second(partial_transpose_second(x)), x)
    assert np.trace(partial_transpose_second(x)) == np.trace(x)


def test_partial_transpose_preserves_hermiticity(rng):
    x = random_hermitian(rng, 4)
    pt = partial_transpose_second(x)
    assert np.max(np.abs(pt - pt.conj().T)) == 0.0


def test_partial_transpose_rejects_wrong_size():
    with pytest.raises(ValueError):
        partial_transpose_second(np.eye(2, dtype=complex))


def test_hermitian_eigen_rejects_drift():
    with pytest.raises(ValueError):
        hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_hermitian_part_symmetrizes_small_drift():
    base = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    drift = np.array([[0.0, 1e-12], [0.0, 0.0]])
    sym = hermitian_part(base + drift)
    assert np.max(np.abs(sym - sym.conj().T)) == 0.0


def test_trace_norm_values():
    assert abs(trace_norm(np.eye(4, dtype=complex)) - 4.0) < 1e-12
    assert abs(trace_norm(SIGMA[3]) - 2.0) < 1e-12
    assert abs(trace_norm(partial_transpose_second(PSI_PLUS_RHO)) - 2.0) < 1e-12


def test_trace_norm_matches_eigenvalue_sum(rng):
    h = random_hermitian(rng, 4)
    assert abs(trace_norm(h) - np.sum(np.abs(np.linalg.eigvalsh(h)))) <= 1e-10


def test_pd_inverse_moderate_condition(rng):
    for _ in range(20):
        m = random_pd(rng, 4, log_condition=4.0)
        assert np.max(np.abs(pd_inverse(m) @ m - np.eye(4))) <= 1e-10


def test_pd_inverse_condition_1e6(rng):
    # at condition 1e6 the representation floor is eps * cond ~ 2e-10, so the
    # residual bound is an order above the moderate-condition one
    for _ in range(20):
        m = random_pd(rng, 4, log_condition=6.0)
        assert np.max(np.abs(pd_inverse(m) @ m - np.eye(4))) <= 1e-9


def test_pd_rejects_indefinite_and_singular():
    with pytest.raises(ValueError):
        pd_inverse(SIGMA[3])
    with pytest.raises(ValueError):
        pd_inverse(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        pd_inverse(np.diag([1.0, 1e-13]).astype(complex))
