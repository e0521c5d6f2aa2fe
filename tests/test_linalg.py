"""Dense Hermitian helper tests."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_pd
from qsink.entanglement import conditional_state, negativity
from qsink.linalg import (
    SIGMA,
    hermitian_part,
    partial_transpose_second,
    pauli_eigenvalues,
    pd_inverse,
)
from qsink.sinkhorn import fixed_point_iterate

PSI_PLUS_RHO = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


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
    # a NaN drift compares false against any tolerance; the check fails closed
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_part(np.full((2, 2), np.nan, dtype=complex))


def test_hermitian_part_symmetrizes_small_drift():
    base = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    drift = np.array([[0.0, 1e-12], [0.0, 0.0]])
    sym = hermitian_part(base + drift)
    assert np.max(np.abs(sym - sym.conj().T)) == 0.0


def test_stacked_partial_transpose_matches_single_calls(rng):
    stack = np.stack([random_density(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    pt = partial_transpose_second(stack)
    assert pt.shape == (2, 3, 4, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(pt[i, j], partial_transpose_second(stack[i, j]))


def test_hermitian_part_of_a_stack_rejects_one_drifting_matrix(rng):
    stack = np.stack([random_hermitian(rng, 4) for _ in range(4)])
    sym = hermitian_part(stack)
    assert np.max(np.abs(sym - np.swapaxes(sym, -1, -2).conj())) == 0.0
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        hermitian_part(stack)
    with pytest.raises(ValueError):
        hermitian_part(np.ones((3, 4, 2)))


def coefficients(x: np.ndarray) -> np.ndarray:
    """Pauli coefficients tr[sigma_k x] of a Hermitian qubit operator (or of each in a stack)."""
    return np.einsum("kab,...ba->...k", np.stack(SIGMA), x).real


def operator(c: np.ndarray) -> np.ndarray:
    """The qubit operator (c_0 + c . sigma) / 2 with Pauli coefficients c."""
    return 0.5 * np.einsum("...k,kab->...ab", c, np.stack(SIGMA))


def test_pauli_eigenvalues_are_the_spectrum(rng):
    ops = np.stack([random_hermitian(rng, 2) for _ in range(20)])
    low, high = pauli_eigenvalues(coefficients(ops))
    assert np.max(np.abs(np.stack([low, high], axis=-1) - np.linalg.eigvalsh(ops))) <= 1e-14


def test_pd_inverse_moderate_condition(rng):
    for _ in range(20):
        m = random_pd(rng, 2, log_condition=2.0)
        assert np.max(np.abs(operator(pd_inverse(coefficients(m))) @ m - np.eye(2))) <= 1e-10


def test_pd_inverse_condition_1e6(rng):
    # at condition 1e6 the representation floor is eps * cond ~ 2e-10, so the
    # residual bound is an order above the moderate-condition one
    for _ in range(20):
        m = random_pd(rng, 2, log_condition=6.0)
        assert np.max(np.abs(operator(pd_inverse(coefficients(m))) @ m - np.eye(2))) <= 1e-9


def test_pd_rejects_indefinite_and_singular():
    with pytest.raises(ValueError):
        pd_inverse(coefficients(SIGMA[3]))
    with pytest.raises(ValueError):
        pd_inverse(np.zeros(4))
    with pytest.raises(ValueError):
        pd_inverse(coefficients(np.diag([1.0, 1e-13]).astype(complex)))


def test_pd_inverse_takes_coefficients_not_matrices():
    with pytest.raises(ValueError, match="Pauli coefficients"):
        pd_inverse(np.eye(2))


def test_pd_inverse_stack_matches_single_calls(rng):
    stack = coefficients(np.stack([random_pd(rng, 2, log_condition=3.0) for _ in range(6)]))
    single = np.stack([pd_inverse(c) for c in stack])
    assert np.array_equal(pd_inverse(stack), single)
    assert np.array_equal(pd_inverse(stack.reshape(2, 3, 4)), single.reshape(2, 3, 4))


def test_pd_inverse_stack_names_the_bad_matrix(rng):
    stack = np.stack([random_pd(rng, 2), np.diag([1.0, -0.5]).astype(complex), random_pd(rng, 2)])
    with pytest.raises(ValueError, match="-5.000e-01"):
        pd_inverse(coefficients(stack))


def test_pd_inverse_rejects_nan():
    # fails closed: a NaN eigenvalue is not positive
    with pytest.raises(ValueError, match="nan"):
        pd_inverse(np.full(4, np.nan))


def _stack(*entries) -> np.ndarray:
    return np.stack([np.asarray(entry, dtype=float) for entry in entries])


_MIXED = np.eye(4) / 4.0
_VANISHING = _stack(np.eye(4), 1e-8 * np.eye(4), np.zeros((4, 4)))
# the identity maps to (1, 0, 0, 3), with eigenvalues -1 and 2
_SKEWED = np.eye(4)
_SKEWED[3, 0] = 3.0
# (I + sigma_x) / 2 maps to (1, 2, 0, 0), with eigenvalues -0.5 and 1.5
_STRETCHED = np.diag([1.0, 2.0, 1.0, 1.0])

# Each refusal of a stack, reached through a public function, and its exact
# message.  Entry 0 of each stack is good and entries 1 and 2 are bad in
# different ways, so the message must name entry 1's value.
_REFUSALS = {
    "pd_inverse": (
        lambda: pd_inverse(_stack([2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 3.0], np.zeros(4))),
        "pd_inverse needs a positive definite matrix; smallest eigenvalue is -1.000e+00",
    ),
    "state_not_psd": (
        lambda: negativity(_stack(_MIXED, np.diag([0.5, 0.6, -0.1, 0.0]),
                                  np.diag([0.6, 0.6, -0.2, 0.0]))),
        "state is not positive semidefinite (min eigenvalue -1.000e-01)",
    ),
    # conditional_state, the one check of a unit trace, takes one initial state
    "state_not_unit_trace": (
        lambda: conditional_state(np.eye(4), np.eye(4), 0.5 * _MIXED),
        "state must have unit trace, got 0.5",
    ),
    "state_trace_outside_unit_interval": (
        lambda: negativity(_stack(_MIXED, 1.5 * _MIXED, 2.0 * _MIXED)),
        "state trace must lie in (0, 1], got 1.5",
    ),
    "detection_vanished": (
        lambda: conditional_state(_VANISHING, _VANISHING, _MIXED),
        "detection probability vanished (1.000e-16)",
    ),
    "map_not_strictly_positive": (
        lambda: fixed_point_iterate(_stack(np.eye(4), _SKEWED, np.zeros((4, 4)))),
        "map is not strictly positive: identity maps to min eigenvalue -1.000e+00",
    ),
    "map_not_positive_on_probe": (
        lambda: fixed_point_iterate(_stack(np.eye(4), _STRETCHED, 2.0 * _STRETCHED - np.eye(4))),
        "map is not positive on a Pauli eigenstate probe (min eigenvalue -5.000e-01)",
    ),
    "map_not_finite": (
        lambda: fixed_point_iterate(_stack(np.eye(4), np.full((4, 4), np.inf),
                                           np.full((4, 4), np.nan))),
        "map entries must be finite, got inf",
    ),
}


@pytest.mark.parametrize("call, message", _REFUSALS.values(), ids=list(_REFUSALS))
def test_every_stack_refusal_names_its_first_bad_entry(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
