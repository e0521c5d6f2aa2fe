"""Transfer-matrix representation tests, cross-checked against superoperators."""

import numpy as np
import pytest

from conftest import (
    apply,
    apply_two_qubit_oracle,
    choi,
    dual,
    identity_ptm,
    is_cp,
    is_trace_nonincreasing,
    is_trace_preserving,
    is_unital,
    ptm_to_superop,
    random_density,
    random_hermitian,
    sandwich,
    unvec,
    vec,
)
from qsink.dynamics import ChannelParams, ptm_at
from qsink.entanglement import PSI_PLUS, conditional_state, negativity

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def depolarizing(lam: float) -> np.ndarray:
    return np.diag([1.0, lam, lam, lam])


def test_apply_identity(rng):
    rho = random_density(rng, 2)
    assert np.max(np.abs(apply(identity_ptm(), rho) - rho)) < 1e-14


def test_apply_depolarizing_on_ket0():
    out = apply(depolarizing(0.3), KET0)
    assert np.max(np.abs(out - np.diag([0.65, 0.35]))) < 1e-14


def test_apply_matches_superoperator_oracle(rng):
    for _ in range(25):
        m = rng.normal(size=(4, 4))
        rho = random_hermitian(rng, 2)
        expected = unvec(ptm_to_superop(m) @ vec(rho))
        assert np.max(np.abs(apply(m, rho) - expected)) <= 1e-12


def test_apply_stack_matches_single_calls(rng):
    maps = rng.normal(size=(5, 4, 4))
    ops = np.stack([random_hermitian(rng, 2) for _ in range(5)])
    pairs = np.stack([apply(m, rho) for m, rho in zip(maps, ops)])
    assert np.array_equal(apply(maps, ops), pairs)
    assert np.array_equal(apply(maps, ops[0]), np.stack([apply(m, ops[0]) for m in maps]))
    assert np.array_equal(apply(maps[0], ops), np.stack([apply(maps[0], rho) for rho in ops]))


def test_apply_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply(np.eye(3), KET0)
    with pytest.raises(ValueError):
        apply(identity_ptm(), np.eye(4, dtype=complex))


# The product of two one-qubit maps on a two-qubit state, as conditional_state
# applies it to maps lifted from transfer matrices to the matrix-unit basis.


def apply_two_qubit(m1: np.ndarray, m2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The unnormalized output of conditional_state: its state times its probability."""
    out, prob = conditional_state(lift(m1), lift(m2), rho)
    return out * np.asarray(prob)[..., None, None]


def lift(m: np.ndarray) -> np.ndarray:
    """ptm_to_superop on one transfer matrix or on each of a stack."""
    m = np.asarray(m)
    return np.stack([ptm_to_superop(x) for x in m.reshape(-1, 4, 4)]).reshape(m.shape)


def random_map(rng: np.random.Generator) -> np.ndarray:
    """A random transfer matrix outside the loss family that keeps every trace above 0.3."""
    m = rng.normal(size=(4, 4))
    m[0] = np.concatenate(([1.0], rng.uniform(-0.1, 0.1, size=3)))
    return m


def test_apply_two_qubit_identity(rng):
    rho = random_density(rng, 4)
    out = apply_two_qubit(identity_ptm(), identity_ptm(), rho)
    assert np.max(np.abs(out - rho)) < 1e-14


def test_apply_two_qubit_matches_superoperator_oracle(rng):
    params = ChannelParams(1.0, 5.0, 1.0)
    for t in (0.1, 0.4):
        m1 = ptm_at(params, t)
        m2 = ptm_at(ChannelParams(0.5, 0.0, 2.0), t)
        for _ in range(10):
            rho = random_density(rng, 4)
            expected = apply_two_qubit_oracle(m1, m2, rho)
            assert np.max(np.abs(apply_two_qubit(m1, m2, rho) - expected)) <= 1e-12


def test_apply_two_qubit_random_maps_vs_oracle(rng):
    for _ in range(10):
        m1, m2 = random_map(rng), random_map(rng)
        rho = random_density(rng, 4)
        expected = apply_two_qubit_oracle(m1, m2, rho)
        assert np.max(np.abs(apply_two_qubit(m1, m2, rho) - expected)) <= 1e-11


def random_loss_maps(rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, 4, 4) stack of the loss model's maps at random rates and times."""
    return np.stack([
        ptm_at(ChannelParams(*rng.uniform(0.0, 5.0, size=3)), float(rng.uniform(0.0, 2.0)))
        for _ in range(count)
    ])


def test_apply_two_qubit_stacked_matches_single_calls_and_oracle(rng):
    m1, m2 = random_loss_maps(rng, 6), random_loss_maps(rng, 6)
    states = np.stack([random_density(rng, 4) for _ in range(6)])
    # one state per map pair, and one state shared by a stack of pairs
    for rho_stack, rho_at in ((states, lambda k: states[k]), (states[0], lambda k: states[0])):
        out = apply_two_qubit(m1, m2, rho_stack)
        assert out.shape == (6, 4, 4)
        for k in range(6):
            single = apply_two_qubit(m1[k], m2[k], rho_at(k))
            assert np.max(np.abs(out[k] - single)) <= 1e-14
            expected = apply_two_qubit_oracle(m1[k], m2[k], rho_at(k))
            assert np.max(np.abs(out[k] - expected)) <= 1e-12
    nested = apply_two_qubit(m1.reshape(2, 3, 4, 4), m2.reshape(2, 3, 4, 4), states[0])
    assert np.array_equal(nested.reshape(6, 4, 4), apply_two_qubit(m1, m2, states[0]))


def test_apply_two_qubit_rejects_wrong_stack_shapes(rng):
    rho = random_density(rng, 4)
    with pytest.raises(ValueError):
        conditional_state(np.ones((3, 4, 3)), np.eye(4), rho)
    with pytest.raises(ValueError):
        conditional_state(np.eye(4), np.eye(4), np.stack([np.eye(2)] * 3))


def test_apply_two_qubit_factorizes_products(rng):
    m1 = ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.2)
    m2 = ptm_at(ChannelParams(0.0, 0.0, 3.0), 0.2)
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    joint = apply_two_qubit(m1, m2, np.kron(r1, r2))
    assert np.max(np.abs(joint - np.kron(apply(m1, r1), apply(m2, r2)))) <= 1e-12


def test_apply_two_qubit_identity_on_second_factor(rng):
    m1 = ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.3)
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    out = apply_two_qubit(m1, identity_ptm(), np.kron(r1, r2))
    assert np.max(np.abs(out - np.kron(apply(m1, r1), r2))) <= 1e-12


def test_werner_negativity_from_depolarized_pair():
    rho_plus = np.outer(PSI_PLUS, PSI_PLUS.conj())
    for lam in (0.2, 0.5, 0.7, 0.9, 1.0):
        out = apply_two_qubit(depolarizing(lam), depolarizing(lam), rho_plus)
        expected = max(0.0, (3.0 * lam * lam - 1.0) / 4.0)
        assert abs(negativity(out) - expected) <= 1e-12


def test_dual_defining_identity(rng):
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        x, y = random_hermitian(rng, 2), random_hermitian(rng, 2)
        lhs = np.trace(x @ apply(m, y))
        rhs = np.trace(apply(dual(m), x) @ y)
        assert abs(lhs - rhs) <= 1e-12


def test_dual_is_involution(rng):
    m = rng.normal(size=(4, 4))
    assert np.array_equal(dual(dual(m)), m)


def test_loss_model_map_is_self_dual():
    m = ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.7)
    assert np.array_equal(dual(m), m)


def test_dual_reverses_composition(rng):
    m1, m2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    lhs = dual(m1) @ dual(m2)
    rhs = dual(m2 @ m1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_compose_is_sequential_application(rng):
    m1 = ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.2)
    m2 = ptm_at(ChannelParams(0.5, 0.5, 2.0), 0.4)
    rho = random_density(rng, 2)
    direct = apply(m1 @ m2, rho)
    sequential = apply(m1, apply(m2, rho))
    assert np.max(np.abs(direct - sequential)) <= 1e-13


def test_sandwich_identity_operator():
    assert np.max(np.abs(sandwich(np.eye(2, dtype=complex)) - identity_ptm())) < 1e-15


def test_sandwich_diagonal_scaling():
    alpha, beta = 0.8, 1.3
    out = apply(sandwich(np.diag([alpha, beta]).astype(complex)), KET0)
    assert np.max(np.abs(out - alpha * alpha * KET0)) < 1e-14


def test_sandwich_matches_direct_conjugation(rng):
    for _ in range(20):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = random_hermitian(rng, 2)
        expected = x @ rho @ x.conj().T
        assert np.max(np.abs(apply(sandwich(x), rho) - expected)) <= 1e-12


def test_sandwich_multiplicative(rng):
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = sandwich(x @ y)
    rhs = sandwich(x) @ sandwich(y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_choi_of_identity_is_bell_projector():
    c = choi(identity_ptm())
    expected = 2.0 * np.outer(PSI_PLUS, PSI_PLUS.conj())
    assert np.max(np.abs(c - expected)) < 1e-14
    assert abs(np.trace(c) - 2.0) < 1e-14


def test_choi_of_completely_depolarizing():
    c = choi(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.max(np.abs(c - np.eye(4) / 2.0)) < 1e-14


def test_choi_is_hermitian_and_psd_for_loss_model():
    c = choi(ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.3))
    assert np.max(np.abs(c - c.conj().T)) <= 1e-12
    assert float(np.linalg.eigvalsh(c)[0]) >= -1e-10


def test_choi_is_linear(rng):
    m1, m2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    alpha = 0.3
    mixed = choi(alpha * m1 + (1.0 - alpha) * m2)
    expected = alpha * choi(m1) + (1.0 - alpha) * choi(m2)
    assert np.max(np.abs(mixed - expected)) <= 1e-12


def test_predicates_on_identity():
    m = identity_ptm()
    assert is_cp(m) and is_trace_preserving(m) and is_unital(m)
    assert is_trace_nonincreasing(m)


def test_transpose_map_is_not_cp():
    assert not is_cp(np.diag([1.0, 1.0, -1.0, 1.0]))


def test_predicates_on_lossy_map():
    m = ptm_at(ChannelParams(1.0, 5.0, 1.0), 0.5)
    assert is_cp(m)
    assert is_trace_nonincreasing(m)
    assert not is_trace_preserving(m)
    assert not is_unital(m)


def test_predicates_on_pure_depolarization():
    m = ptm_at(ChannelParams(0.0, 0.0, 2.0), 0.5)
    assert is_cp(m) and is_trace_preserving(m) and is_unital(m)


def test_expanding_map_is_not_trace_nonincreasing():
    assert not is_trace_nonincreasing(np.diag([1.2, 0.0, 0.0, 0.0]))
