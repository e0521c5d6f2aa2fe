"""Lifetime equation, conditional states, and the optimal initial state."""

import math

import numpy as np
import pytest

from conftest import (
    apply_two_qubit_oracle,
    identity_ptm,
    is_entangled,
    random_density,
    random_pure_density,
    random_separable,
)
from qsink.dynamics import ChannelParams, ptm_at
from qsink.entanglement import (
    PSI_PLUS,
    conditional_state,
    lifetime_lhs,
    max_lifetime,
    negativity,
    optimal_state,
)
from qsink.ptm import apply_two_qubit
from qsink.sinkhorn import decompose

REFERENCE = ChannelParams(1.0, 5.0, 1.0)
RHO_PSI_PLUS = np.outer(PSI_PLUS, PSI_PLUS.conj())


def werner(p: float) -> np.ndarray:
    return p * RHO_PSI_PLUS + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def depolarizing(g: float) -> ChannelParams:
    return ChannelParams(0.0, 0.0, g)


# ---------------------------------------------------------------------------
# negativity / is_entangled
# ---------------------------------------------------------------------------


def test_negativity_maximally_entangled():
    assert abs(negativity(RHO_PSI_PLUS) - 0.5) <= 1e-12


def test_negativity_product_state():
    ket_hh = np.zeros((4, 4), dtype=complex)
    ket_hh[0, 0] = 1.0
    assert negativity(ket_hh) <= 1e-12


def test_negativity_werner_line():
    for p in (0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 4.0)
        assert abs(negativity(werner(p)) - expected) <= 1e-12


def test_negativity_normalizes_subnormalized_input():
    assert abs(negativity(0.3 * RHO_PSI_PLUS) - 0.5) <= 1e-12


def test_negativity_rejects_bad_input():
    with pytest.raises(ValueError):
        negativity(2.0 * RHO_PSI_PLUS)  # trace 2
    with pytest.raises(ValueError):
        negativity(np.diag([0.5, 0.6, -0.1, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        negativity(np.eye(2, dtype=complex) / 2.0)


def test_negativity_no_false_positives_on_separable(rng):
    for _ in range(100):
        assert not is_entangled(random_separable(rng))


def test_is_entangled_werner_threshold():
    assert not is_entangled(werner(1.0 / 3.0))
    assert not is_entangled(werner(0.3))
    assert is_entangled(werner(0.34))


# ---------------------------------------------------------------------------
# conditional_state
# ---------------------------------------------------------------------------


def test_conditional_state_identity_channels():
    out, prob = conditional_state(identity_ptm(), identity_ptm(), RHO_PSI_PLUS)
    assert abs(prob - 1.0) <= 1e-14
    assert np.max(np.abs(out - RHO_PSI_PLUS)) <= 1e-12


def test_conditional_state_matches_superoperator_oracle():
    m1 = ptm_at(REFERENCE, 0.2)
    m2 = ptm_at(ChannelParams(0.5, 2.0, 0.0), 0.2)
    raw = apply_two_qubit_oracle(m1, m2, RHO_PSI_PLUS)
    expected_prob = float(np.trace(raw).real)
    out, prob = conditional_state(m1, m2, RHO_PSI_PLUS)
    assert abs(prob - expected_prob) <= 1e-12
    assert np.max(np.abs(out - raw / expected_prob)) <= 1e-12


def test_conditional_state_rescaling_invariance():
    m1 = ptm_at(REFERENCE, 0.4)
    m2 = ptm_at(REFERENCE, 0.4)
    base_state, base_prob = conditional_state(m1, m2, RHO_PSI_PLUS)
    for p in (0.1, 0.5, 0.9):
        out, prob = conditional_state(p * m1, m2, RHO_PSI_PLUS)
        assert np.max(np.abs(out - base_state)) <= 1e-12
        assert abs(prob - p * base_prob) <= 1e-12


def test_conditional_state_vanishing_probability():
    with pytest.raises(ValueError):
        conditional_state(np.zeros((4, 4)), identity_ptm(), RHO_PSI_PLUS)


def test_conditional_state_requires_normalized_input():
    with pytest.raises(ValueError):
        conditional_state(identity_ptm(), identity_ptm(), 0.5 * RHO_PSI_PLUS)


# ---------------------------------------------------------------------------
# stacks of maps and states
# ---------------------------------------------------------------------------


def test_stacked_conditional_state_and_negativity_match_single_calls(rng):
    lines = [ChannelParams(*rng.uniform(0.0, 5.0, size=3)) for _ in range(2)]
    times = rng.uniform(0.0, 1.5, size=8)
    m1 = np.stack([ptm_at(lines[0], float(t)) for t in times])
    m2 = np.stack([ptm_at(lines[1], float(t)) for t in times])
    # non-X states: every entry of the density matrix is populated
    for initial in (RHO_PSI_PLUS, random_pure_density(rng, 4), random_density(rng, 4)):
        states, probs = conditional_state(m1, m2, initial)
        negs = negativity(states)
        assert states.shape == (8, 4, 4) and probs.shape == (8,) and negs.shape == (8,)
        for k in range(8):
            state, prob = conditional_state(m1[k], m2[k], initial)
            assert np.max(np.abs(states[k] - state)) <= 1e-14
            assert abs(probs[k] - prob) <= 1e-14
            assert abs(negs[k] - negativity(state)) <= 1e-14


def test_stacks_with_one_bad_row_are_rejected():
    good = np.stack([RHO_PSI_PLUS] * 4)
    for bad_row, message in (
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
        # a named check, not a LinAlgError from the eigensolver
        (np.full((4, 4), np.nan), "not Hermitian"),
        (np.diag([0.5, 0.6, -0.1, 0.0]), "positive semidefinite"),
        (2.0 * RHO_PSI_PLUS, "trace"),
    ):
        stack = good.copy()
        stack[2] = np.pad(bad_row, (0, 4 - len(bad_row)))
        with pytest.raises(ValueError, match=message):
            negativity(stack)
    maps = np.stack([identity_ptm()] * 4)
    maps[1] *= 1e-8
    maps[3] = 0.0
    # the error reports the first row whose probability vanished
    with pytest.raises(ValueError, match=r"vanished \(1\.000e-16\)"):
        conditional_state(maps, maps, RHO_PSI_PLUS)
    with pytest.raises(ValueError, match="not Hermitian"):
        conditional_state(maps[0], maps[0], np.full((4, 4), np.nan))


# ---------------------------------------------------------------------------
# lifetime_lhs / max_lifetime
# ---------------------------------------------------------------------------


def test_lifetime_lhs_at_zero():
    assert lifetime_lhs(REFERENCE, depolarizing(2.0), 0.0) == 2.0


def test_lifetime_lhs_symmetric_depolarization():
    g = 1.0
    for t in (0.1, 0.3, 0.5493, 1.0):
        value = lifetime_lhs(depolarizing(g), depolarizing(g), t)
        assert abs(value - (3.0 * math.exp(-2.0 * g * t) - 1.0)) <= 1e-12


def test_lifetime_lhs_pure_loss_never_decays():
    params = ChannelParams(1.0, 5.0, 0.0)
    for t in (0.5, 5.0, 50.0, 100.0):
        assert abs(lifetime_lhs(params, params, t) - 2.0) <= 1e-12


def test_max_lifetime_symmetric_depolarization():
    # the large rates put tau near 1e-6 and 1e-12, where an absolute bracket
    # width would swamp the root
    for g in (0.25, 1.0, 2.0, 1e6, 1e12):
        result = max_lifetime(depolarizing(g), depolarizing(g))
        expected = math.log(3.0) / (2.0 * g)
        assert result.tau is not None
        assert abs(result.tau - expected) / expected <= 1e-9
        assert abs(result.residual) <= 1e-10
        assert result.bracket[0] <= result.tau <= result.bracket[1]


def test_max_lifetime_loss_plus_depolarization():
    # one pure filter line contributes nothing to the decay of the signal,
    # so the root sits where the depolarizing line alone kills it
    result = max_lifetime(ChannelParams(1.0, 5.0, 0.0), depolarizing(1.0))
    assert result.tau is not None
    assert abs(result.tau - math.log(3.0)) / math.log(3.0) <= 1e-9


def test_max_lifetime_pure_loss_has_none():
    result = max_lifetime(ChannelParams(1.0, 5.0, 0.0), ChannelParams(1.0, 5.0, 0.0))
    assert result.tau is None
    # neither line depolarizes: g = 2 for all t, answered without a search
    assert result.bracket == (0.0, math.inf)
    assert result.residual == 2.0
    assert result.iterations == 0


def test_max_lifetime_trivial_lines_have_none():
    result = max_lifetime(ChannelParams(0.0, 0.0, 0.0), ChannelParams(0.0, 0.0, 0.0))
    assert result.tau is None
    assert result.residual == 2.0


def test_max_lifetime_respects_t_max():
    result = max_lifetime(depolarizing(1.0), depolarizing(1.0), t_max=0.1)
    assert result.tau is None
    assert result.bracket == (0.0, 0.1)
    assert result.iterations == 1


def test_max_lifetime_t_max_clamps_final_probe():
    result = max_lifetime(depolarizing(1.0), depolarizing(1.0), t_max=0.6)
    expected = math.log(3.0) / 2.0
    assert result.tau is not None
    assert abs(result.tau - expected) / expected <= 1e-9


def test_max_lifetime_rejects_bad_t_max():
    for t_max in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="t_max"):
            max_lifetime(depolarizing(1.0), depolarizing(1.0), t_max=t_max)


def test_max_lifetime_reference_pair_regression():
    result = max_lifetime(REFERENCE, REFERENCE)
    assert result.tau is not None
    assert abs(result.tau - 0.4947890675227557) <= 1e-9
    assert abs(result.residual) <= 1e-10


# ---------------------------------------------------------------------------
# the optimal state against the standard pair
# ---------------------------------------------------------------------------


def test_optimal_state_symmetric_lines_is_maximally_entangled():
    params = ChannelParams(2.0, 2.0, 1.0)
    state = optimal_state(params, params, 0.5)
    assert np.max(np.abs(state.psi - PSI_PLUS)) <= 1e-14
    assert state.schmidt_coefficients[0] == state.schmidt_coefficients[1]


def test_optimal_state_shape_and_weights():
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    state = optimal_state(REFERENCE, REFERENCE, tau)
    # gv > gh, so the faster-dying polarization gets the larger amplitude
    assert abs(state.psi[3]) > abs(state.psi[0])
    assert state.psi[1] == 0.0 and state.psi[2] == 0.0
    assert abs(np.linalg.norm(state.psi) - 1.0) <= 1e-12
    sq_sum = sum(c * c for c in state.schmidt_coefficients)
    assert abs(sq_sum - 1.0) <= 1e-12
    assert state.schmidt_coefficients[0] >= state.schmidt_coefficients[1]
    assert np.array_equal(state.rho, np.outer(state.psi, state.psi.conj()))


def test_optimal_state_swap_symmetry():
    pa, pb = ChannelParams(1.0, 5.0, 1.0), ChannelParams(0.5, 2.0, 0.5)
    assert np.array_equal(
        optimal_state(pa, pb, 0.3).psi, optimal_state(pb, pa, 0.3).psi
    )


def test_optimal_state_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        optimal_state(REFERENCE, REFERENCE, 0.0)
    with pytest.raises(ValueError):
        optimal_state(REFERENCE, REFERENCE, -1.0)


def test_optimal_state_survives_to_the_lifetime():
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    state = optimal_state(REFERENCE, REFERENCE, tau)
    t_probe = tau * (1.0 - 1e-3)
    m = ptm_at(REFERENCE, t_probe)
    out, _ = conditional_state(m, m, state.rho)
    assert is_entangled(out)


def test_window_before_lifetime_separates_the_states():
    # shortly before tau the maximally entangled pair is already dead while
    # the tailored state still comes out entangled; scan [0.8 tau, tau) for
    # that window (the pair dies around 0.85 tau for these lines)
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    opt = optimal_state(REFERENCE, REFERENCE, tau)
    psi_dead = []
    for t in np.linspace(0.8 * tau, tau, 50, endpoint=False):
        m = ptm_at(REFERENCE, float(t))
        out_psi, _ = conditional_state(m, m, RHO_PSI_PLUS)
        out_opt, _ = conditional_state(m, m, opt.rho)
        psi_dead.append(negativity(out_psi) <= 1e-12)
        assert negativity(out_opt) > 1e-6
    assert any(psi_dead)
    # death is permanent: no revival inside the scan
    first = psi_dead.index(True)
    assert all(psi_dead[first:])


def test_early_times_favor_the_maximally_entangled_pair():
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    opt = optimal_state(REFERENCE, REFERENCE, tau)
    for frac in (0.1, 0.25):
        m = ptm_at(REFERENCE, frac * tau)
        n_psi = negativity(conditional_state(m, m, RHO_PSI_PLUS)[0])
        n_opt = negativity(conditional_state(m, m, opt.rho)[0])
        assert n_psi > n_opt


def test_unital_parts_kill_psi_plus_exactly_at_the_lifetime():
    # send the maximally entangled pair through the unital parts alone and
    # bisect the moment its negativity hits zero; it must equal the root of
    # the lifetime equation
    tau = max_lifetime(REFERENCE, REFERENCE).tau

    def entangled_after_unital(t: float) -> bool:
        dec = decompose(REFERENCE, t)
        out = apply_two_qubit(dec.upsilon, dec.upsilon, RHO_PSI_PLUS)
        return is_entangled(out)

    low, high = 0.5 * tau, 1.4 * tau
    assert entangled_after_unital(low)
    assert not entangled_after_unital(high)
    while high - low > 1e-11:
        mid = 0.5 * (low + high)
        if entangled_after_unital(mid):
            low = mid
        else:
            high = mid
    assert abs(0.5 * (low + high) - tau) <= 1e-8

