"""Lifetime equation, conditional states, and the optimal initial state."""

import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PSI_PLUS,
    apply_two_qubit_oracle,
    identity_ptm,
    is_entangled,
    map_over_slow,
    ptm_to_superop,
    random_density,
    random_pure_density,
    random_separable,
)
from qsink import entanglement
from qsink.dynamics import ChannelParams, entry_logs_over_slow, ptm_at, superop_over_slow
from qsink.entanglement import (
    MIN_DETECTION_PROB,
    conditional_state,
    lifetime_lhs,
    max_lifetime,
    negativity,
    optimal_state,
    x_state_traces,
)
from qsink.linalg import PSD_TOL, _refuse_flagged, hermitian_part, partial_transpose_second
from qsink.sinkhorn import decompose

REFERENCE = ChannelParams(1.0, 5.0, 1.0)
RHO_PSI_PLUS = np.outer(PSI_PLUS, PSI_PLUS.conj())


def werner(p: float) -> np.ndarray:
    return p * RHO_PSI_PLUS + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def depolarizing(g: float) -> ChannelParams:
    return ChannelParams(0.0, 0.0, g)


MODERATE_RATES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
DEPOLARIZING_LINES = st.builds(ChannelParams, MODERATE_RATES, MODERATE_RATES, MODERATE_RATES)


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
    out, prob = conditional_state(ptm_to_superop(m1), ptm_to_superop(m2), RHO_PSI_PLUS)
    assert abs(prob - expected_prob) <= 1e-12
    assert np.max(np.abs(out - raw / expected_prob)) <= 1e-12


def test_conditional_state_rescaling_invariance():
    m1 = map_over_slow(REFERENCE, 0.4)
    m2 = map_over_slow(REFERENCE, 0.4)
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


def test_conditional_state_refuses_a_stack_of_initial_states():
    # by its shape, before any state of it is checked: the second is not even Hermitian
    stack = np.stack([RHO_PSI_PLUS, np.full((4, 4), np.nan)])
    for maps in (identity_ptm(), np.stack([identity_ptm()] * 2)):
        with pytest.raises(ValueError, match=r"^expected one initial state, got a stack of "
                                             r"shape \(2, 4, 4\)$"):
            conditional_state(maps, maps, stack)


# ---------------------------------------------------------------------------
# stacks of maps and states
# ---------------------------------------------------------------------------


def test_stacked_conditional_state_and_negativity_match_single_calls(rng):
    lines = [ChannelParams(*rng.uniform(0.0, 5.0, size=3)) for _ in range(2)]
    times = rng.uniform(0.0, 1.5, size=8)
    m1 = np.stack([map_over_slow(lines[0], float(t)) for t in times])
    m2 = np.stack([map_over_slow(lines[1], float(t)) for t in times])
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DEPOLARIZING_LINES, DEPOLARIZING_LINES,
       st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40),
       st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32), st.booleans())
def test_each_row_of_a_stacked_conditional_state_is_that_row_alone(params1, params2, times, entries,
                                                                   shared_second_map):
    # bit for bit: one state through a stack of maps is one 2-D product over
    # the stacked rows, a single pair of maps one 4x4 product
    a = (np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4)
    initial = a @ a.conj().T + 0.01 * np.eye(4)
    initial /= np.trace(initial).real
    maps1 = superop_over_slow(entry_logs_over_slow(params1, times)[1])
    maps2 = superop_over_slow(entry_logs_over_slow(params2, times)[1])
    if shared_second_map:
        maps2 = maps2[0]
    states, probs = conditional_state(maps1, maps2, initial)
    for k in range(len(times)):
        state, prob = conditional_state(maps1[k], maps2 if shared_second_map else maps2[k], initial)
        assert states[k].tobytes() == state.tobytes()
        assert probs[k].hex() == prob.hex()


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


def _eigvalsh_rule(rho: np.ndarray, normalized: bool) -> np.ndarray:
    """The state check by eigvalsh alone: the reference the Cholesky screen must agree with."""
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    low = np.linalg.eigvalsh(rho)[..., 0]
    _refuse_flagged(low, ~(low >= -PSD_TOL),
                    "state is not positive semidefinite (min eigenvalue {:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if normalized:
        _refuse_flagged(tr, np.abs(tr - 1.0) > 1e-10, "state must have unit trace, got {!r}")
    else:
        _refuse_flagged(tr, ~((MIN_DETECTION_PROB < tr) & (tr <= 1.0 + 1e-12)),
                        "state trace must lie in (0, 1], got {!r}")
    return rho


def _verdict(check, rho: np.ndarray, normalized: bool) -> bytes | str:
    try:
        return check(rho, normalized).tobytes()
    except ValueError as exc:
        return str(exc)


# least eigenvalues where the screen's shift and PSD_TOL meet, or nearly
_EDGE_EIGENVALUES = [
    -PSD_TOL * (1.0 + 1e-6), -PSD_TOL * (1.0 - 1e-6), -0.5 * PSD_TOL,
    *(-PSD_TOL + k * math.ulp(PSD_TOL) for k in range(-3, 4)),
]


@st.composite
def _hermitian_stacks(draw) -> np.ndarray:
    """A 4x4 Hermitian matrix or a stack of them: random, rank 1, or of a set spectrum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "rank1", "spectrum", "diagonal", "large"]))
    least = st.one_of(st.sampled_from(_EDGE_EIGENVALUES), st.just(0.0), st.floats(-1e-3, 1e-3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if kind == "random":
            rows.append(draw(st.floats(1e-3, 1.0)) * (z + z.conj().T))
        elif kind == "rank1":
            psi = z[0] / np.linalg.norm(z[0])
            rows.append(np.outer(psi, psi.conj()))
        else:
            # a least eigenvalue and the rest of a unit trace; diagonal keeps it exact
            low = draw(least)
            spectrum = np.array([low, *((1.0 - low) * rng.dirichlet(np.ones(3)))])
            if kind == "large":
                spectrum *= 10.0 ** draw(st.floats(2.0, 9.0))
                spectrum[0] = draw(st.sampled_from([spectrum[0], -abs(spectrum[1]), 0.0]))
            u = np.linalg.qr(z)[0] if kind != "diagonal" else np.eye(4)[rng.permutation(4)]
            rows.append((u * spectrum) @ u.conj().T)
    # exactly Hermitian, so hermitian_part refuses none before the PSD check
    stack = np.stack([0.5 * (m + m.conj().T) for m in rows])
    return stack[0] if draw(st.booleans()) and len(rows) == 1 else stack


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_hermitian_stacks(), st.booleans())
def test_state_check_accepts_and_refuses_as_eigvalsh_does(rho, normalized):
    # the Cholesky screen only skips eigvalsh: the verdict and message stay its own
    assert _verdict(entanglement._check_state, rho, normalized) == _verdict(
        _eigvalsh_rule, rho, normalized
    )
    symmetric = hermitian_part(rho)
    if entanglement._cholesky_completes(symmetric, 0.5 * PSD_TOL):
        assert np.linalg.eigvalsh(symmetric)[..., 0].min() >= -PSD_TOL


def test_the_screen_passes_states_within_its_size_bound(rng):
    states = np.stack([random_pure_density(rng, 4), random_density(rng, 4), RHO_PSI_PLUS])
    assert entanglement._cholesky_completes(states, 0.5 * PSD_TOL)
    maps = superop_over_slow(entry_logs_over_slow(REFERENCE, np.linspace(0.0, 1.0, 50))[1])
    conditional = conditional_state(maps, maps, states[1])[0]
    assert entanglement._cholesky_completes(conditional, 0.5 * PSD_TOL)
    below = np.diag([0.5, 0.5, -PSD_TOL, 0.0]).astype(complex)
    assert not entanglement._cholesky_completes(below, 0.5 * PSD_TOL)
    # past its size bound the screen decides nothing, even on a state
    assert not entanglement._cholesky_completes(2e3 * states, 0.5 * PSD_TOL)


def test_an_empty_stack_has_no_negativities_and_a_nan_state_is_still_refused():
    # zero maps give an empty stack of conditional states, which negativity takes as it is
    empty = np.zeros((0, 4, 4))
    states = conditional_state(empty, empty, RHO_PSI_PLUS)[0]
    assert states.shape == hermitian_part(empty).shape == (0, 4, 4)
    assert entanglement._cholesky_completes(states, 0.5 * PSD_TOL)
    assert negativity(states).shape == (0,)
    nan_state = RHO_PSI_PLUS.copy()
    nan_state[0, 0] = np.nan
    assert not entanglement._cholesky_completes(nan_state, 0.5 * PSD_TOL)
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(nan_state)
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(np.stack([RHO_PSI_PLUS, nan_state]))


def _negativity_by_eigvalsh(rho: np.ndarray) -> np.ndarray:
    """negativity with eigvalsh on every state: the reference its separability certificate must match."""
    rho = entanglement._check_state(rho, normalized=False)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    eigenvalues = np.linalg.eigvalsh(partial_transpose_second(rho))
    return np.sum(np.maximum(0.0, -eigenvalues), axis=-1)


def _local_unitary(rng: np.random.Generator) -> np.ndarray:
    """u1 x u2 for two random qubit unitaries: it leaves PT's spectrum alone."""
    u1, u2 = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
              for _ in range(2))
    return np.kron(u1, u2)


@st.composite
def _separable_and_entangled_stacks(draw) -> np.ndarray:
    """A state or a stack of states, separable, entangled, or with PT's least eigenvalue near 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["separable", "pure", "mixed", "edge"]))
        if kind == "separable":
            rho = random_separable(rng)
        elif kind == "pure":
            rho = random_pure_density(rng)
        elif kind == "mixed":
            rho = random_density(rng, 4)
        else:
            # p psi psi^dag + (1 - p) I / 4, psi with Schmidt weights a and 1 - a:
            # PT's least eigenvalue is (1 - p) / 4 - p sqrt(a (1 - a)), set by p
            a = draw(st.floats(0.05, 0.5))
            # about 0, or about the certificate's shift
            shift = entanglement._SEPARABLE_SHIFT
            low = draw(st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12),
                                 st.sampled_from([shift * (1.0 - 1e-3), shift * (1.0 + 1e-3)])))
            p = (0.25 - low) / (0.25 + math.sqrt(a * (1.0 - a)))
            psi = _local_unitary(rng) @ np.array([math.sqrt(a), 0.0, 0.0, math.sqrt(1.0 - a)])
            rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
        # negativity normalizes a subnormalized state first
        rows.append(draw(st.sampled_from([1.0, 0.3, 1e-6])) * rho)
    # exactly Hermitian, as conditional_state's are
    stack = np.stack([0.5 * (m + m.conj().T) for m in rows])
    return stack[0] if len(rows) == 1 and draw(st.booleans()) else stack


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_separable_and_entangled_stacks())
def test_negativity_is_the_eigvalsh_sum_to_the_bit(rho):
    got, expected = negativity(rho), _negativity_by_eigvalsh(rho)
    # one state gives a numpy float, a stack an array of one per state
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_a_certified_stack_makes_no_eigvalsh_call(rng, monkeypatch):
    # past the lifetime every conditional state is separable
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    maps = superop_over_slow(entry_logs_over_slow(REFERENCE, np.linspace(1.5 * tau, 2.0 * tau, 64))[1])
    states = conditional_state(maps, maps, random_density(rng, 4))[0]
    stacks = [states, np.stack([random_separable(rng) for _ in range(8)]), states[0]]
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for stack in stacks:
        assert np.asarray(negativity(stack)).tobytes() == np.zeros(stack.shape[:-2]).tobytes()
    assert type(negativity(states[0])) is np.float64
    assert calls == []
    # one entangled state sends its whole stack to the eigensolve
    assert negativity(np.stack([states[0], RHO_PSI_PLUS]))[1] == pytest.approx(0.5, abs=1e-15)
    assert calls == [(2, 4, 4)]


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


def test_max_lifetime_reference_pair_regression():
    # exact to the bit: a change in how g is evaluated or searched moves
    # these, and with them every downstream output on the reference lines
    result = max_lifetime(REFERENCE, REFERENCE)
    assert result.tau == 0.4947890675227557
    assert result.bracket == (0.4947890673897096, 0.4947890676558018)
    assert result.residual == -8.833234144134394e-11
    assert result.iterations == 11
    assert result.evaluations == {"bracket": 4, "secant": 6, "bisection": 1}


# (line1, line2) -> tau, bracket and residual as float.hex, and the g evaluations
# of each phase (bracket, secant, bisection); each figure is the root search's
# own, to the last bit, so an evaluation moved from one phase to another fails.
# tau, bracket and residual are also those of the plain bisection
# (conftest.plain_bisection), which took 35, 34, 34, 52, 34, 50, 35, 52 and 1
# evaluations
PINNED_ROOTS = {
    "reference": (REFERENCE, REFERENCE, "0x1.faa9fc3db6db7p-2",
                  ("0x1.faa9fc3b6db6ep-2", "0x1.faa9fc4000000p-2"), "-0x1.847d600000000p-34",
                  (4, 6, 1)),
    "symmetric-depolarization": (
        depolarizing(1.0), depolarizing(1.0), "0x1.193ea7ab00000p-1",
        ("0x1.193ea7aa00000p-1", "0x1.193ea7ac00000p-1"), "-0x1.7e7b000000000p-35", (2, 3, 1)),
    "pure-loss-against-depolarization": (
        ChannelParams(100.0, 0.0, 0.0), depolarizing(0.01), "0x1.b771e5fb30000p+6",
        ("0x1.b771e5f9a0000p+6", "0x1.b771e5fcc0000p+6"), "-0x1.7e7b000000000p-35", (2, 3, 1)),
    # one root reached by two search paths: the bisection stops at different points
    "strong-balanced-loss": (
        ChannelParams(1000.0, 1000.0, 0.001), ChannelParams(1000.0, 1000.0, 0.001),
        "0x1.12a72fbc7583cp+9", ("0x1.12a72fb4445d1p+9", "0x1.12a72fc4a6aa6p+9"),
        "0x1.6fce000000000p-34", (23, 3, 1)),
    "weak-depolarization": (
        depolarizing(0.001), depolarizing(0.001), "0x1.12a72fbcfe000p+9",
        ("0x1.12a72fbc04000p+9", "0x1.12a72fbdf8000p+9"), "-0x1.7e7b000000000p-35", (2, 3, 1)),
    "depolarization-below-the-ratio-range": (
        ChannelParams(0.0, 0.0, 0.0), ChannelParams(0.0, 1e170, 1e-154), "0x1.c2e6c14bf8776p-555",
        ("0x1.c2e6c14bf3a2cp-555", "0x1.c2e6c14bfd4c1p-555"), "-0x1.74cac00000000p-35", (12, 11, 8)),
    "near-the-double-maximum": (
        ChannelParams(1.7e308, 0.0, 1.7e308), depolarizing(1.0), "0x0.4848398bb9ed8p-1022",
        ("0x0.4848398b9816cp-1022", "0x0.4848398bdbc44p-1022"), "0x1.6ab2000000000p-36", (2, 5, 3)),
    "tiny-depolarization": (
        ChannelParams(1.0, 0.0, 1e-200), ChannelParams(1.0, 0.0, 1e-200), "0x1.cc6c43872b000p+9",
        ("0x1.cc6c43872a000p+9", "0x1.cc6c43872c000p+9"), "0x1.395d800000000p-34", (12, 9, 7)),
    "no-root": (depolarizing(1e-320), ChannelParams(0.0, 0.0, 0.0), None,
                ("0x0.0p+0", "0x1.fffffffffffffp+1023"), "0x1.fffffffffa120p+0", (1, 0, 0)),
}


@pytest.mark.parametrize("case", list(PINNED_ROOTS))
def test_max_lifetime_is_pinned_to_the_bit(case):
    line1, line2, tau, bracket, residual, evaluations = PINNED_ROOTS[case]
    result = max_lifetime(line1, line2)
    assert (None if result.tau is None else result.tau.hex()) == tau
    assert tuple(x.hex() for x in result.bracket) == bracket
    assert result.residual.hex() == residual
    assert result.evaluations == dict(zip(("bracket", "secant", "bisection"), evaluations))
    assert list(result.evaluations) == ["bracket", "secant", "bisection"]
    assert result.iterations == sum(evaluations)


def _scan_like_pairs(seed: int, count: int) -> list:
    """Rate pairs drawn as the benchmark's scan draws them.

    Each rate is 0 with probability 1/4, else log-uniform on [1e-3, 1e3].
    Of every 10 pairs, one is symmetric pure depolarization and one pure
    loss against pure depolarization, in either order.
    """
    rng = random.Random(seed)

    def log_uniform():
        return 10.0 ** rng.uniform(-3.0, 3.0)

    def rate():
        return 0.0 if rng.random() < 0.25 else log_uniform()

    pairs = []
    for k in range(count):
        if k % 10 == 0:
            pairs.append((depolarizing(log_uniform()),) * 2)
        elif k % 10 == 1:
            pair = ChannelParams(rate(), rate(), 0.0), depolarizing(log_uniform())
            pairs.append(pair[::-1] if rng.random() < 0.5 else pair)
        else:
            pairs.append(tuple(ChannelParams(rate(), rate(), rate()) for _ in range(2)))
    return pairs


def test_tau_and_psi_are_pinned_over_a_scan_like_sample():
    # float.hex of tau and of psi on 300 pairs, 283 with a root: a change to how g is
    # evaluated that moves any root, by a single bit, fails here
    digest = hashlib.sha256()
    for line1, line2 in _scan_like_pairs(2024, 300):
        tau = max_lifetime(line1, line2).tau
        digest.update(repr(None if tau is None else tau.hex()).encode())
        if tau is not None:
            psi = optimal_state(line1, line2, tau).psi
            digest.update(repr([(z.real.hex(), z.imag.hex()) for z in psi]).encode())
    assert digest.hexdigest() == "90d348cded4436664772ce0d021f0fc61781df49826e13d418f11074cd7d2530"


def test_max_lifetime_needs_few_g_evaluations_per_root():
    # a count, not a time: the same on any machine.  The plain bisection
    # needs about 36 evaluations per root on these pairs, the search about 11
    rng = random.Random(300)
    counts = []
    for _ in range(300):
        line1, line2 = (ChannelParams(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
                        for _ in range(2))
        result = max_lifetime(line1, line2)
        assert result.tau is not None
        counts.append(result.iterations)
    assert sum(counts) / len(counts) <= 12.0


@pytest.mark.parametrize("case", list(PINNED_ROOTS))
def test_max_lifetime_counts_each_g_evaluation(monkeypatch, case):
    # the count goes through the module's own lifetime_lhs, as a tracer sees it
    calls = []
    lhs = entanglement.lifetime_lhs

    def counted(*args):
        calls.append(args)
        return lhs(*args)

    monkeypatch.setattr(entanglement, "lifetime_lhs", counted)
    line1, line2, *_ = PINNED_ROOTS[case]
    result = max_lifetime(line1, line2)
    assert len(calls) == result.iterations == sum(result.evaluations.values()) > 0
    assert set(result.evaluations) == {"bracket", "secant", "bisection"}
    # every probe of the search lies in the search range
    for _, _, t in calls:
        assert math.isfinite(t) and 0.0 <= t <= sys.float_info.max


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
    assert type(state.psi) is tuple and len(state.psi) == 4
    assert all(type(z) is complex for z in state.psi)
    psi = np.array(state.psi)
    # gv > gh, so the faster-dying polarization gets the larger amplitude
    assert abs(psi[3]) > abs(psi[0])
    assert psi[1] == 0.0 and psi[2] == 0.0
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    sq_sum = sum(c * c for c in state.schmidt_coefficients)
    assert abs(sq_sum - 1.0) <= 1e-12
    assert state.schmidt_coefficients[0] >= state.schmidt_coefficients[1]


def test_optimal_state_amplitudes_are_its_schmidt_coefficients_to_the_bit():
    # psi is formed from the same rounded amp / norm as the Schmidt coefficients
    rng = random.Random(1)
    for _ in range(300):
        line1, line2 = (ChannelParams(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
                        for _ in range(2))
        state = optimal_state(line1, line2, max_lifetime(line1, line2).tau)
        assert type(state.psi) is tuple and len(state.psi) == 4
        assert all(type(z) is complex for z in state.psi)
        psi = np.array(state.psi)
        amp_h, amp_v = psi[[0, 3]].real
        assert sorted((amp_h, amp_v), reverse=True) == list(state.schmidt_coefficients)
        assert not psi.imag.any() and not psi[1:3].any()


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


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_optimal_state_rejects_non_finite_tau_by_its_name(tau):
    # not "t must be finite" from the decay-mode core underneath
    with pytest.raises(ValueError, match=r"^tau must be finite and > 0, got"):
        optimal_state(REFERENCE, REFERENCE, tau)


def test_optimal_state_survives_to_the_lifetime():
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    state = optimal_state(REFERENCE, REFERENCE, tau)
    t_probe = tau * (1.0 - 1e-3)
    m = map_over_slow(REFERENCE, t_probe)
    out, _ = conditional_state(m, m, np.outer(state.psi, np.conj(state.psi)))
    assert is_entangled(out)


def test_window_before_lifetime_separates_the_states():
    # shortly before tau the maximally entangled pair is already dead while
    # the tailored state still comes out entangled; scan [0.8 tau, tau) for
    # that window (the pair dies around 0.85 tau for these lines)
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    opt = optimal_state(REFERENCE, REFERENCE, tau)
    rho_opt = np.outer(opt.psi, np.conj(opt.psi))
    psi_dead = []
    for t in np.linspace(0.8 * tau, tau, 50, endpoint=False):
        m = map_over_slow(REFERENCE, float(t))
        out_psi, _ = conditional_state(m, m, RHO_PSI_PLUS)
        out_opt, _ = conditional_state(m, m, rho_opt)
        psi_dead.append(negativity(out_psi) <= 1e-12)
        assert negativity(out_opt) > 1e-6
    assert any(psi_dead)
    # death is permanent: no revival inside the scan
    first = psi_dead.index(True)
    assert all(psi_dead[first:])


def test_early_times_favor_the_maximally_entangled_pair():
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    opt = optimal_state(REFERENCE, REFERENCE, tau)
    rho_opt = np.outer(opt.psi, np.conj(opt.psi))
    for frac in (0.1, 0.25):
        m = map_over_slow(REFERENCE, frac * tau)
        n_psi = negativity(conditional_state(m, m, RHO_PSI_PLUS)[0])
        n_opt = negativity(conditional_state(m, m, rho_opt)[0])
        assert n_psi > n_opt


def test_unital_parts_kill_psi_plus_exactly_at_the_lifetime():
    # send the maximally entangled pair through the unital parts alone and
    # bisect the moment its negativity hits zero; it must equal the root of
    # the lifetime equation
    tau = max_lifetime(REFERENCE, REFERENCE).tau

    def entangled_after_unital(t: float) -> bool:
        dec = decompose(REFERENCE, t)
        upsilon = ptm_to_superop(np.diag(dec.upsilon))
        return is_entangled(conditional_state(upsilon, upsilon, RHO_PSI_PLUS)[0])

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



# ---------------------------------------------------------------------------
# the standard states a|HH> + b|VV> in closed form
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(DEPOLARIZING_LINES, DEPOLARIZING_LINES, st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6))
def test_x_state_traces_are_the_general_path(params1, params2, fractions):
    # on the same maps, wherever the general path defines the conditional state
    tau = max_lifetime(params1, params2).tau
    times = [fraction * tau for fraction in fractions]
    logs1, logs2 = entry_logs_over_slow(params1, times)[1], entry_logs_over_slow(params2, times)[1]
    maps1, maps2 = superop_over_slow(logs1), superop_over_slow(logs2)
    opt = optimal_state(params1, params2, tau)
    negs, probs = x_state_traces([0.0, opt.log_weight_ratio], logs1, logs2)
    for neg, prob, rho in zip(negs, probs, (RHO_PSI_PLUS, np.outer(opt.psi, np.conj(opt.psi)))):
        for k in range(len(times)):
            try:
                out, expected_prob = conditional_state(maps1[k], maps2[k], rho)
            except ValueError as exc:
                assert str(exc).startswith("detection probability vanished")
                assert prob[k] <= MIN_DETECTION_PROB * (1.0 + 1e-13)
                continue
            assert abs(neg[k] - negativity(out)) <= 1e-13
            assert abs(prob[k] - expected_prob) <= 1e-13 * expected_prob


@pytest.mark.parametrize("params", [REFERENCE, ChannelParams(0.0, 3.0, 0.5), depolarizing(1.0)])
def test_x_state_traces_of_the_vv_limit(params):
    # |VV> is a product state: no negativity at any time, and both photons
    # are detected with probability (V + h) per line, h the part flipped to H
    times = np.linspace(0.0, 3.0, 31).tolist()
    slow1, logs1 = entry_logs_over_slow(params, times)
    slow2, logs2 = entry_logs_over_slow(depolarizing(0.7), times)
    (neg,), (prob,) = x_state_traces([-math.inf], logs1, logs2)
    assert neg.tolist() == [0.0] * len(times)
    kept1 = np.exp(logs1[:, 1]) + np.exp(logs1[:, 2])
    kept2 = np.exp(logs2[:, 1]) + np.exp(logs2[:, 2])
    expected = slow1 * slow2 * kept1 * kept2
    assert np.all(np.abs(slow1 * slow2 * prob - expected) <= 1e-15 * expected)
    # the general path agrees
    vv = np.zeros((4, 4), dtype=complex)
    vv[3, 3] = 1.0
    out, general_prob = conditional_state(superop_over_slow(logs1), superop_over_slow(logs2), vv)
    assert np.all(negativity(out) == 0.0)
    assert np.all(np.abs(prob - general_prob) <= 1e-15 * general_prob)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DEPOLARIZING_LINES, DEPOLARIZING_LINES)
def test_the_longest_lifetime_needs_no_maximally_entangled_state(params1, params2):
    # the optimal state is still entangled just before tau; the maximally
    # entangled pair, entangled only where some a|HH> + b|VV> is, is not at
    # tau wherever g(tau) <= 0, nor just past it
    result = max_lifetime(params1, params2)
    tau = result.tau
    times = [tau * (1.0 - 1e-6), tau, tau * (1.0 + 1e-6)]
    logs1, logs2 = entry_logs_over_slow(params1, times)[1], entry_logs_over_slow(params2, times)[1]
    ratios = [optimal_state(params1, params2, tau).log_weight_ratio, 0.0]
    optimal_neg, psi_plus_neg = x_state_traces(ratios, logs1, logs2)[0]
    assert optimal_neg[0] > 0.0
    assert psi_plus_neg[2] == 0.0
    if result.residual <= 0.0:
        assert psi_plus_neg[1] == 0.0


def test_the_maximally_entangled_pair_dies_first_on_the_reference_line():
    # the paper's headline on the 5000-row evolve grid of (1, 5, 1): of the
    # 2500 rows before tau, the maximally entangled pair is entangled on the
    # first 2113 (it dies at about 0.845 tau), the optimal state on all
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    times = np.linspace(0.0, 2.0 * tau, 5000).tolist()
    logs = entry_logs_over_slow(REFERENCE, times)[1]
    optimal = optimal_state(REFERENCE, REFERENCE, tau)
    early = np.array(times) < tau
    assert early.sum() == 2500
    negs = x_state_traces([0.0, optimal.log_weight_ratio], logs, logs)[0]
    for neg, alive in zip(negs, (2113, 2500)):
        assert np.all(neg[:alive] > 0.0) and np.all(neg[alive:] == 0.0)
    assert 0.84 < times[2112] / tau < 0.85
