"""Property tests of the decay-mode core over rates and times spanning many decades.

Rates are 0 or log-uniform on [1e-300, 1e300] and times 0 or log-uniform on
[1e-300, 1e300], so the modes underflow, G t overflows and g/G leaves double
range; the invariants below must hold everywhere regardless.
"""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import decimal_fixed_point, einsum_decompose, entry_logs_at, plain_bisection
from qsink.dynamics import ChannelParams, decay_modes, ptm_at
from qsink.entanglement import lifetime_lhs, max_lifetime, optimal_state
from qsink.sinkhorn import (
    NORMAL_FORM_TOL,
    _fixed_point,
    decompose,
    fixed_point_iterate,
    unital_lambdas,
)


def decades(low: float, high: float) -> st.SearchStrategy[float]:
    return st.one_of(st.just(0.0), st.floats(low, high).map(lambda e: 10.0**e))


RATES = decades(-300.0, 300.0)
TIMES = decades(-300.0, 300.0)
LINES = st.builds(ChannelParams, RATES, RATES, RATES)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, TIMES)
def test_ptm_entries_finite_bounded_and_positive(params, t):
    m = ptm_at(params, t)
    a, b, c, d = m[0, 0], m[0, 3], m[1, 1], m[3, 3]
    assert np.all(np.isfinite(m))
    for value in (a, c, d):
        assert 0.0 <= value <= 1.0 + 1e-12
    assert a + d >= 2.0 * abs(b) - 1e-12


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, st.lists(TIMES, max_size=3), TIMES)
def test_decay_modes_do_not_depend_on_earlier_calls(params, earlier, t):
    # the per-line rates are formed on first use and kept on the instance;
    # what a line gives at t must not depend on what it was asked before
    for s in earlier:
        decay_modes(params, s)
    fresh = ChannelParams(params.gamma_h, params.gamma_v, params.gamma)
    used = (*decay_modes(params, t), *params.decay_rates)
    new = (*decay_modes(fresh, t), *fresh.decay_rates)
    # bit for bit: compare the doubles' bytes, which also tells -0.0 from 0.0
    assert [x.hex() for x in used] == [x.hex() for x in new]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, TIMES)
def test_entry_logs_are_the_entries_at_60_digits(params, t):
    # the one formula for the map's entries, against 60 digits on the same
    # ratios and log q: 40000 draws of this range and of [1e-3, 1e3] came
    # within 1.42 eps max(1, |log|), a log of -inf only where the entry is 0
    bound = 2 * Decimal(sys.float_info.epsilon)
    _, _, expected = decimal_fixed_point(params, t)
    for found, ref in zip(entry_logs_at(params, t), expected, strict=True):
        if ref.is_infinite():
            assert found == -math.inf
        else:
            assert abs(Decimal(found) - ref) <= bound * max(1, abs(ref))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, TIMES)
def test_lambdas_bounded_and_ordered(params, t):
    lam_x, lam_y, lam_z = unital_lambdas(params, t)
    assert lam_x == lam_y
    for lam in (lam_x, lam_z):
        assert 0.0 <= lam <= 1.0
    # x and z coincide up to rounding for pure depolarization
    assert lam_x >= lam_z - 1e-12


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, LINES, TIMES)
def test_lifetime_lhs_is_finite(params1, params2, t):
    value = lifetime_lhs(params1, params2, t)
    assert math.isfinite(value)
    assert -1.0 <= value <= 2.0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, LINES, TIMES, TIMES)
def test_lifetime_lhs_never_increases(params1, params2, t1, t2):
    # every signal parameter is non-increasing in t (see max_lifetime), so
    # g is too, and its first root is its only one; rounding may add ulps
    t1, t2 = sorted((t1, t2))
    before = lifetime_lhs(params1, params2, t1)
    after = lifetime_lhs(params1, params2, t2)
    assert after <= before + 4.0 * math.ulp(1.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, LINES, TIMES, st.integers(1, 2**20))
def test_lifetime_lhs_never_increases_between_neighbouring_times(params1, params2, t, steps):
    # the search settles midpoints near a root by the sign of g a few ulps
    # of t away (max_lifetime), so monotonicity must survive rounding there
    later = t + steps * math.ulp(t)
    assume(math.isfinite(later))
    before = lifetime_lhs(params1, params2, t)
    after = lifetime_lhs(params1, params2, later)
    assert after <= before + 4.0 * math.ulp(1.0)


def _assert_same_root_as_plain_bisection(params1, params2):
    result = max_lifetime(params1, params2)
    tau, bracket, residual, evaluations = plain_bisection(params1, params2)
    # to the bit: the skipped midpoints were settled, not guessed
    assert (None if result.tau is None else result.tau.hex()) == (
        None if tau is None else tau.hex()
    )
    assert [x.hex() for x in result.bracket] == [x.hex() for x in bracket]
    assert result.residual.hex() == residual.hex()
    assert result.iterations <= evaluations + 4


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, LINES)
def test_max_lifetime_is_the_plain_bisection_over_the_double_range(params1, params2):
    _assert_same_root_as_plain_bisection(params1, params2)


MODERATE_LINES = st.builds(
    ChannelParams, *(st.floats(-3.0, 3.0).map(lambda e: 10.0**e) for _ in range(3))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(MODERATE_LINES, MODERATE_LINES)
def test_max_lifetime_is_the_plain_bisection_on_moderate_rates(params1, params2):
    _assert_same_root_as_plain_bisection(params1, params2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    # a depolarizing line: for pure loss every diagonal S is a fixed point
    st.builds(
        ChannelParams, decades(-2.0, 2.0), decades(-2.0, 2.0), st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    ),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
)
def test_closed_form_matches_iteration_where_nothing_underflows(params, t):
    m = ptm_at(params, t)
    # moderate maps only: every entry well above underflow, the filters far
    # from singular, and a unital part that contracts, so the iteration
    # converges (at about lambda^2 per step)
    assume(min(m[0, 0], m[1, 1], m[3, 3]) >= 1e-3)
    assume(max(unital_lambdas(params, t)) <= 0.9)
    plus, minus = (math.exp(x) for x in _fixed_point(*entry_logs_at(params, t)[:3])[:2])
    assume(min(plus, minus) >= 0.1)
    iterated = fixed_point_iterate(m)
    assert abs(iterated[0, 0].real - plus) <= 1e-9
    assert abs(iterated[1, 1].real - minus) <= 1e-9
    weight = 0.5 * (iterated[0, 0] - iterated[1, 1]).real
    assert abs(decompose(params, t).s - weight) <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(LINES, LINES)
def test_optimal_state_is_a_unit_vector_wherever_a_lifetime_exists(params1, params2):
    tau = max_lifetime(params1, params2).tau
    assume(tau is not None)
    psi = optimal_state(params1, params2, tau).psi
    assert np.all(np.isfinite(psi))
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15


def _assert_decompose_agrees_with_the_pauli_route(params, t):
    try:
        expected = einsum_decompose(params, t)
    except ValueError as error:
        assert str(error).startswith("degenerate filter: image of the fixed point")
        # the Pauli route compares the filter's eigenvalues with the absolute
        # PD_MIN_EIG; decompose refuses only a log scale past the double range.
        # Upsilon's entries are exponentials of sums of these logs, each off by
        # its ulps: 4.3e-14 at (0, 1e112, 1), t = 1, where they reach 515
        logs = (*entry_logs_at(params, t)[:3], *_fixed_point(*entry_logs_at(params, t)[:3]))
        size = max(1.0, *(abs(x) for x in logs if math.isfinite(x)))
        try:
            found = decompose(params, t)
        except ValueError:
            _, fixed, _ = decimal_fixed_point(params, t)
            assert any(x.is_infinite() for x in fixed[:2]) or params.decay_rates[1] * t == -math.inf
            return
        except RuntimeError:
            # pure loss at G t past 2^24, where those ulps pass NORMAL_FORM_TOL
            assert params.gamma == 0.0 and size >= 2.0**22
            return
        assert found.self_check <= 1e-14 * size
        return
    except RuntimeError:
        # the Pauli route's sums cancel where the filters are very unequal
        assert decompose(params, t).self_check <= 1e-14
        return
    found = decompose(params, t)
    assert abs(found.s - expected["s"]) <= 8.9e-16
    a_expected, b_expected = (np.diag(expected[op]).real for op in ("a_op", "b_op"))
    assert np.all(np.abs(np.array(found.a_diag) - a_expected) <= 1e-14 * a_expected)
    b_found = math.exp(found.log_b_scale) * np.array(found.a_diag)
    assert np.all(np.abs(b_found - b_expected) <= 1e-14 * b_expected)
    assert np.max(np.abs(found.upsilon - expected["upsilon"])) <= NORMAL_FORM_TOL
    assert found.self_check <= 1e-14


@settings(max_examples=400, deadline=None, derandomize=True)
@given(LINES, TIMES)
def test_decompose_agrees_with_the_pauli_route(params, t):
    _assert_decompose_agrees_with_the_pauli_route(params, t)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(MODERATE_LINES, decades(-3.0, 2.0))
def test_decompose_agrees_with_the_pauli_route_on_moderate_rates(params, t):
    # rates and times of everyday size, which the double range rarely draws
    _assert_decompose_agrees_with_the_pauli_route(params, t)
