"""Property tests of the decay-mode core over rates and times spanning many decades.

Rates are 0 or log-uniform on [1e-300, 1e300] and times 0 or log-uniform on
[1e-300, 1e300], so the modes underflow, G t overflows and g/G leaves double
range; the invariants below must hold everywhere regardless.
"""

import copy
import decimal
import math
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    decimal_fixed_point,
    decimal_lambdas,
    einsum_decompose,
    entry_logs_at,
    plain_bisection,
    subprocess_env,
)
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
# subnormal rates, 0 and the largest double too
@given(*(st.one_of(RATES, st.floats(0.0, sys.float_info.max)) for _ in range(3)))
def test_every_copy_of_a_line_carries_its_rates(gamma_h, gamma_v, gamma):
    # a line of finite rates >= 0 is made, with its decay_rates; a copy made
    # by any route is the same line, rates bit for bit, and repr, == and
    # hash are those of its three rates
    params = ChannelParams(gamma_h, gamma_v, gamma)
    assert not any(math.isnan(x) for x in params.decay_rates)
    copies = [params._replace(), ChannelParams._make(params), copy.copy(params), copy.deepcopy(params)]
    copies += [pickle.loads(pickle.dumps(params, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    rates = (gamma_h, gamma_v, gamma)
    for line in (params, *copies):
        assert type(line) is ChannelParams
        assert [x.hex() for x in line.decay_rates] == [x.hex() for x in params.decay_rates]
        assert repr(line) == "ChannelParams(gamma_h={!r}, gamma_v={!r}, gamma={!r})".format(*rates)
        assert line == rates
        assert hash(line) == hash(rates)


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
    # the per-line rates are formed when the line is made and kept on it;
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
# a root in the top octave: the sum of the bracket's ends overflows
@example(ChannelParams(0.0, 0.0, 3.5e-309), ChannelParams(0.0, 0.0, 3.5e-309))
# a subnormal root, where halving each end first would move the midpoints
@example(ChannelParams(0.0, 0.0, 6.777124934631928e306),
         ChannelParams(3.476211696946881e307, 0.0, 1.3660504799215283e308))
def test_max_lifetime_is_the_plain_bisection_over_the_double_range(params1, params2):
    _assert_same_root_as_plain_bisection(params1, params2)


MODERATE_LINES = st.builds(
    ChannelParams, *(st.floats(-3.0, 3.0).map(lambda e: 10.0**e) for _ in range(3))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(MODERATE_LINES, MODERATE_LINES)
def test_max_lifetime_is_the_plain_bisection_on_moderate_rates(params1, params2):
    _assert_same_root_as_plain_bisection(params1, params2)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="unital_lambdas gives lz = 0.41567429203351625 on (10.4, 64.2, 0.0052) at t = 0.34: "
    "0.294 eps off, against 0.25 eps, from the rounding of G t amplified by x coth x",
)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(MODERATE_LINES, st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
# 0.056 eps off, inside the bound, so this draw alone would pass
@example(ChannelParams(1.0, 1.0, 1.0), 1.0)
@example(ChannelParams(10.4, 64.2, 0.0052), 0.34)
def test_lambdas_are_the_lambdas_at_60_digits(params, t):
    # within 0.25 eps max(1, |ln lambda|) of 60 digits, absolute: the bound
    # that 3000 draws of the double range once met against mpmath
    bound = Decimal(sys.float_info.epsilon) / 4
    lam_x, _, lam_z = unital_lambdas(params, t)
    for found, ref in zip((lam_x, lam_z), decimal_lambdas(params, t), strict=True):
        assert abs(Decimal(found) - ref) <= bound * max(1, abs(ref.ln()))


def test_lambdas_and_g_are_within_a_few_eps_of_60_digits():
    # 4000 draws of (gh, gv, g, t), each log-uniform on [1e-3, 1e3], from
    # random.Random(0); g on the line against itself.  Worst on this sample:
    # lambda 1.51 eps max(1, |ln lambda|) and g 4.08 eps.  With A taken
    # through logs on every draw (asinh of the exp of log(g/G) + log(1 - q) -
    # log 2 + G t / 2) they are 2.95 and 7.37, past both bounds.  The bounds
    # hold on this sample, not everywhere: G t's rounding, amplified by
    # x coth x where g/G is small, takes lz on (48.94888286386015,
    # 0.013496954085337765, 0.0011278890404462312) at t = 0.4299602736505925
    # to 2.53 eps max(1, |ln lambda|)
    eps = Decimal(sys.float_info.epsilon)
    rng = random.Random(0)
    for _ in range(4000):
        params = ChannelParams(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        lam_x, _, lam_z = unital_lambdas(params, t)
        ref_x, ref_z = decimal_lambdas(params, t)
        for found, ref in ((lam_x, ref_x), (lam_z, ref_z)):
            assert abs(Decimal(found) - ref) <= 2 * eps * max(1, abs(ref.ln())), (params, t)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ref_g = 2 * ref_x * ref_x + ref_z * ref_z - 1
            assert abs(Decimal(lifetime_lhs(params, params, t)) - ref_g) <= 7 * eps, (params, t)


# pure-loss lines: gh and gv each 0 or log-uniform over the positive doubles
LOSS_RATES = st.one_of(st.just(0.0), st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp))
PURE_LOSS_LINES = st.builds(ChannelParams, LOSS_RATES, LOSS_RATES, st.just(0.0))
DEPOLARIZING_LINES = st.builds(ChannelParams, RATES, RATES, st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PURE_LOSS_LINES, PURE_LOSS_LINES, DEPOLARIZING_LINES)
@example(ChannelParams(1e300, 0.0, 0.0), ChannelParams(0.0, 0.0, 0.0), ChannelParams(0.0, 0.0, 1.0))
def test_max_lifetime_does_not_see_a_pure_loss_partner(loss, other_loss, depolarizing):
    # a pure-loss line's unital part is the identity: it leaves g, and so
    # tau, bracket, residual and every count of the search, as they are
    result = max_lifetime(loss, depolarizing)
    assert result == max_lifetime(other_loss, depolarizing) == max_lifetime(depolarizing, loss)


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
        # Upsilon's entries are exponentials of differences of these logs, and
        # the signal parameters', each off by its ulps where the logs are large
        logs = (*entry_logs_at(params, t)[:3], *_fixed_point(*entry_logs_at(params, t)[:3]))
        size = max(1.0, *(abs(x) for x in logs if math.isfinite(x)))
        try:
            found = decompose(params, t)
        except ValueError:
            _, fixed, _ = decimal_fixed_point(params, t)
            assert any(x.is_infinite() for x in fixed[:2]) or params.decay_rates[1] * t == -math.inf
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


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # a failing property fails its test and prints its example; it does not
    # end the run in an INTERNALERROR that hides both and skips the other tests
    (tmp_path / "test_fail.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert False\n"
    )
    tests = Path(__file__).resolve().parent
    env = subprocess_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tests), env["PYTHONPATH"]])
    argv = ["-p", "conftest", "-c", str(tests.parent / "pyproject.toml"),
            "--rootdir", str(tmp_path), "test_fail.py"]
    proc = subprocess.run([sys.executable, "-m", "pytest", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
