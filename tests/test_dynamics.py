"""Loss-model dynamics: closed form against the integration oracle."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import (
    detection_probability,
    entry_logs_at,
    is_cp,
    is_trace_nonincreasing,
    map_over_slow,
    ptm_to_superop,
    random_density,
)
from qsink.dynamics import (
    ChannelParams,
    decay_modes,
    entry_logs_over_slow,
    ptm_at,
    ptm_via_integration,
    superop_over_slow,
)

REFERENCE = ChannelParams(1.0, 5.0, 1.0)


def entries(params: ChannelParams, t: float) -> tuple[float, float, float, float]:
    """The four free coefficients a, b, c, d of the transfer matrix."""
    m = ptm_at(params, t)
    return m[0, 0], m[0, 3], m[1, 1], m[3, 3]


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, 0.0, math.inf)
    p = ChannelParams(1.0, 5.0, 2.0)
    assert p.total_rate == 8.0
    assert p.max_rate == 5.0


def test_params_identity_ignores_the_derived_rates():
    # validate prints lines by repr, and lines are compared and hashed by
    # their three rates alone; decay_rates is there from construction on
    used, fresh = ChannelParams(1.0, 5.0, 2.0), ChannelParams(1.0, 5.0, 2.0)
    assert "decay_rates" in vars(fresh)
    decay_modes(used, 0.3)
    assert vars(used) == vars(fresh)
    assert repr(used) == repr(fresh) == "ChannelParams(gamma_h=1.0, gamma_v=5.0, gamma=2.0)"
    assert used == fresh
    assert hash(used) == hash(fresh) == hash((1.0, 5.0, 2.0))


@pytest.mark.parametrize(
    "rates, message",
    [
        ((math.nan, 1.0, 1.0), "gamma_h must be finite and >= 0, got nan"),
        ((1.0, math.inf, 1.0), "gamma_v must be finite and >= 0, got inf"),
        ((1.0, 1.0, -math.inf), "gamma must be finite and >= 0, got -inf"),
        ((1.0, 1.0, -0.5), "gamma must be finite and >= 0, got -0.5"),
        ((1.0, -1e-300, 1.0), "gamma_v must be finite and >= 0, got -1e-300"),
        ((1.0, 2.0, 10**309), f"gamma must be finite and >= 0, got {10**309!r}"),
        # several bad rates: the first in (gamma_h, gamma_v, gamma) order is named
        ((-1.0, math.nan, -2.0), "gamma_h must be finite and >= 0, got -1.0"),
        ((0.0, math.nan, -2.0), "gamma_v must be finite and >= 0, got nan"),
        ((0.0, math.inf, math.nan), "gamma_v must be finite and >= 0, got inf"),
    ],
)
def test_params_name_the_first_bad_rate(rates, message):
    with pytest.raises(ValueError) as error:
        ChannelParams(*rates)
    assert str(error.value) == message


def test_a_replaced_or_made_line_is_checked():
    with pytest.raises(ValueError, match=r"^gamma must be finite and >= 0, got -1\.0$"):
        REFERENCE._replace(gamma=-1.0)
    with pytest.raises(ValueError, match=r"^gamma_h must be finite and >= 0, got nan$"):
        ChannelParams._make([math.nan, 0.0, 0.0])


def test_abcd_at_zero_is_exact():
    for params in (REFERENCE, ChannelParams(0.0, 0.0, 3.0), ChannelParams(2.0, 2.0, 0.0)):
        assert entries(params, 0.0) == (1.0, 0.0, 1.0, 1.0)


def test_ptm_near_the_double_maximum():
    # G = hypot(g, gh - gv) = 2.4e308 lies past the double range; the line
    # is formed at a power-of-two scale, so it is neither NaN nor pure loss
    params = ChannelParams(1.7e308, 0.0, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(ptm_at(params, 0.0), np.eye(4))
        log_q = decay_modes(params, 1e-308)[1]
    assert abs(log_q + 2.4041630560342615) <= 1e-15
    _, _, r_gamma, r_delta, _, _, _ = params.decay_rates
    assert r_gamma == r_delta == math.sqrt(0.5)


def test_abcd_uniform_attenuation():
    g = 0.7
    params = ChannelParams(g, g, 0.0)
    for t in (0.2, 1.0, 4.0):
        a, b, c, d = entries(params, t)
        decay = math.exp(-g * t)
        assert a == decay
        assert b == 0.0
        assert c == decay
        assert d == decay


def test_abcd_pure_depolarization():
    params = ChannelParams(0.0, 0.0, 1.3)
    for t in (0.4, 2.0, 200.0):
        a, b, c, d = entries(params, t)
        assert abs(a - 1.0) <= 1e-13
        assert b == 0.0
        # the fast mode is assembled directly from its exponent
        assert c == math.exp(-1.3 * t)
        assert d == c


def test_abcd_sign_of_coherence_transfer():
    assert entries(ChannelParams(5.0, 1.0, 1.0), 0.5)[1] < 0.0
    assert entries(ChannelParams(1.0, 5.0, 1.0), 0.5)[1] > 0.0
    assert entries(ChannelParams(2.0, 2.0, 1.0), 0.5)[1] == 0.0


def test_abcd_invariants_on_grid():
    rates = (0.0, 0.5, 1.0, 5.0)
    for gh in rates:
        for gv in rates:
            for g in rates:
                for t in (0.05, 0.5, 2.0, 10.0):
                    a, b, c, d = entries(ChannelParams(gh, gv, g), t)
                    assert 0.0 < a <= 1.0 + 1e-12
                    assert 0.0 < c <= 1.0 + 1e-12
                    assert 0.0 < d <= 1.0 + 1e-12
                    assert a + d >= 2.0 * abs(b)


def test_abcd_smooth_across_series_switch():
    # the entries are continuous in t, including as G t -> 0 and across
    # G t = 2e-4 and G t = 2
    params = ChannelParams(2.0, 0.5, 1.0)
    half_gap = math.hypot(1.0, 1.5)
    for t_switch in (2e-4 / half_gap, 2.0 / half_gap):
        below = entries(params, t_switch * (1.0 - 1e-11))
        above = entries(params, t_switch * (1.0 + 1e-11))
        assert max(abs(x - y) for x, y in zip(below, above)) < 1e-9
    # G -> 0: a nearly balanced line against the balanced one
    near = entries(ChannelParams(1.0 + 1e-12, 1.0, 0.0), 0.7)
    at = entries(ChannelParams(1.0, 1.0, 0.0), 0.7)
    assert max(abs(x - y) for x, y in zip(near, at)) < 1e-11


def test_abcd_rejects_negative_time():
    # and non-finite time: the closed form never turns NaN or inf into entries
    for t in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            decay_modes(REFERENCE, t)
        with pytest.raises(ValueError, match="finite and >= 0"):
            ptm_at(REFERENCE, t)
        with pytest.raises(ValueError):
            ptm_via_integration([REFERENCE], t, 1e-3)


def test_ptm_layout():
    m = ptm_at(REFERENCE, 0.3)
    assert m[0, 3] == m[3, 0]
    assert m[1, 1] == m[2, 2]
    mask = np.ones((4, 4), dtype=bool)
    for idx in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3)):
        mask[idx] = False
    assert np.all(m[mask] == 0.0)


def test_ptm_diagonal_for_symmetric_loss():
    m = ptm_at(ChannelParams(2.0, 2.0, 1.0), 0.8)
    assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0


def test_superop_over_slow_is_the_lifted_transfer_matrix(rng):
    for _ in range(50):
        params = ChannelParams(*rng.uniform(0.0, 5.0, size=3))
        t = float(rng.uniform(0.0, 3.0))
        slows, logs = entry_logs_over_slow(params, [t])
        slow, s = slows[0], superop_over_slow(logs)[0]
        assert slow == decay_modes(params, t)[0]
        assert np.max(np.abs(s - ptm_to_superop(ptm_at(params, t)) / slow)) <= 1e-15


def test_superop_over_slow_entries_are_non_negative_past_underflow():
    for params in (REFERENCE, ChannelParams(100.0, 0.0, 0.01), ChannelParams(0.0, 0.0, 3.0)):
        assert np.array_equal(map_over_slow(params, 0.0), np.eye(4))
        for t in (0.3, 10.0, 1e4, 1e300):
            s = map_over_slow(params, t)
            assert np.all((s >= 0.0) & (s <= 1.0))
            assert s[0, 3] == s[3, 0] and s[1, 1] == s[2, 2]
            mask = np.ones((4, 4), dtype=bool)
            for idx in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3)):
                mask[idx] = False
            assert np.all(s[mask] == 0.0)


def test_superop_over_slow_pure_loss_is_exact():
    # over the slower V mode, H keeps exp(-(gh - gv) t) and nothing crosses over
    t = 1.7
    s = map_over_slow(ChannelParams(3.0, 0.5, 0.0), t)
    assert s[0, 0] == math.exp(-2.5 * t) and s[3, 3] == 1.0
    assert s[0, 3] == 0.0


@pytest.mark.parametrize(
    "params, times",
    [
        # t = 0, then past the slow mode's underflow near t = 520
        (REFERENCE, [0.0, 0.3, 1e3, 1e4, 1e300]),
        (ChannelParams(3.0, 0.5, 0.0), [0.0, 1.7, 1e3]),
        # rates above 2^1020, formed at an eighth of their size
        (ChannelParams(1.7e308, 0.0, 1.7e308), [0.0, 1e-309, 6e-309, 1e-300]),
    ],
)
def test_superop_over_slow_on_a_sequence_is_the_stacked_single_calls(params, times):
    # each row, bit for bit, is the row of the call on its own time alone
    slows, logs = entry_logs_over_slow(params, times)
    maps = superop_over_slow(logs)
    assert slows.shape == (len(times),) and maps.shape == (len(times), 4, 4)
    for k, t in enumerate(times):
        slow, log_row = entry_logs_over_slow(params, [t])
        s = superop_over_slow(log_row)
        assert slow.shape == (1,) and s.shape == (1, 4, 4)
        assert slows[k].tobytes() == slow[0].tobytes()
        assert maps[k].tobytes() == s[0].tobytes()


@pytest.mark.parametrize(
    "params",
    [
        REFERENCE,
        ChannelParams(3.0, 0.5, 0.0),
        ChannelParams(0.0, 0.0, 3.0),
        ChannelParams(1.7e308, 0.0, 1.7e308),
    ],
)
def test_superop_over_slow_entries_are_the_exponentials_of_the_entry_logs(params):
    # to the bit, alone and stacked: the map holds no second formula for its entries
    times = [0.0, 1e-300, 0.3, 1.7, 1e3, 1e300]
    maps = superop_over_slow(entry_logs_over_slow(params, times)[1])
    for t, stacked in zip(times, maps):
        log_hh, log_vv, log_hv, log_c = entry_logs_at(params, t)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[3, 3] = math.exp(log_hh), math.exp(log_vv)
        expected[0, 3] = expected[3, 0] = math.exp(log_hv)
        expected[1, 1] = expected[2, 2] = math.exp(log_c)
        assert map_over_slow(params, t).tobytes() == expected.tobytes()
        assert stacked.tobytes() == expected.tobytes()


def test_superop_over_slow_grid_is_pinned_to_the_bit():
    # the bytes of 1000 single-time calls, each formed with math's
    # exponentials: numpy's ufuncs match those only to the last bit
    slows, logs = entry_logs_over_slow(REFERENCE, np.linspace(0.0, 1.0, 1000).tolist())
    maps = superop_over_slow(logs)
    digest = hashlib.sha256(slows.tobytes() + maps.tobytes()).hexdigest()
    assert digest == "bad1c087d1ed47e1222f0750bd3875f5badd056c2699ab8664140983cff74c82"


def test_integration_at_zero_is_identity():
    assert np.array_equal(ptm_via_integration([REFERENCE], 0.0, 1e-3), [np.eye(4)])


def test_integration_agrees_with_closed_form():
    for t in (0.1, 0.5, 1.0):
        dev = np.max(np.abs(ptm_at(REFERENCE, t) - ptm_via_integration([REFERENCE], t, 1e-4)[0]))
        assert dev <= 1e-8


def test_integration_default_step():
    # 1e-4 over REFERENCE's largest rate: at this fine a step the oracle meets
    # the closed form to 1e-10
    dev = np.max(np.abs(ptm_at(REFERENCE, 0.05) - ptm_via_integration([REFERENCE], 0.05, 2e-5)[0]))
    assert dev <= 1e-10


def test_integration_rejects_bad_step():
    # an infinite step was once one RK4 step over the whole interval
    for dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            ptm_via_integration([REFERENCE], 1.0, dt)


def test_integration_rejects_non_finite_time():
    for t in (math.inf, math.nan):
        # also with no line to integrate
        for lines in ([], [REFERENCE, REFERENCE]):
            with pytest.raises(ValueError):
                ptm_via_integration(lines, t, 1e-3)


# a subset of the validate grid: pure loss, pure depolarization, both, and
# max rates 0.5, 1 and 5
STACK_PARAMS = [
    ChannelParams(gh, gv, g)
    for gh, gv, g in (
        (0.0, 0.5, 0.0), (5.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 5.0),
        (1.0, 1.0, 1.0), (0.5, 5.0, 0.5), (5.0, 1.0, 0.5), (0.0, 5.0, 0.5),
        (1.0, 0.5, 0.0), (0.5, 0.0, 1.0), (5.0, 5.0, 5.0), (0.5, 0.5, 0.5),
    )
]


def test_integration_stack_matches_single_calls():
    # each row, bit for bit, is the call on its own line alone
    for dt in (5e-4, 1e-4):
        for t in (0.1, 0.25):
            stacked = ptm_via_integration(STACK_PARAMS, t, dt)
            single = [ptm_via_integration([p], t, dt) for p in STACK_PARAMS]
            assert stacked.shape == (len(STACK_PARAMS), 4, 4)
            assert single[0].shape == (1, 4, 4)
            assert stacked.tobytes() == np.concatenate(single).tobytes()


def test_integration_stack_at_zero_is_identity():
    stacked = ptm_via_integration(STACK_PARAMS, 0.0, 1e-3)
    assert np.array_equal(stacked, np.tile(np.eye(4), (len(STACK_PARAMS), 1, 1)))


@pytest.mark.parametrize("t", [0.0, 0.25])
def test_integration_of_no_lines_is_an_empty_stack(t):
    # as conditional_state, negativity and fixed_point_iterate answer an empty stack
    assert ptm_via_integration([], t, 1e-3).shape == (0, 4, 4)


def test_integration_stack_matches_single_calls_across_bit_lengths():
    # h a power of two, so that t = n h takes exactly n steps: one step, and
    # both sides of two powers of two
    h = 2.0**-14
    for n in (1, 1023, 1024, 1025, 2048, 2049):
        t = n * h
        assert math.ceil(t / h) == n
        # dt = t and dt > t: one step
        for dt in (h, t, 3.0 * t):
            stacked = ptm_via_integration(STACK_PARAMS, t, dt)
            single = [ptm_via_integration([p], t, dt) for p in STACK_PARAMS]
            assert stacked.tobytes() == np.concatenate(single).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 4097])
def test_integration_semigroup_at_a_fixed_step(n):
    # h a power of two, so that t = n h and t / h = n are exact
    h = 2.0**-10
    half = ptm_via_integration([REFERENCE], n * h, h)[0]
    whole = ptm_via_integration([REFERENCE], 2 * n * h, h)[0]
    assert np.max(np.abs(whole - half @ half)) <= 1e-14


def test_integration_at_the_step_cap():
    # 1e8 steps asked for, MAX_RK4_STEPS = 1e7 taken
    capped = ptm_via_integration([REFERENCE], 1.0, 1e-8)
    assert np.max(np.abs(ptm_at(REFERENCE, 1.0) - capped[0])) <= 1e-10
    # t / dt = inf is capped the same way
    assert np.array_equal(ptm_via_integration([REFERENCE], 1.0, 1e-320), capped)


def test_pure_depolarization_both_paths():
    g, t = 2.0, 0.7
    params = ChannelParams(0.0, 0.0, g)
    expected = np.diag([1.0, math.exp(-g * t), math.exp(-g * t), math.exp(-g * t)])
    assert np.max(np.abs(ptm_at(params, t) - expected)) <= 1e-12
    assert np.max(np.abs(ptm_via_integration([params], t, 1e-4)[0] - expected)) <= 1e-8


def test_semigroup_property(rng):
    for _ in range(20):
        params = ChannelParams(*rng.uniform(0.0, 3.0, size=3))
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        joint = ptm_at(params, t1 + t2)
        split = ptm_at(params, t1) @ ptm_at(params, t2)
        assert np.max(np.abs(joint - split)) <= 1e-10


def test_cp_and_trace_nonincreasing_on_grid():
    for params in (REFERENCE, ChannelParams(0.5, 0.0, 0.0), ChannelParams(0.0, 0.0, 5.0)):
        for t in (0.0, 0.1, 1.0, 3.0):
            m = ptm_at(params, t)
            assert is_cp(m)
            assert is_trace_nonincreasing(m)


def test_detection_probability_at_zero(rng):
    rho = random_density(rng, 2)
    assert abs(detection_probability(ptm_at(REFERENCE, 0.0), rho) - 1.0) <= 1e-14


def test_detection_probability_pure_loss_on_h():
    ket_h = np.diag([1.0, 0.0]).astype(complex)
    params = ChannelParams(2.0, 0.5, 0.0)
    for t in (0.3, 1.0, 2.5):
        prob = detection_probability(ptm_at(params, t), ket_h)
        assert abs(prob - math.exp(-2.0 * t)) <= 1e-12


def test_detection_probability_maximally_mixed():
    mixed = np.eye(2, dtype=complex) / 2.0
    for t in (0.2, 1.0):
        m = ptm_at(REFERENCE, t)
        assert abs(detection_probability(m, mixed) - m[0, 0]) <= 1e-14


def test_detection_probability_strictly_decreasing_with_loss():
    rho = np.diag([0.25, 0.75]).astype(complex)
    prev = 1.0
    for t in np.linspace(0.1, 3.0, 12):
        prob = detection_probability(ptm_at(REFERENCE, float(t)), rho)
        assert prob < prev
        prev = prob
    assert prev < 1.0


def test_detection_probability_monotone_for_random_states(rng):
    for _ in range(10):
        rho = random_density(rng, 2)
        probs = [
            detection_probability(ptm_at(REFERENCE, float(t)), rho)
            for t in np.linspace(0.0, 2.0, 21)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_detection_probability_rejects_bad_states():
    m = ptm_at(REFERENCE, 0.1)
    with pytest.raises(ValueError):
        detection_probability(m, np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        detection_probability(m, np.diag([1.5, -0.5]).astype(complex))  # indefinite
    with pytest.raises(ValueError):
        detection_probability(m, np.eye(4, dtype=complex) / 4.0)  # wrong size
