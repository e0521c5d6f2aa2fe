"""Normal-form machinery: closed form against the fixed-point iteration."""

import math
import random
import sys
from decimal import Decimal

import numpy as np
import pytest

from conftest import (
    decimal_fixed_point,
    entry_logs_at,
    identity_ptm,
    is_cp,
    is_trace_preserving,
    is_unital,
    map_over_slow,
    sandwich,
)
from qsink import cli, sinkhorn
from qsink.dynamics import ChannelParams, decay_modes, ptm_at
from qsink.linalg import SIGMA
from qsink.sinkhorn import (
    NORMAL_FORM_TOL,
    _fixed_point,
    decompose,
    fixed_point_iterate,
    unital_lambdas,
)

REFERENCE = ChannelParams(1.0, 5.0, 1.0)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

PARAM_GRID = [
    ChannelParams(gh, gv, g)
    for gh in (0.0, 0.5, 1.0, 5.0)
    for gv in (0.0, 0.5, 1.0, 5.0)
    for g in (0.0, 0.5, 1.0, 5.0)
    if gh + gv + g > 0.0
]
TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)


def weight_of(s_op: np.ndarray) -> float:
    """sigma_z weight of a trace-2 fixed point I + s sigma_z."""
    return float((s_op[0, 0] - s_op[1, 1]).real) / 2.0


def weight_from_entries(m: np.ndarray) -> float:
    """The same weight straight from a, b, d: -2b / (a + d + sqrt((a+d)^2 - 4b^2))."""
    a, b, d = m[0, 0], m[0, 3], m[3, 3]
    return -2.0 * b / (a + d + math.sqrt((a + d) ** 2 - 4.0 * b * b))


# ---------------------------------------------------------------------------
# fixed_point_iterate
# ---------------------------------------------------------------------------


def test_iterate_depolarizing_fixed_point_is_identity():
    m = np.diag([1.0, 0.7, 0.7, 0.7])
    s_op = fixed_point_iterate(m)
    assert np.max(np.abs(s_op - np.eye(2))) <= 1e-12


def test_iterate_matches_closed_form():
    t = 0.3
    s_op = fixed_point_iterate(ptm_at(REFERENCE, t))
    assert abs(weight_of(s_op) - decompose(REFERENCE, t).s) <= 1e-10


def test_iterate_gauge_and_diagonality():
    s_op = fixed_point_iterate(ptm_at(REFERENCE, 0.5))
    assert abs(np.trace(s_op).real - 2.0) <= 1e-12
    assert abs(s_op[0, 1]) <= 1e-15
    assert abs(s_op[1, 0]) <= 1e-15


def test_iterate_after_a_unitary_gives_the_rotated_fixed_point():
    # L' = U L[.] U^dag is not self-dual, and F'[S] = U F[U^dag S U] U^dag,
    # so its fixed point U S U^dag has every Pauli component
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    half_angle = 0.4
    u = math.cos(half_angle) * np.eye(2) - 1j * math.sin(half_angle) * sum(
        n * pauli for n, pauli in zip(axis, SIGMA[1:])
    )
    for params, t in ((REFERENCE, 0.3), (ChannelParams(5.0, 0.5, 1.0), 1.0)):
        s_op = np.eye(2) + decompose(params, t).s * SIGMA_Z
        iterated = fixed_point_iterate(sandwich(u) @ ptm_at(params, t))
        assert np.array_equal(iterated, iterated.conj().T)
        assert min(abs(iterated[0, 1].real), abs(iterated[0, 1].imag)) >= 0.01
        assert np.max(np.abs(iterated - u @ s_op @ u.conj().T)) <= 1e-9


def test_iterate_converges_in_the_off_diagonal_entries():
    # turned from z to x, S = I + s sigma_x moves only off the diagonal
    # (besides its trace); the slowest map of the validate grid comes within
    # 1e-10 of it only if the stopping rule reads those entries too
    params, t = ChannelParams(0.0, 0.5, 0.5), 0.1
    u = (np.eye(2) - 1j * SIGMA[2]) / math.sqrt(2.0)
    iterated = fixed_point_iterate(sandwich(u) @ ptm_at(params, t))
    expected = np.eye(2) + decompose(params, t).s * SIGMA[1]
    assert np.max(np.abs(iterated - expected)) <= 1e-10


def test_iterate_rejects_expanding_map():
    with pytest.raises(ValueError):
        fixed_point_iterate(np.diag([1.0, 1.2, 1.2, 1.2]))


def test_iterate_rejects_identity_annihilating_map():
    # sends I to a rank-one projector, so the first inversion is impossible
    m = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.1, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
    with pytest.raises(ValueError):
        fixed_point_iterate(m)


def test_iterate_respects_max_iter(monkeypatch):
    monkeypatch.setattr(sinkhorn, "FIXED_POINT_MAX_ITER", 5)
    with pytest.raises(RuntimeError, match="within 5 steps"):
        fixed_point_iterate(ptm_at(REFERENCE, 0.3))
    with pytest.raises(RuntimeError, match="within 5 steps"):
        # the depolarizing map converges at once; the other still holds the stack
        maps = np.stack([np.diag([1.0, 0.7, 0.7, 0.7]), ptm_at(REFERENCE, 0.3)])
        fixed_point_iterate(maps)


def test_iterate_rejects_maps_that_are_not_4x4():
    for shape in ((4,), (3, 3), (4, 5), (2, 3, 3)):
        with pytest.raises(ValueError, match=r"expected 4x4 transfer matrices, got shape"):
            fixed_point_iterate(np.zeros(shape))


def test_iterate_rejects_non_finite_maps():
    # fails up front, not after max_iter steps of NaN
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fixed_point_iterate(np.full((4, 4), value))
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 2, 2] = value
        with pytest.raises(ValueError, match="finite"):
            fixed_point_iterate(stack)


# a subset of the validate grid: (0, 0, 0.5) converges in 1 step at every
# time, (0, 5, 0.5) and (5, 0.5, 0.5) at t = 0.1 take 232 steps, the most
STACK_PARAMS = [
    ChannelParams(gh, gv, g)
    for gh, gv, g in (
        (0.0, 0.0, 0.5), (0.0, 5.0, 0.5), (5.0, 0.5, 0.5), (1.0, 1.0, 1.0),
        (0.5, 5.0, 0.5), (5.0, 1.0, 0.5), (0.0, 0.0, 5.0), (1.0, 0.5, 1.0),
        (0.5, 0.0, 1.0), (5.0, 5.0, 5.0), (0.0, 1.0, 5.0), (1.0, 5.0, 1.0),
    )
]


def test_iterate_stack_matches_single_calls():
    maps = np.stack([ptm_at(p, t) for p in STACK_PARAMS for t in (0.1, 1.0)])
    single = np.stack([fixed_point_iterate(m) for m in maps])
    assert single.shape == (len(maps), 2, 2)
    assert np.array_equal(fixed_point_iterate(maps), single)
    # any leading shape
    nested = fixed_point_iterate(maps.reshape(2, -1, 4, 4))
    assert np.array_equal(nested, single.reshape(2, -1, 2, 2))
    assert fixed_point_iterate(np.empty((0, 4, 4))).shape == (0, 2, 2)


def test_iterate_stack_rejects_one_bad_map():
    maps = np.stack([ptm_at(REFERENCE, 0.3), np.diag([1.0, 1.2, 1.2, 1.2])])
    with pytest.raises(ValueError, match="Pauli eigenstate probe"):
        fixed_point_iterate(maps)


# ---------------------------------------------------------------------------
# the closed-form weight s of decompose
# ---------------------------------------------------------------------------


def test_closed_form_s_zero_for_balanced_loss():
    assert decompose(ChannelParams(2.0, 2.0, 1.0), 0.7).s == 0.0


def test_closed_form_s_sign_tracks_imbalance():
    for t in (0.2, 1.0, 3.0):
        assert decompose(ChannelParams(5.0, 1.0, 1.0), t).s > 0.0
        assert decompose(ChannelParams(1.0, 5.0, 1.0), t).s < 0.0


def random_lines_and_times(seed: int, count: int):
    """(line, t) with each rate 0 or 10^U(-3, 3) and t = 10^U(-3, 2)."""
    rng = random.Random(seed)

    def rate() -> float:
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 3.0)

    return [
        (ChannelParams(rate(), rate(), rate()), 10.0 ** rng.uniform(-3.0, 2.0))
        for _ in range(count)
    ]


def test_fixed_point_is_the_width_formula_at_60_digits():
    # the closed form through the entries' identities, against the width and
    # denominator formula evaluated at 60 digits on the same inputs
    bound = 4 * Decimal(sys.float_info.epsilon)
    for params, t in random_lines_and_times(16, 2000):
        ref_s, ref_logs, _ = decimal_fixed_point(params, t)
        found_logs = _fixed_point(*entry_logs_at(params, t)[:3])
        for found, ref in zip(found_logs, ref_logs, strict=True):
            if ref.is_infinite():
                assert found == -math.inf, (params, t)
            else:
                assert abs(Decimal(found) - ref) <= bound * max(1, abs(ref)), (params, t)
        try:
            s = decompose(params, t).s
        except ValueError:
            continue  # a degenerate filter
        assert abs(Decimal(s) - ref_s) <= bound * abs(ref_s), (params, t)


def test_lambdas_are_the_identities_on_the_map_entries():
    # lx = c / (sqrt(H V) + h), lz = (sqrt(H V) - h) / (sqrt(H V) + h) and
    # sqrt(H V)^2 - h^2 = q, with H, V, h, c the map's entries over its slow
    # mode, wherever H and V are normal doubles
    checked = 0
    for params, t in random_lines_and_times(17, 2000):
        x = map_over_slow(params, t)
        hh, vv, hv, coherence = x[0, 0], x[3, 3], x[0, 3], x[1, 1]
        if min(hh, vv) < sys.float_info.min:
            continue
        checked += 1
        root = math.sqrt(hh) * math.sqrt(vv)
        lam_x, _, lam_z = unital_lambdas(params, t)
        assert abs(coherence / (root + hv) - lam_x) <= 4e-15, (params, t)
        assert abs((root - hv) / (root + hv) - lam_z) <= 4e-15, (params, t)
        assert abs(root * root - hv * hv - math.exp(decay_modes(params, t)[1])) <= 4e-15, (params, t)
    assert checked >= 1900


def test_closed_form_s_stays_inside_unit_interval():
    for params in PARAM_GRID:
        for t in TIME_GRID:
            assert abs(decompose(params, t).s) < 1.0


# ---------------------------------------------------------------------------
# unital_lambdas
# ---------------------------------------------------------------------------


def test_lambdas_at_zero():
    assert unital_lambdas(REFERENCE, 0.0) == (1.0, 1.0, 1.0)


def test_lambdas_pure_loss_is_identity_signal():
    # the unital part of a pure polarization filter is the identity map,
    # out to times where one decay mode is hundreds of orders below the other
    params = ChannelParams(1.0, 5.0, 0.0)
    for t in (0.5, 5.0, 50.0, 100.0):
        lams = unital_lambdas(params, t)
        assert max(abs(l - 1.0) for l in lams) <= 1e-12


def test_lambdas_pure_loss_past_mode_underflow():
    # both decay modes underflow here; the signal parameters are ratios
    params = ChannelParams(1.0, 5.0, 0.0)
    for t in (400.0, 1e6, 1e300):
        assert unital_lambdas(params, t) == (1.0, 1.0, 1.0)


def test_lambdas_symmetric_depolarization():
    g, t = 1.5, 0.8
    lams = unital_lambdas(ChannelParams(0.0, 0.0, g), t)
    for lam in lams:
        assert abs(lam - math.exp(-g * t)) <= 1e-14


def test_lambdas_match_direct_formulas():
    # same quantities straight from the transfer-matrix entries; this route
    # loses precision at large times, so the grid stays moderate
    for params in PARAM_GRID:
        for t in TIME_GRID:
            m = ptm_at(params, t)
            a, b, c, d = m[0, 0], m[0, 3], m[1, 1], m[3, 3]
            root = math.sqrt((a + d) ** 2 - 4.0 * b * b)
            den = a - d + root
            direct_x = 2.0 * c / den
            direct_z = 4.0 * (a * d - b * b) / (den * den)
            lam_x, lam_y, lam_z = unital_lambdas(params, t)
            assert lam_x == lam_y
            assert abs(lam_x - direct_x) <= 1e-12
            assert abs(lam_z - direct_z) <= 1e-12


def test_lambdas_ordering_on_grid():
    for params in PARAM_GRID:
        for t in TIME_GRID:
            lam_x, lam_y, lam_z = unital_lambdas(params, t)
            # x and z coincide to the last ulp when gh == gv
            assert lam_y >= lam_z - 1e-12
            assert lam_z >= 0.0
            assert lam_x <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_at_zero_is_trivial():
    dec = decompose(REFERENCE, 0.0)
    assert dec.s == 0.0
    assert (dec.lambda_x, dec.lambda_y, dec.lambda_z) == (1.0, 1.0, 1.0)
    assert max(abs(a - 1.0) for a in dec.a_diag) <= 1e-12
    assert abs(dec.log_b_scale) <= 1e-12
    assert np.max(np.abs(np.diag(dec.upsilon) - identity_ptm())) <= 1e-9


def test_decompose_rejects_negative_time():
    with pytest.raises(ValueError):
        decompose(REFERENCE, -0.5)


def test_decompose_short_time_limit():
    dec = decompose(REFERENCE, 1e-9)
    assert abs(dec.lambda_x - 1.0) <= 1e-8
    assert abs(dec.lambda_z - 1.0) <= 1e-8
    assert abs(dec.s) <= 1e-8


def test_decompose_pure_depolarization():
    g, t = 1.2, 0.9
    dec = decompose(ChannelParams(0.0, 0.0, g), t)
    assert dec.s == 0.0
    # L^dag[I] = I: the slow mode is 1 and so is w
    assert max(abs(a - 1.0) for a in dec.a_diag) <= 1e-14
    assert abs(dec.log_b_scale) <= 1e-14
    for lam in (dec.lambda_x, dec.lambda_y, dec.lambda_z):
        assert abs(lam - math.exp(-g * t)) <= 1e-14


def test_decompose_pure_loss_unital_part_is_identity():
    dec = decompose(ChannelParams(2.0, 0.5, 0.0), 1.3)
    assert np.max(np.abs(np.diag(dec.upsilon) - identity_ptm())) <= 1e-12
    assert abs(dec.lambda_x - dec.lambda_z) <= 1e-12


def test_decompose_balanced_loss_has_equal_lambdas():
    dec = decompose(ChannelParams(2.0, 2.0, 1.0), 0.6)
    assert dec.s == 0.0
    assert dec.lambda_x == dec.lambda_y
    assert abs(dec.lambda_x - dec.lambda_z) <= 1e-12


def test_decompose_weight_matches_closed_form():
    for params in PARAM_GRID:
        for t in TIME_GRID:
            dec = decompose(params, t)
            assert abs(dec.s - weight_from_entries(ptm_at(params, t))) <= 1e-12


def test_decompose_unital_part_properties():
    for params in (REFERENCE, ChannelParams(0.5, 0.0, 5.0)):
        for t in (0.1, 1.0):
            dec = decompose(params, t)
            upsilon = np.diag(dec.upsilon)
            assert is_trace_preserving(upsilon)
            assert is_unital(upsilon)
            assert is_cp(upsilon)
            target = np.diag([1.0, dec.lambda_x, dec.lambda_y, dec.lambda_z])
            assert np.max(np.abs(upsilon - target)) <= NORMAL_FORM_TOL


def test_decompose_self_check_is_the_dense_residual_to_the_bit():
    # decompose reports the residual of its own self-check: upsilon against
    # the signal parameters, and the filters' shape against s.  On the
    # validate grid's depolarizing cases it is the largest deviation of
    # Upsilon's whole 4x4 transfer matrix, as it was when that was held dense
    for params in PARAM_GRID:
        if params.gamma == 0.0:
            continue
        for t in TIME_GRID:
            dec = decompose(params, t)
            target = np.diag([1.0, dec.lambda_x, dec.lambda_y, dec.lambda_z])
            shape = np.square(dec.a_diag) - (1.0 + dec.s, 1.0 - dec.s)
            dense = np.maximum(abs(np.diag(dec.upsilon) - target).max(), abs(shape).max())
            assert dec.self_check.hex() == float(dense).hex(), (params, t)


def b_diag(dec) -> np.ndarray:
    """The output filter B = exp(log_b_scale) A as its diagonal."""
    return math.exp(dec.log_b_scale) * np.array(dec.a_diag)


def test_decompose_filters_are_positive_diagonal():
    for params, t in ((REFERENCE, 0.8), (ChannelParams(0.5, 5.0, 0.5), 2.0)):
        dec = decompose(params, t)
        assert min(dec.a_diag) > 0.0 and math.isfinite(dec.log_b_scale)
        # A = sqrt(S) and B = (L^dag[S])^(-1/2), with S = I + s sigma_z and L^dag = m^T
        assert np.max(np.abs(np.square(dec.a_diag) - (1.0 + dec.s, 1.0 - dec.s))) <= 1e-15
        image = ptm_at(params, t).T @ (2.0, 0.0, 0.0, 2.0 * dec.s)
        eigenvalues = 0.5 * (image[0] + image[3]), 0.5 * (image[0] - image[3])
        assert np.max(np.abs(b_diag(dec) ** -2 / eigenvalues - 1.0)) <= 1e-14


def test_decompose_round_trip():
    # undo the filters: L = F_{A^-1} . U . F_{B^-1}
    for params in (REFERENCE, ChannelParams(0.5, 5.0, 0.5)):
        for t in (0.2, 1.0, 2.0):
            dec = decompose(params, t)
            a_inv = np.diag(1.0 / np.array(dec.a_diag))
            b_inv = np.diag(1.0 / b_diag(dec))
            rebuilt = sandwich(a_inv) @ (np.diag(dec.upsilon) @ sandwich(b_inv))
            assert np.max(np.abs(rebuilt - ptm_at(params, t))) <= 1e-9


def test_decompose_fixed_point_matches_iteration():
    for params in (REFERENCE, ChannelParams(0.5, 1.0, 0.5), ChannelParams(5.0, 0.5, 1.0)):
        for t in (0.25, 0.5, 1.0):
            dec = decompose(params, t)
            s_op = np.eye(2, dtype=complex) + dec.s * SIGMA_Z
            iterated = fixed_point_iterate(ptm_at(params, t))
            assert np.max(np.abs(s_op - iterated)) <= 1e-9


def test_decompose_degenerate_filter_raises():
    # pure loss with G t = 1e310: the mode ratio's log is -inf, and so is log(1 - s)
    with pytest.raises(ValueError, match=r"degenerate filter B: .*log\(1 - s\) = -inf"):
        decompose(ChannelParams(1e300, 0.0, 0.0), 1e10)
    # balanced loss, so s = 0, but (r - G) t / 2 = 1e310 is past the double range
    with pytest.raises(ValueError, match="degenerate filter B: log_b_scale = inf from log slow = -inf"):
        decompose(ChannelParams(1e300, 1e300, 0.0), 1e10)


def test_decompose_refuses_a_normal_form_its_self_check_fails(capsys, monkeypatch):
    # lambdas a millionth off: upsilon no longer matches diag(1, lx, ly, lz)
    lambdas = sinkhorn.unital_lambdas
    monkeypatch.setattr(sinkhorn, "unital_lambdas",
                        lambda *args: tuple(lam * (1.0 + 1e-6) for lam in lambdas(*args)))
    with pytest.raises(RuntimeError, match="normal form self-check failed"):
        decompose(REFERENCE, 0.3)
    code = cli.main(["sinkhorn", "--gh1", "1", "--gv1", "5", "--g1", "1", "--t", "0.3"])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: normal form self-check failed")


@pytest.mark.parametrize("index", [0, 1, 2])
def test_decompose_refuses_a_nan_in_its_self_check(monkeypatch, index):
    # one NaN signal parameter, which Python's max would pass over past the first place
    lambdas = sinkhorn.unital_lambdas
    monkeypatch.setattr(sinkhorn, "unital_lambdas", lambda *args: tuple(
        math.nan if k == index else lam for k, lam in enumerate(lambdas(*args))
    ))
    with pytest.raises(RuntimeError, match="normal form self-check failed: .* = nan"):
        decompose(REFERENCE, 0.3)



def test_decompose_returns_past_mode_underflow():
    # a strongly filtering pure-loss line: L^dag[S]'s eigenvalues are about
    # e^-400 at t = 200, and at t = 800 the fast mode and the shape's entry
    # sqrt(1 + s) underflow to 0; the shape and the scale stay finite logs,
    # and the unital part is the identity
    params = ChannelParams(1.0, 5.0, 0.0)
    eps = sys.float_info.epsilon
    for t in (200.0, 800.0):
        dec = decompose(params, t)
        assert np.max(np.abs(np.diag(dec.upsilon) - identity_ptm())) <= 1e-12
        _, ref_logs, _ = decimal_fixed_point(params, t)
        found_logs = _fixed_point(*entry_logs_at(params, t)[:3])
        for found, ref in zip(found_logs, ref_logs, strict=True):
            assert abs(Decimal(found) - ref) <= 4 * Decimal(eps) * max(1, abs(ref)), t
        for found, ref in zip(dec.a_diag, ref_logs[:2]):
            expected = float((ref / 2).exp())
            assert abs(found - expected) <= 4 * eps * max(1.0, abs(float(ref))) * expected, t
        # log beta = -(log slow + log(1 + s) + log eig_h) / 2, with log eig_h =
        # log(1 - s) + log w; the slow mode's log is taken as exact
        log_slow = params.decay_rates[1] * t
        log_eig_h = ref_logs[1] + ref_logs[2]
        ref_scale = -(Decimal(log_slow) + ref_logs[0] + log_eig_h) / 2
        terms = abs(Decimal(log_slow)) + abs(ref_logs[0]) + abs(log_eig_h)
        assert abs(Decimal(dec.log_b_scale) - ref_scale) <= 4 * Decimal(eps) * terms, t
    assert dec.a_diag[0] == 0.0


def test_decompose_returns_on_ordinary_inputs():
    # each rate 10^U(-3, 3) and t = 10^U(-2, 1): 222 of these 2000 once
    # raised "degenerate filter", from an absolute floor on eigenvalues
    # that scale with the slow mode
    rng = random.Random(9)
    for _ in range(2000):
        params = ChannelParams(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
        t = 10.0 ** rng.uniform(-2.0, 1.0)
        assert decompose(params, t).self_check <= 1e-14, (params, t)
