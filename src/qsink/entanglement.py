"""Two-qubit entanglement under independent lossy lines.

The central object is the lifetime equation

    g(t) = lx lx' + ly ly' + lz lz' - 1,

built from the unital normal forms of the two lines.  g(0) = 2, and the
first root of g is the maximal time up to which *some* initial two-qubit
state stays entangled conditioned on both photons being detected; past it,
every initial state comes out separable.  optimal_state() builds the state
that saturates that bound by undoing the output filters of the two normal
forms on a maximally entangled pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelParams, _entry_logs, _mode_ratio
from .linalg import PSD_TOL, _first_flagged, hermitian_part, partial_transpose_second
from .sinkhorn import _filter_shape, _fixed_point, unital_lambdas

PSI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)

# Detection probabilities at or below this make the conditional state meaningless.
MIN_DETECTION_PROB = 1e-14

_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_INTERVAL_TOL = 1e-12
# A computed g beyond _ROOT_RESIDUAL_TOL by this much settles the sign of
# every bisection midpoint on its side (max_lifetime); g's rounding breaks
# its monotonicity by at most a few ulps.
_SETTLE_MARGIN = 1e-12


def _check_state(rho: np.ndarray, normalized: bool) -> np.ndarray:
    """rho, or each state of a stack, symmetrized and checked; errors name the first bad one."""
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    low = np.linalg.eigvalsh(rho)[..., 0]
    bad = _first_flagged(low, ~(low >= -PSD_TOL))
    if bad is not None:
        raise ValueError(f"state is not positive semidefinite (min eigenvalue {bad:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if normalized:
        bad = _first_flagged(tr, np.abs(tr - 1.0) > 1e-10)
        if bad is not None:
            raise ValueError(f"state must have unit trace, got {bad!r}")
    else:
        bad = _first_flagged(tr, ~((MIN_DETECTION_PROB < tr) & (tr <= 1.0 + 1e-12)))
        if bad is not None:
            raise ValueError(f"state trace must lie in (0, 1], got {bad!r}")
    return rho


def negativity(rho: np.ndarray) -> np.ndarray:
    """Entanglement negativity: the sum of max(0, -lambda) over the eigenvalues of PT(rho).

    This is (|PT(rho)|_1 - 1) / 2 for a unit-trace state, without the trace
    subtracted in rounding: a separable state, whose PT has no negative
    eigenvalue, gets exactly 0.  Subnormalized inputs are normalized first.
    A single state gives a float, a stack (..., 4, 4) of states an array of
    one per state.
    """
    rho = _check_state(rho, normalized=False)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    # PT keeps an exactly Hermitian rho exactly Hermitian
    eigenvalues = np.linalg.eigvalsh(partial_transpose_second(rho))
    return np.sum(np.maximum(0.0, -eigenvalues), axis=-1)


def _reshuffle(rho: np.ndarray) -> np.ndarray:
    """X[(i1 j1), (i2 j2)] = rho[(i1 i2), (j1 j2)], per matrix of a stack; its own inverse."""
    lead = rho.shape[:-2]
    return rho.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))


def conditional_state(
    s1: np.ndarray, s2: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Postselected output state and the detection probability.

    s1 and s2 are the maps of the two lines in the matrix-unit basis: 4x4
    matrices on row-major vec'd 2x2 operators, whose entry [(a b), (i j)]
    is the part of L[|i><j|] along |a><b| (dynamics.superop_over_slow).
    Applies the product map (s1 on the first qubit, s2 on the second) to a
    normalized initial state and renormalizes by the surviving trace.  With
    stacks of maps (..., 4, 4) the result is one state and one probability
    per map pair.
    """
    s1, s2 = np.asarray(s1), np.asarray(s2)
    if s1.shape[-2:] != (4, 4) or s2.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 maps, got shapes {s1.shape} and {s2.shape}")
    initial = _check_state(initial, normalized=True)
    # on the reshuffled state the product map is s1 X s2^T
    raw = _reshuffle(s1 @ _reshuffle(initial) @ np.swapaxes(s2, -1, -2))
    prob = np.trace(raw, axis1=-2, axis2=-1).real
    bad = _first_flagged(prob, prob <= MIN_DETECTION_PROB)
    if bad is not None:
        raise ValueError(f"detection probability vanished ({bad:.3e})")
    return raw / prob[..., None, None], prob


def lifetime_lhs(params1: ChannelParams, params2: ChannelParams, t: float) -> float:
    """g(t): positive before the lifetime, negative past it, exactly 2 at t = 0."""
    lam1 = unital_lambdas(params1, t)
    lam2 = unital_lambdas(params2, t)
    return lam1[0] * lam2[0] + lam1[1] * lam2[1] + lam1[2] * lam2[2] - 1.0


@dataclass(frozen=True)
class LifetimeResult:
    """Root-finding report for the lifetime equation.

    tau is None when g never crosses zero: at once when neither line
    depolarizes (bracket (0, inf), residual 2, no g evaluation), else only
    below t_max, the largest double unless given (bracket ends at t_max,
    residual is g there).
    evaluations counts the g evaluations of each phase of the search:
    "bracket" (the doubling), "secant" (the secant steps and the two probes
    that end them) and "bisection" (the midpoints no value had settled, and
    the final residual); iterations is their sum.
    """

    tau: float | None
    bracket: tuple[float, float]
    residual: float
    evaluations: dict[str, int]

    @property
    def iterations(self) -> int:
        return sum(self.evaluations.values())


def _log1p_g(g: float) -> float:
    """log(g + 1), the log of the sum of the lambda products; -inf where it underflows."""
    return math.log1p(g) if g > -1.0 else -math.inf


def max_lifetime(
    params1: ChannelParams, params2: ChannelParams, t_max: float | None = None
) -> LifetimeResult:
    """First root of the lifetime equation via bracket doubling and bisection.

    With a depolarizing line g(t) tends to -1, so doubling brackets the
    root unless the depolarization is too weak to act within the double
    range; t_max, by default (or when infinite) the largest double, caps
    the search.

    The first root is the only one: g never increases.  For one line with
    depolarization rate gamma and G = sqrt(gamma^2 + (gh - gv)^2) >= gamma,
    the signal parameters are lx = ly = exp(-gamma t / 2 - A) and
    lz = exp(-2 A), with

        A  = asinh((gamma / G) sinh(G t / 2)),
        A' = (gamma / 2) cosh(G t / 2) / sqrt(1 + (gamma / G)^2 sinh^2(G t / 2)).

    As gamma / G <= 1, the square root is at most cosh(G t / 2), so
    A' >= gamma / 2 >= 0.  Every l is therefore positive and non-increasing
    (identically 1 without depolarization), and strictly decreasing when
    gamma > 0.  g = 2 lx1 lx2 + lz1 lz2 - 1 is a sum of products of such
    factors: it never increases, and it strictly decreases as soon as
    either line depolarizes.  Past its root g stays negative, so nothing
    after the root is searched.

    The bisection is certified, not shortened: it halves the doubling's
    bracket and stops exactly where an evaluation of every midpoint would,
    but evaluates only the midpoints whose outcome g has not already
    settled.  A computed g(p) > clear = _ROOT_RESIDUAL_TOL + _SETTLE_MARGIN
    settles every midpoint m <= p: g(m) >= g(p) > _ROOT_RESIDUAL_TOL, so m
    is positive and no early stop, and the bisection takes low = m without
    asking.  Likewise g(p) < -clear settles every m >= p (high = m).  This
    needs the computed g to be monotone up to far less than the margin.
    lifetime_lhs chains operations that are each monotone in t and rounded
    to within an ulp, and test_lifetime_lhs_never_increases and its
    neighbouring-times variant hold it to 4 ulps of 1, a thousand times
    below _SETTLE_MARGIN.  So tau, bracket and residual are those of the
    plain bisection to the bit, whichever points settle the midpoints.

    To settle most of them, a secant step on f = log(g + 1), which is
    linear in t for symmetric depolarization, goes before each unsettled
    midpoint, from the last two points evaluated.  Each step stays strictly
    inside the unsettled interval, hence inside [0, t_max].  Once the last
    two values are so small that the next estimate is within about clear
    of the root, the two points +-1.5 clear / slope around it are probed
    instead, which leaves unsettled only the band where |g| is at most
    about 1.5 clear, and the secant stops.  The secant steps again only
    while it gains: right after a midpoint was evaluated, or after a step
    that at least halved |f|.  Otherwise, and when a step would leave the
    interval, the midpoint is evaluated as the plain bisection evaluates
    it, and the secant goes on from there.  Between two midpoints the
    halving bounds the steps (|f| <= 37 for any double g > -1).  The search
    needs about 11 g evaluations per root for rates on [1e-3, 1e3], where
    the plain bisection needs about 36.
    """
    if t_max is not None and not t_max > 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if params1.gamma == 0.0 and params2.gamma == 0.0:
        # both unital parts are the identity: g(t) = 2 for every t
        return LifetimeResult(
            tau=None, bracket=(0.0, math.inf), residual=2.0,
            evaluations={"bracket": 0, "secant": 0, "bisection": 0},
        )
    if t_max is None or t_max == math.inf:
        # the largest double: a start at 1 / (tiny rates) = inf is capped there
        t_max = sys.float_info.max
    total = params1.total_rate + params2.total_rate
    if total == math.inf:
        # rates near the double limit: a start at 1/inf = 0 would never double
        total = max(params1.max_rate, params2.max_rate)
    t_start = 1.0 / total

    # g(0) = 2 exactly, without an evaluation
    low, high, g_low = 0.0, min(t_start, t_max), 2.0
    g_high = lifetime_lhs(params1, params2, high)
    evals = {"bracket": 1, "secant": 0, "bisection": 0}
    while g_high >= 0.0:
        if high >= t_max:
            return LifetimeResult(
                tau=None, bracket=(low, high), residual=g_high, evaluations=evals
            )
        low, g_low = high, g_high
        high = min(2.0 * high, t_max)
        g_high = lifetime_lhs(params1, params2, high)
        evals["bracket"] += 1

    # every midpoint outside (sure_pos, sure_neg) is settled; none lies
    # outside (low, high).  (t0, f0), (t1, f1): the last two points
    # evaluated, with f = log(g + 1); the secant runs until it converges,
    # and only while it gains: after a midpoint, or a step that halved |f|
    clear = _ROOT_RESIDUAL_TOL + _SETTLE_MARGIN
    sure_pos, sure_neg = low, high
    t0, f0, t1, f1 = low, _log1p_g(g_low), high, _log1p_g(g_high)
    secant = gaining = True
    tau = None
    residual = math.nan
    # the bracket width is relative below tau = 1, so roots at tiny tau
    # (rates far above 1) keep their digits
    while high - low > _ROOT_INTERVAL_TOL * min(high, 1.0):
        mid = 0.5 * (low + high)
        if mid <= sure_pos:
            low = mid
            continue
        if mid >= sure_neg:
            high = mid
            continue
        if secant and gaining and f1 != f0:
            dt_df = (t1 - t0) / (f1 - f0)
            t = t1 - f1 * dt_df
            if sure_pos < t < sure_neg:
                # t is off the root by about f0 f1 in units of g: once that
                # is below clear, probe both sides of t instead, and stop
                secant = abs(f0 * f1) > clear
                width = 1.5 * clear * abs(dt_df)
                for probe in (t,) if secant else (t - width, t + width):
                    if sure_pos < probe < sure_neg:
                        g_probe = lifetime_lhs(params1, params2, probe)
                        evals["secant"] += 1
                        if g_probe > clear:
                            sure_pos = probe
                        elif g_probe < -clear:
                            sure_neg = probe
                if secant:
                    f = _log1p_g(g_probe)
                    gaining = abs(f) <= 0.5 * abs(f1)
                    t0, f0, t1, f1 = t1, f1, t, f
                # mid may be settled now
                continue
        g_mid = lifetime_lhs(params1, params2, mid)
        evals["bisection"] += 1
        if abs(g_mid) <= _ROOT_RESIDUAL_TOL:
            tau, residual = mid, g_mid
            break
        t0, f0, t1, f1 = t1, f1, mid, _log1p_g(g_mid)
        gaining = True
        # no later midpoint lies outside (low, high), nor may a secant step
        if g_mid > 0.0:
            low = sure_pos = mid
        else:
            high = sure_neg = mid
    if tau is None:
        tau = 0.5 * (low + high)
        residual = lifetime_lhs(params1, params2, tau)
        evals["bisection"] += 1

    return LifetimeResult(tau=tau, bracket=(low, high), residual=residual, evaluations=evals)


@dataclass(frozen=True)
class OptimalState:
    """The entanglement-maximizing initial state at the lifetime.

    filter_shapes holds each line's (sqrt(1 + s), sqrt(1 - s)): the shape of
    its output filter B, which is proportional to sqrt(S).
    """

    psi: np.ndarray
    rho: np.ndarray
    schmidt_coefficients: tuple[float, float]
    filter_shapes: tuple[tuple[float, float], tuple[float, float]]


def optimal_state(
    params1: ChannelParams, params2: ChannelParams, tau: float
) -> OptimalState:
    """State whose conditional entanglement survives until tau.

    Proportional to (B1 x B2)(|HH> + |VV>) with B the output filters of the
    two normal forms at tau; more weight ends up on the polarization that
    decays faster.  B is proportional to the square root of the fixed point
    S, so only the diagonals of the two fixed points enter.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    # each fixed point's diagonal log(1 +- s), read off the line's map entries
    (log_h1, log_v1), (log_h2, log_v2) = (
        _fixed_point(*_entry_logs(params, *_mode_ratio(params, tau))[:3])[:2]
        for params in (params1, params2)
    )
    # log of amp_h / amp_v = sqrt((1 + s1)(1 + s2) / ((1 - s1)(1 - s2))); the
    # fixed points' diagonals may underflow where this ratio does not
    log_ratio = 0.5 * ((log_h1 - log_v1) + (log_h2 - log_v2))
    amp_h = math.exp(min(log_ratio, 0.0))
    amp_v = math.exp(min(-log_ratio, 0.0))
    norm = math.hypot(amp_h, amp_v)
    psi = np.array([amp_h, 0.0, 0.0, amp_v], dtype=complex) / norm
    rho = np.outer(psi, psi.conj())
    coeffs = sorted((amp_h / norm, amp_v / norm), reverse=True)
    return OptimalState(
        psi=psi, rho=rho, schmidt_coefficients=(coeffs[0], coeffs[1]),
        filter_shapes=(_filter_shape(log_h1, log_v1), _filter_shape(log_h2, log_v2)),
    )
