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

from .dynamics import ChannelParams
from .linalg import _first_flagged, hermitian_part, partial_transpose_second, trace_norm
from .ptm import apply_two_qubit
from .sinkhorn import log_fixed_point_diagonal, unital_lambdas

PSI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)

# Detection probabilities at or below this make the conditional state meaningless.
MIN_DETECTION_PROB = 1e-14

_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_INTERVAL_TOL = 1e-12


def _check_state(rho: np.ndarray, normalized: bool) -> np.ndarray:
    """rho, or each state of a stack, symmetrized and checked; errors name the first bad one."""
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    low = np.linalg.eigvalsh(rho)[..., 0]
    bad = _first_flagged(low, low < -1e-9)
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
    """Entanglement negativity (|PT(rho)|_1 - 1) / 2, clamped at zero.

    Subnormalized inputs are normalized first.  A single state gives a
    float, a stack (..., 4, 4) of states an array of one per state.
    """
    rho = _check_state(rho, normalized=False)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return np.maximum(0.0, 0.5 * (trace_norm(partial_transpose_second(rho)) - 1.0))


def conditional_state(
    m1: np.ndarray, m2: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Postselected output state and the detection probability.

    Applies the product map (m1 on the first qubit, m2 on the second) to a
    normalized initial state and renormalizes by the surviving trace.  With
    stacks of maps (..., 4, 4) the result is one state and one probability
    per map pair.
    """
    initial = _check_state(initial, normalized=True)
    raw = apply_two_qubit(m1, m2, initial)
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
    iterations counts g evaluations.
    """

    tau: float | None
    bracket: tuple[float, float]
    residual: float
    iterations: int


def max_lifetime(
    params1: ChannelParams, params2: ChannelParams, t_max: float | None = None
) -> LifetimeResult:
    """First root of the lifetime equation via bracket doubling and bisection.

    With a depolarizing line g(t) tends to -1, so doubling brackets the
    root unless the depolarization is too weak to act within the double
    range; t_max, by default the largest double, caps the search.

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
    """
    if t_max is not None and not t_max > 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if params1.gamma == 0.0 and params2.gamma == 0.0:
        # both unital parts are the identity: g(t) = 2 for every t
        return LifetimeResult(tau=None, bracket=(0.0, math.inf), residual=2.0, iterations=0)
    if t_max is None:
        # the largest double: a start at 1 / (tiny rates) = inf is capped there
        t_max = sys.float_info.max
    total = params1.total_rate + params2.total_rate
    if total == math.inf:
        # rates near the double limit: a start at 1/inf = 0 would never double
        total = max(params1.max_rate, params2.max_rate)
    t_start = 1.0 / total

    def g(t: float) -> float:
        return lifetime_lhs(params1, params2, t)

    low, high = 0.0, min(t_start, t_max)
    g_high = g(high)
    evals = 1
    while g_high >= 0.0:
        if high >= t_max:
            return LifetimeResult(
                tau=None, bracket=(low, high), residual=g_high, iterations=evals
            )
        low = high
        high = min(2.0 * high, t_max)
        g_high = g(high)
        evals += 1

    tau = None
    residual = math.nan
    # the bracket width is relative below tau = 1, so roots at tiny tau
    # (rates far above 1) keep their digits
    while high - low > _ROOT_INTERVAL_TOL * min(high, 1.0):
        mid = 0.5 * (low + high)
        g_mid = g(mid)
        evals += 1
        if abs(g_mid) <= _ROOT_RESIDUAL_TOL:
            tau, residual = mid, g_mid
            break
        if g_mid > 0.0:
            low = mid
        else:
            high = mid
    if tau is None:
        tau = 0.5 * (low + high)
        residual = g(tau)
        evals += 1

    return LifetimeResult(tau=tau, bracket=(low, high), residual=residual, iterations=evals)


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
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    log_h1, log_v1 = log_fixed_point_diagonal(params1, tau)
    log_h2, log_v2 = log_fixed_point_diagonal(params2, tau)
    # log of amp_h / amp_v = sqrt((1 + s1)(1 + s2) / ((1 - s1)(1 - s2))); the
    # fixed points' diagonals may underflow where this ratio does not
    log_ratio = 0.5 * ((log_h1 - log_v1) + (log_h2 - log_v2))
    amp_h = math.exp(min(log_ratio, 0.0))
    amp_v = math.exp(min(-log_ratio, 0.0))
    norm = math.hypot(amp_h, amp_v)
    psi = np.array([amp_h, 0.0, 0.0, amp_v], dtype=complex) / norm
    rho = np.outer(psi, psi.conj())
    coeffs = sorted((amp_h / norm, amp_v / norm), reverse=True)
    shapes = tuple(
        (math.sqrt(math.exp(log_h)), math.sqrt(math.exp(log_v)))
        for log_h, log_v in ((log_h1, log_v1), (log_h2, log_v2))
    )
    return OptimalState(
        psi=psi, rho=rho, schmidt_coefficients=(coeffs[0], coeffs[1]), filter_shapes=shapes
    )
