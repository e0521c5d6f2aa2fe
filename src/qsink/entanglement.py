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
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelParams
from .linalg import hermitian_part, partial_transpose_second, trace_norm
from .ptm import apply_two_qubit
from .sinkhorn import fixed_point_diagonal, unital_lambdas

PSI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)

# Negativity above this counts as entangled.
ENTANGLEMENT_TOL = 1e-10
# Detection probabilities at or below this make the conditional state meaningless.
MIN_DETECTION_PROB = 1e-14

_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_INTERVAL_TOL = 1e-12


def _check_state(rho: np.ndarray, normalized: bool) -> np.ndarray:
    rho = hermitian_part(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -1e-9:
        raise ValueError(f"state is not positive semidefinite (min eigenvalue {low:.3e})")
    tr = float(np.trace(rho).real)
    if normalized:
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"state must have unit trace, got {tr!r}")
    elif not MIN_DETECTION_PROB < tr <= 1.0 + 1e-12:
        raise ValueError(f"state trace must lie in (0, 1], got {tr!r}")
    return rho


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity (|PT(rho)|_1 - 1) / 2, clamped at zero.

    Subnormalized inputs are normalized first.
    """
    rho = _check_state(rho, normalized=False)
    rho = rho / np.trace(rho).real
    value = 0.5 * (trace_norm(partial_transpose_second(rho)) - 1.0)
    return max(0.0, value)


def is_entangled(rho: np.ndarray) -> bool:
    return negativity(rho) > ENTANGLEMENT_TOL


def conditional_state(
    m1: np.ndarray, m2: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, float]:
    """Postselected output state and the detection probability.

    Applies the product map (m1 on the first qubit, m2 on the second) to a
    normalized initial state and renormalizes by the surviving trace.
    """
    initial = _check_state(initial, normalized=True)
    raw = apply_two_qubit(m1, m2, initial)
    prob = float(np.trace(raw).real)
    if prob <= MIN_DETECTION_PROB:
        raise ValueError(f"detection probability vanished ({prob:.3e})")
    return raw / prob, prob


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
    below an explicit t_max (bracket ends at t_max, residual is g there).
    iterations counts g evaluations; post_root_sign_changes reports sign
    reversals of g found on a scan of [tau, 4 tau] and should be 0.
    """

    tau: float | None
    bracket: tuple[float, float]
    residual: float
    iterations: int
    post_root_sign_changes: int = 0


def max_lifetime(
    params1: ChannelParams, params2: ChannelParams, t_max: float | None = None
) -> LifetimeResult:
    """First root of the lifetime equation via bracket doubling and bisection.

    With a depolarizing line g(t) tends to -1, so doubling brackets the
    root before t overflows; t_max, if given, caps the search.
    """
    if t_max is not None and t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if params1.gamma == 0.0 and params2.gamma == 0.0:
        # both unital parts are the identity: g(t) = 2 for every t
        return LifetimeResult(tau=None, bracket=(0.0, math.inf), residual=2.0, iterations=0)
    if t_max is None:
        t_max = math.inf
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
        if high >= t_max or 2.0 * high == math.inf:
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

    # The first root is reported; check there is no re-entry right after it.
    changes = 0
    state = None
    for probe in np.linspace(tau, 4.0 * tau, 64)[1:]:
        value = g(float(probe))
        sign = 1 if value > 1e-9 else (-1 if value < -1e-9 else 0)
        if sign != 0:
            if state is not None and sign != state:
                changes += 1
            state = sign
    return LifetimeResult(
        tau=tau,
        bracket=(low, high),
        residual=residual,
        iterations=evals,
        post_root_sign_changes=changes,
    )


@dataclass(frozen=True)
class OptimalState:
    """The entanglement-maximizing initial state at the lifetime."""

    psi: np.ndarray
    rho: np.ndarray
    schmidt_coefficients: tuple[float, float]


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
    s1_h, s1_v = fixed_point_diagonal(params1, tau)
    s2_h, s2_v = fixed_point_diagonal(params2, tau)
    amp_h = math.sqrt(s1_h * s2_h)
    amp_v = math.sqrt(s1_v * s2_v)
    norm = math.hypot(amp_h, amp_v)
    psi = np.array([amp_h, 0.0, 0.0, amp_v], dtype=complex) / norm
    rho = np.outer(psi, psi.conj())
    coeffs = sorted((abs(amp_h) / norm, abs(amp_v) / norm), reverse=True)
    return OptimalState(psi=psi, rho=rho, schmidt_coefficients=(coeffs[0], coeffs[1]))

