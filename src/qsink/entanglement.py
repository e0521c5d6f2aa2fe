"""Two-qubit entanglement under independent lossy lines.

The central object is the lifetime equation

    g(t) = lx lx' + ly ly' + lz lz' - 1,

built from the unital normal forms of the two lines.  g(0) = 2, and the
first root of g is the maximal time up to which *some* initial two-qubit
state stays entangled conditioned on both photons being detected; past it,
every initial state comes out separable.  optimal_state() builds the state
that saturates that bound by undoing the output filters of the two normal
forms on a maximally entangled pair.  Both that state and the maximally
entangled pair are a|HH> + b|VV>, whose conditional state is an X-state:
x_state_traces() forms its negativity and detection probability in closed
form, while conditional_state() and negativity() take any state.

The lifetime and the optimal state are math alone: lifetime_lhs,
max_lifetime and optimal_state run, and the module loads, without numpy.
The functions on arrays (negativity, conditional_state, x_state_traces,
and OptimalState.rho) import numpy and linalg in their own bodies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .dynamics import _DOUBLE_MAX, ChannelParams, _entry_logs, _mode_ratio
from .sinkhorn import _filter_shape, _fixed_point, _signal_exponents

if TYPE_CHECKING:
    import numpy as np

# Detection probabilities at or below this make the conditional state meaningless.
MIN_DETECTION_PROB = 1e-14

_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_INTERVAL_TOL = 1e-12
# A computed g beyond _ROOT_RESIDUAL_TOL by this much settles the sign of
# every bisection midpoint on its side (max_lifetime); g's rounding breaks
# its monotonicity by at most a few ulps.
_SETTLE_MARGIN = 1e-12

# A Cholesky factorization of m + shift * I that completes proves m's least
# eigenvalue at least -shift - |dA|, where the backward error dA has entries
# of about 4 n eps max|m| (Higham 2002, Thm 10.3).  Up to _SCREEN_MAX_ABS its
# norm, and eigvalsh's own error, each stay below 2e-11.  The screen shifts
# up by half of PSD_TOL, far above both, so a completed screen implies that
# eigvalsh finds no eigenvalue below -PSD_TOL.  The separability certificate
# shifts down by twice their sum, so a completed factorization of
# PT - _SEPARABLE_SHIFT * I implies that eigvalsh finds every eigenvalue of
# PT positive, and the negativity it gives is exactly 0.  _SCREEN_SHIFT is
# 0.5 * linalg.PSD_TOL, written out so that loading this module loads no linalg.
_SCREEN_SHIFT = 5e-10
_SCREEN_MAX_ABS = 1e3
_SEPARABLE_SHIFT = 8e-11


def _cholesky_completes(m: np.ndarray, shift: float) -> bool:
    """True if every matrix of m has entries at most _SCREEN_MAX_ABS and m + shift I factors."""
    import numpy as np

    if not np.abs(m).max(initial=0.0) <= _SCREEN_MAX_ABS:
        return False
    try:
        # the stacked factorization raises for the whole stack if one matrix fails
        np.linalg.cholesky(m + shift * np.eye(4))
    except np.linalg.LinAlgError:
        return False
    return True


def _passes_screen(rho: np.ndarray) -> bool:
    """True only if every state of rho has no eigenvalue below -PSD_TOL; False decides nothing."""
    return _cholesky_completes(rho, _SCREEN_SHIFT)


def _check_state(rho: np.ndarray, normalized: bool) -> np.ndarray:
    """rho, or each state of a stack, symmetrized and checked; errors name the first bad one.

    linalg._refuse_flagged is the one place that applies that rule, for every check on a stack.
    """
    import numpy as np

    from .linalg import PSD_TOL, _refuse_flagged, hermitian_part

    rho = hermitian_part(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    if not _passes_screen(rho):
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


def negativity(rho: np.ndarray) -> np.ndarray:
    """Entanglement negativity: the sum of max(0, -lambda) over the eigenvalues of PT(rho).

    This is (|PT(rho)|_1 - 1) / 2 for a unit-trace state, without the trace
    subtracted in rounding: a separable state, whose PT has no negative
    eigenvalue, gets exactly 0.  A stack whose every PT factors by Cholesky
    after a shift of -_SEPARABLE_SHIFT gets those zeros without the
    eigensolve.  Subnormalized inputs are normalized first.
    A single state gives a float, a stack (..., 4, 4) of states an array of
    one per state.
    """
    import numpy as np

    from .linalg import partial_transpose_second

    rho = _check_state(rho, normalized=False)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    # PT keeps an exactly Hermitian rho exactly Hermitian
    pt = partial_transpose_second(rho)
    if _cholesky_completes(pt, -_SEPARABLE_SHIFT):
        # every eigenvalue eigvalsh would return is positive: the zeros it
        # would give, without it ([()] makes one state's a numpy float)
        return np.zeros(pt.shape[:-2])[()]
    eigenvalues = np.linalg.eigvalsh(pt)
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
    import numpy as np

    from .linalg import _refuse_flagged

    s1, s2 = np.asarray(s1), np.asarray(s2)
    if s1.shape[-2:] != (4, 4) or s2.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 maps, got shapes {s1.shape} and {s2.shape}")
    initial = _check_state(initial, normalized=True)
    # on the reshuffled state the product map is s1 X s2^T
    raw = _reshuffle(s1 @ _reshuffle(initial) @ np.swapaxes(s2, -1, -2))
    prob = np.trace(raw, axis1=-2, axis2=-1).real
    _refuse_flagged(prob, prob <= MIN_DETECTION_PROB, "detection probability vanished ({:.3e})")
    return raw / prob[..., None, None], prob


# a|HH> + b|VV> through two maps of the family is an X-state, whose four
# populations and corner are nine terms: per term, its weight (a^2, b^2 or
# ab) and the entry it takes from each line (H = H<-H, V = V<-V, h = H<-V
# or c), as indices into (log a^2, log b^2, log ab) and (H, V, h, c)
_X_WEIGHT = [0, 1, 0, 1, 0, 1, 0, 1, 2]
_X_LINE1 = [0, 2, 0, 2, 2, 1, 2, 1, 3]
_X_LINE2 = [0, 2, 2, 1, 0, 2, 2, 1, 3]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _largest_population(logs: np.ndarray) -> np.ndarray:
    """Per time, the largest of the population terms' logs (the first 8 of 9); 0 if all are -inf."""
    largest = logs[:8].max(axis=0)
    largest[largest == -math.inf] = 0.0
    return largest


def x_state_traces(
    log_weight_ratio: float, logs1: np.ndarray, logs2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Negativity and detection probability of a|HH> + b|VV> through two lines, in closed form.

    log_weight_ratio is log(a^2 / b^2), -inf for |VV> and +inf for |HH>;
    logs1 and logs2 are the two lines' entry logs (T, 4) over their slow
    modes, (log H, log V, log h, log c) per row
    (dynamics.entry_logs_over_slow).  Returns the negativity (T,) and the
    detection probability (T,) over the product of the slow modes, like
    conditional_state's.  The output is an X-state (Yu and Eberly, Quantum
    Inf. Comput. 7, 459 (2007)), with unnormalized diagonal

        rho11 = a^2 H1 H2 + b^2 h1 h2,    rho22 = a^2 H1 h2 + b^2 h1 V2,
        rho33 = a^2 h1 H2 + b^2 V1 h2,    rho44 = a^2 h1 h2 + b^2 V1 V2,

    and corner rho14 = ab c1 c2.  Each term is the exponential of a sum of
    logs less the largest population term at its time, so neither a weight
    nor an entry underflows on its own; the sum's rounding error is carried
    (_two_sum), so a term is as exact as its logs while they stay below
    about 2^52.  The partial transpose moves rho14 into the (22, 33) block, whose smaller
    eigenvalue is m - hypot(d, rho14), with m, d = (rho22 +- rho33) / 2
    (Peres, PRL 77, 1413 (1996)).  The negativity, over the trace, is
    max(0, hypot(d, rho14) - m), formed as (rho14^2 - rho22 rho33) /
    (hypot(d, rho14) + m): exactly 0 wherever rho14^2 <= rho22 rho33 comes
    out.  The detection probability may underflow to 0; it is a value, not
    an error, and no floor applies to it.
    """
    import numpy as np

    log_a2, log_b2 = min(log_weight_ratio, 0.0), min(-log_weight_ratio, 0.0)
    weights = np.array([log_a2, log_b2, 0.5 * (log_a2 + log_b2)])[_X_WEIGHT, None]
    # a term with a log of -inf is 0, its error terms (-inf - -inf) dropped.
    # Every log is <= 0, so a sum past the doubles is -inf: a zero term, as a
    # log of -inf already is
    with np.errstate(invalid="ignore", over="ignore"):
        total, error1 = _two_sum(weights, logs1.T[_X_LINE1])
        total, error2 = _two_sum(total, logs2.T[_X_LINE2])
        # scaled by the largest population term at each time
        scale = _largest_population(total)
        total, error3 = _two_sum(total, -scale)
        exponent = np.where(total > -np.inf, total + (error1 + error2 + error3), -np.inf)
    # the corrections are ulps of the logs: they move the largest term by
    # more than a factor e only for logs far past 2^52, and such times are
    # scaled again
    rescale = _largest_population(exponent)
    rescale[np.abs(rescale) <= 1.0] = 0.0
    exponent -= rescale
    scale += rescale
    # no term exceeds the largest population term (c^2 <= H V on each line),
    # and the corner is at most sqrt(rho11 rho44) in every state; logs that
    # coarse may break both, so exponents are held to 1, where no term
    # overflows, and the corner to its bound
    terms = np.exp(np.minimum(exponent, 1.0))
    populations = terms[:8].reshape(4, 2, -1).sum(axis=1)
    corner = np.minimum(terms[8], np.sqrt(populations[0]) * np.sqrt(populations[3]))
    trace = populations.sum(axis=0)
    # a state whose every term vanishes keeps negativity and probability 0
    per_trace = 1.0 / np.where(trace > 0.0, trace, 1.0)
    rho22, rho33 = populations[1] * per_trace, populations[2] * per_trace
    rho14 = corner * per_trace
    excess = rho14 * rho14 - rho22 * rho33
    neg = np.zeros(excess.shape)
    np.divide(excess, np.hypot(0.5 * (rho22 - rho33), rho14) + 0.5 * (rho22 + rho33),
              out=neg, where=excess > 0.0)
    # a^2 + b^2 = 1 + exp(-|log(a^2 / b^2)|), the larger weight being 1
    return neg, np.exp(scale) * trace / (1.0 + math.exp(-abs(log_weight_ratio)))


def lifetime_lhs(params1: ChannelParams, params2: ChannelParams, t: float) -> float:
    """g(t): positive before the lifetime, negative past it, exactly 2 at t = 0.

    With lx = ly = exp(-g t / 2 - A) and lz = exp(-2 A) on each line, g =
    2 exp(-(g1 + g2) t / 2 - S) + exp(-2 S) - 1, where S = A1 + A2.
    """
    half_g_t1, big_a1 = _signal_exponents(params1, t)
    half_g_t2, big_a2 = _signal_exponents(params2, t)
    big_s = big_a1 + big_a2
    return 2.0 * math.exp((half_g_t1 + half_g_t2) - big_s) + math.exp(-2.0 * big_s) - 1.0


class LifetimeResult(NamedTuple):
    """Root-finding report for the lifetime equation.

    tau is None when g never crosses zero: at once when neither line
    depolarizes (bracket (0, inf), residual 2, no g evaluation), else only
    below the largest double (bracket ends there, residual is g there).
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


def max_lifetime(params1: ChannelParams, params2: ChannelParams) -> LifetimeResult:
    """First root of the lifetime equation via bracket doubling and bisection.

    With a depolarizing line g(t) tends to -1, so doubling brackets the
    root unless the depolarization is too weak to act within the double
    range: the largest double caps the search.  The doubling starts at
    1 / (sum of the depolarizing lines' rates); a pure-loss line, whose
    unital part is the identity, leaves g and the search as they are.

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

    lifetime_lhs forms g from S = A1 + A2 and y = exp(-(gamma1 + gamma2) t / 2),
    as g = 2 y exp(-S) + exp(-2 S) - 1, with both lines' -gamma t / 2 and A
    from sinkhorn._signal_exponents, the helper unital_lambdas reads too:
    below G t / 2 = 20 on both lines, a sinh and an asinh per line and two
    exps.  This g differs from the product of the lines' signal parameters
    in its last bits only: tau, the bracket and the evaluation counts are
    the same on the benchmark's scan seeds 1 and 7919, and
    test_tau_and_psi_are_pinned_over_a_scan_like_sample holds 300 roots to
    the bit.

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
    inside the unsettled interval, hence inside the bracket.  Once the last
    two values are so small that the next estimate is within about clear
    of the root, the two points +-1.5 clear / slope around it are probed
    instead, which leaves unsettled only the band where |g| is at most
    about 1.5 clear, and the secant stops.  When a step would leave the
    interval, the midpoint is evaluated as the plain bisection evaluates
    it, and the secant goes on from there.  On the benchmark's scan sweep
    (seed 1: 1500 rate pairs on [1e-3, 1e3], 1426 roots) the search takes
    9.7 g evaluations per root (bracket 3.30, secant 5.17, bisection
    1.24), where the plain bisection needs about 36.
    """
    # the doubling starts at 1 / (sum of the depolarizing lines' rates)
    if params1.gamma > 0.0:
        total = params1.total_rate
        if params2.gamma > 0.0:
            total += params2.total_rate
    elif params2.gamma > 0.0:
        total = params2.total_rate
    else:
        # both unital parts are the identity: g(t) = 2 for every t
        return LifetimeResult(
            tau=None, bracket=(0.0, math.inf), residual=2.0,
            evaluations={"bracket": 0, "secant": 0, "bisection": 0},
        )
    if total == math.inf:
        # rates near the double limit: a start at 1/inf = 0 would never double
        total = max(params.max_rate for params in (params1, params2) if params.gamma > 0.0)
    # every step below is float arithmetic on locals: the bounds, the
    # tolerances and the phase counts, which go into evaluations once.  Each
    # conditional picks what min() would, and f = log(g + 1) is -inf where
    # g + 1 underflows.  Only g is looked up, as lifetime_lhs, at every call
    largest, inf, neg_inf, log1p = _DOUBLE_MAX, math.inf, -math.inf, math.log1p
    residual_tol, interval_tol = _ROOT_RESIDUAL_TOL, _ROOT_INTERVAL_TOL
    t_start = 1.0 / total

    # g(0) = 2 exactly, without an evaluation; a start at 1 / (tiny rates) = inf
    # is capped at the largest double
    low, high, g_low = 0.0, largest if largest < t_start else t_start, 2.0
    g_high = lifetime_lhs(params1, params2, high)
    n_bracket = 1
    while g_high >= 0.0:
        if high >= largest:
            return LifetimeResult(
                tau=None, bracket=(low, high), residual=g_high,
                evaluations={"bracket": n_bracket, "secant": 0, "bisection": 0},
            )
        low, g_low = high, g_high
        high = 2.0 * high
        if largest < high:
            high = largest
        g_high = lifetime_lhs(params1, params2, high)
        n_bracket += 1

    # every midpoint outside (sure_pos, sure_neg) is settled; none lies
    # outside (low, high).  (t0, f0), (t1, f1): the last two points
    # evaluated; the secant runs until it converges
    clear = residual_tol + _SETTLE_MARGIN
    sure_pos, sure_neg = low, high
    t0, f0 = low, log1p(g_low) if g_low > -1.0 else neg_inf
    t1, f1 = high, log1p(g_high) if g_high > -1.0 else neg_inf
    secant = True
    tau = None
    residual = math.nan
    n_secant = n_bisection = 0
    # the bracket width is relative below tau = 1, so roots at tiny tau
    # (rates far above 1) keep their digits
    while high - low > interval_tol * (high if high < 1.0 else 1.0):
        mid = 0.5 * (low + high)
        if mid == inf:
            # the sum overflowed: halved first, which would move the
            # midpoints of subnormal brackets, but only here
            mid = 0.5 * low + 0.5 * high
        if mid <= sure_pos:
            low = mid
            continue
        if mid >= sure_neg:
            high = mid
            continue
        if secant and f1 != f0:
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
                        n_secant += 1
                        if g_probe > clear:
                            sure_pos = probe
                        elif g_probe < -clear:
                            sure_neg = probe
                if secant:
                    t0, f0 = t1, f1
                    t1, f1 = t, log1p(g_probe) if g_probe > -1.0 else neg_inf
                # mid may be settled now
                continue
        g_mid = lifetime_lhs(params1, params2, mid)
        n_bisection += 1
        if -residual_tol <= g_mid <= residual_tol:
            tau, residual = mid, g_mid
            break
        t0, f0 = t1, f1
        t1, f1 = mid, log1p(g_mid) if g_mid > -1.0 else neg_inf
        # no later midpoint lies outside (low, high), nor may a secant step
        if g_mid > 0.0:
            low = sure_pos = mid
        else:
            high = sure_neg = mid
    if tau is None:
        # only a bracket below t of about 1e4 gets 1e-12 wide: no overflow
        tau = 0.5 * (low + high)
        residual = lifetime_lhs(params1, params2, tau)
        n_bisection += 1

    # fields by position: the NamedTuple's __new__ binds keywords about 0.3 us slower
    return LifetimeResult(
        tau, (low, high), residual,
        {"bracket": n_bracket, "secant": n_secant, "bisection": n_bisection},
    )


class OptimalState(NamedTuple):
    """The entanglement-maximizing initial state at the lifetime.

    psi holds the amplitudes on |HH>, |HV>, |VH>, |VV> as four Python
    complex, real and with the Schmidt coefficients on |HH> and |VV>.
    filter_shapes holds each line's (sqrt(1 + s), sqrt(1 - s)): the shape of
    its output filter B, which is proportional to sqrt(S).  log_weight_ratio
    is log(|psi_0|^2 / |psi_3|^2), kept where either amplitude underflows.
    """

    psi: tuple[complex, complex, complex, complex]
    schmidt_coefficients: tuple[float, float]
    filter_shapes: tuple[tuple[float, float], tuple[float, float]]
    log_weight_ratio: float

    @property
    def rho(self) -> np.ndarray:
        """|psi><psi| as a complex 4x4 array, built on each read.

        psi is real, so psi psi^T has the bits of the outer product with
        psi's conjugate.
        """
        import numpy as np

        psi = np.array(self.psi)
        return psi[:, None] * psi


def optimal_state(
    params1: ChannelParams, params2: ChannelParams, tau: float
) -> OptimalState:
    """State whose conditional entanglement survives until tau.

    Proportional to (B1 x B2)(|HH> + |VV>) with B the output filters of the
    two normal forms at tau; more weight ends up on the polarization that
    decays faster.  B is proportional to the square root of the fixed point
    S, so only the diagonals of the two fixed points enter.
    """
    # isfinite(tau) and tau > 0, in one chained comparison
    if not 0.0 < tau <= _DOUBLE_MAX:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    # each fixed point's diagonal log(1 +- s), read off the line's map entries
    log_h1, log_v1, _ = _fixed_point(*_entry_logs(params1, *_mode_ratio(params1, tau))[:3])
    log_h2, log_v2, _ = _fixed_point(*_entry_logs(params2, *_mode_ratio(params2, tau))[:3])
    # log of amp_h / amp_v = sqrt((1 + s1)(1 + s2) / ((1 - s1)(1 - s2))); the
    # fixed points' diagonals may underflow where this ratio does not.  The
    # larger amplitude is exp(0) = 1, the smaller exp(-|log_ratio|)
    log_ratio = 0.5 * ((log_h1 - log_v1) + (log_h2 - log_v2))
    amp_h = 1.0 if log_ratio > 0.0 else math.exp(log_ratio)
    amp_v = 1.0 if log_ratio < 0.0 else math.exp(-log_ratio)
    norm = math.hypot(amp_h, amp_v)
    # psi's amplitudes are the Schmidt coefficients, each rounded once
    coeff_h, coeff_v = amp_h / norm, amp_v / norm
    # fields by position, as in max_lifetime
    return OptimalState(
        (complex(coeff_h), 0j, 0j, complex(coeff_v)),
        (coeff_h, coeff_v) if coeff_h >= coeff_v else (coeff_v, coeff_h),
        (_filter_shape(log_h1, log_v1), _filter_shape(log_h2, log_v2)),
        2.0 * log_ratio,
    )
