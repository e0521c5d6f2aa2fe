"""Continuous-time model: joint depolarization and polarization-dependent loss.

A single polarization qubit decays under

    d rho / dt = -1/2 {gh |H><H| + gv |V><V|, rho}
                 + (g/4) * sum_k (sigma_k rho sigma_k - rho),   k = x, y, z,

with attenuation rates gh, gv >= 0 and a depolarization rate g >= 0.  The
map is trace decreasing: tr rho(t) is the probability that the photon is
still there.  Its transfer matrix stays in the four-parameter family

        [[a, 0, 0, b],
         [0, c, 0, 0],
         [0, 0, c, 0],
         [b, 0, 0, d]]

whose coefficients have the closed form (G = sqrt(g^2 + (gh - gv)^2),
E = exp(-(g + gh + gv) t / 2)):

    a, d = E * (cosh(G t / 2) +- (g / G) sinh(G t / 2))
    b    = -((gh - gv) / G) * E * sinh(G t / 2)
    c    = exp(-(2 g + gh + gv) t / 2)

Every quantity of this package that depends on the line and the time goes
through decay_modes(): the slow mode exp(-((g + gh + gv - G) t / 2)), the
mode ratio q = exp(-G t) with its log and 1 - q, and the ratios g/G and
(gh - gv)/G with log(g/G).  The ratios and the two rates in the exponents
depend on the line alone; ChannelParams.decay_rates forms them once per
line.  Per time, _mode_ratio(), the core of decay_modes(), forms log q and
1 - q, all the signal parameters read, and decay_modes() adds the slow mode
and q.  superop_over_slow() builds the map in units of the slow mode, finite
where the modes underflow, on the |H>, |V> matrix units, where each of its
entries is a sum of non-negative terms, at one time or at a sequence of
times; ptm_at() forms the transfer matrix the same way and scales it back.
The normal form in sinkhorn.py reads ratios alone.  ptm_via_integration()
recomputes the transfer matrix by brute-force integration of the master
equation, as an independent cross-check.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ptm import SIGMA

# The RK4 step count is capped here, the step enlarged to match: n stays a
# finite integer however small dt is, and each step's h * G stays far above
# the rounding of the identity it is added to.
MAX_RK4_STEPS = 10**7

# r + G is at most 4.5 times a line's largest rate, so it stays finite up to
# this rate; a line with a larger one is formed at an eighth of its rates.
_UNSCALED_RATE_MAX = 2.0**1020


@dataclass(frozen=True)
class ChannelParams:
    """Rates of one transmission line: attenuation of H and V, depolarization.

    The three rates are the fields; decay_rates, derived from them on first
    use and kept on the instance, takes no part in repr, == or hash.
    """

    gamma_h: float
    gamma_v: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("gamma_h", "gamma_v", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def total_rate(self) -> float:
        return self.gamma_h + self.gamma_v + self.gamma

    @property
    def max_rate(self) -> float:
        return max(self.gamma_h, self.gamma_v, self.gamma)

    @cached_property
    def decay_rates(self) -> tuple[float, float, float, float, float]:
        """The time-independent part of decay_modes(), formed once per line.

        Returns (-G / 2, -(r - G) / 2, r_gamma, r_delta, log_r_gamma), with
        G = sqrt(g^2 + (gh - gv)^2) and r = g + gh + gv:

        * r_gamma = g / G and r_delta = (gh - gv) / G, a unit vector, taken
          as (1, 0) when G = 0, where it only ever multiplies 1 - q = 0;
        * log_r_gamma = log(g / G), -inf exactly when g = 0.  It is taken as
          log g - log G where g / G is below the normal doubles, so a line
          whose depolarization is tiny against its loss asymmetry keeps it.

        r - G is formed as (r^2 - G^2) / (r + G), each product scaled by
        r + G first, so it neither cancels nor overflows.  G / 2 and
        (r - G) / 2 are at most the largest rate, so both halves are finite
        even where G is not.  A line with a rate above _UNSCALED_RATE_MAX is
        formed at an eighth of its rates, where G and r + G stay finite: the
        ratios do not see a power-of-two scale, and the halves are scaled
        back exactly.  Every other line is formed unscaled.
        """
        scale = 8.0 if self.max_rate > _UNSCALED_RATE_MAX else 1.0
        gh, gv, g = self.gamma_h / scale, self.gamma_v / scale, self.gamma / scale
        delta = gh - gv
        big_g = math.hypot(g, delta)
        rate = g + gh + gv
        loss = gh + gv
        total = rate + big_g
        slow_rate = (
            4.0 * (max(gh, gv) / total) * min(gh, gv) + 2.0 * (max(g, loss) / total) * min(g, loss)
            if total > 0.0
            else 0.0
        )
        if big_g > 0.0:
            r_gamma, r_delta = g / big_g, delta / big_g
        else:
            r_gamma, r_delta = 1.0, 0.0
        if r_gamma >= sys.float_info.min:
            log_r_gamma = math.log(r_gamma)
        elif g > 0.0:
            log_r_gamma = math.log(g) - math.log(big_g)
        else:
            log_r_gamma = -math.inf
        return -0.5 * big_g * scale, -0.5 * slow_rate * scale, r_gamma, r_delta, log_r_gamma


def _mode_ratio(params: ChannelParams, t: float) -> tuple[float, float]:
    """(log q, 1 - q) at time t, q = exp(-G t): the part of decay_modes() that lambda reads."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    # doubled after the product: G itself may lie past the double range
    log_q = 2.0 * (params.decay_rates[0] * t)
    return log_q, -math.expm1(log_q)


def decay_modes(
    params: ChannelParams, t: float
) -> tuple[float, float, float, float, float, float, float]:
    """The two decay modes of one line at time t, and the ratios built on them.

    Returns (slow, log_q, q, one_minus_q, r_gamma, r_delta, log_r_gamma):

    * slow = exp(-(r - G) t / 2), r = g + gh + gv, the slower mode;
    * q = fast / slow = exp(-G t), its log -G t, and 1 - q from expm1, so
      every ratio of the modes stays exact where the modes underflow;
    * r_gamma = g / G, r_delta = (gh - gv) / G and log_r_gamma = log(g / G),
      read from params.decay_rates: they depend on the line, not on t.

    Per call, only the three exponentials of t are evaluated.
    """
    log_q, one_minus_q = _mode_ratio(params, t)
    _, neg_half_slow_rate, r_gamma, r_delta, log_r_gamma = params.decay_rates
    return (
        math.exp(neg_half_slow_rate * t),
        log_q,
        math.exp(log_q),
        one_minus_q,
        r_gamma,
        r_delta,
        log_r_gamma,
    )


def superop_over_slow(params: ChannelParams, t: float | Sequence[float]) -> tuple:
    """The slow mode and the map at time t over it, on the matrix units of |H>, |V>.

    The real 4x4 map acts on row-major vec'd |H><H|, |H><V|, |V><H|, |V><V|:
    entry [(a b), (i j)] is the part of L[|i><j|] along |a><b|.  Each entry
    is a sum of non-negative terms, at most 1 and finite for every t; only
    the slow mode underflows at times where the photon is surely lost.
    Rescaling a map leaves the conditional state alone, so the quotient is
    all that state needs.  A sequence of times gives the slow modes (T,)
    and a stack (T, 4, 4) of maps, each row formed exactly as it is alone.
    """
    single = np.ndim(t) == 0
    _, _, r_gamma, r_delta, _ = params.decay_rates
    # 1 +- (gh - gv)/G, the smaller one as (g/G)^2 over the larger (r_gamma^2 + r_delta^2 = 1)
    larger = 1.0 + abs(r_delta)
    smaller = r_gamma * r_gamma / larger
    plus_delta, minus_delta = (larger, smaller) if r_delta >= 0.0 else (smaller, larger)
    rows = []
    for time in [t] if single else t:
        slow, log_q, q, one_minus_q, _, _, _ = decay_modes(params, time)
        # the coherence over the slow mode is exp(-(g + G) t / 2) = (exp(-g t) q)^(1/2)
        rows.append((slow, 0.5 * (minus_delta + q * plus_delta),
                     0.5 * (plus_delta + q * minus_delta), 0.5 * r_gamma * one_minus_q,
                     math.exp(0.5 * (1.0 + r_gamma) * log_q)))
    # per row: slow, then H<-H, V<-V, H<-V = V<-H and the two coherences
    entries = np.array(rows).reshape(-1, 5)
    s = np.zeros((len(rows), 4, 4))
    s[:, [0, 3, 0, 3, 1, 2], [0, 3, 3, 0, 1, 2]] = entries[:, [1, 2, 3, 3, 4, 4]]
    return (rows[0][0], s[0]) if single else (entries[:, 0], s)


def ptm_at(params: ChannelParams, t: float) -> np.ndarray:
    """Transfer matrix of the loss model at time t (closed form).

    Formed over the slow mode and scaled back by it, so both the G -> 0
    limit and large G t come out exact; entries may underflow to 0 at times
    where the photon is surely lost.
    """
    slow, log_q, q, one_minus_q, r_gamma, r_delta, _ = decay_modes(params, t)
    m = np.zeros((4, 4))
    m[0, 0] = 0.5 * (1.0 + q + r_gamma * one_minus_q)
    m[0, 3] = m[3, 0] = -0.5 * r_delta * one_minus_q
    m[1, 1] = m[2, 2] = math.exp(0.5 * (1.0 + r_gamma) * log_q)
    # 1 - g/G = ((gh - gv)/G)^2 / (1 + g/G), exact where the subtraction is not
    m[3, 3] = 0.5 * (2.0 * q + r_delta * r_delta / (1.0 + r_gamma) * one_minus_q)
    return slow * m


# ---------------------------------------------------------------------------
# Brute-force oracle: integrate the master equation itself.
# ---------------------------------------------------------------------------


def ptm_via_integration(
    params: ChannelParams | Sequence[ChannelParams], t: float, dt: float
) -> np.ndarray:
    """Transfer matrix at time t from RK4 integration of the master equation.

    The generator is the literal right-hand side on the four 2x2 matrix
    units: anticommutator and Pauli sandwiches, nothing of the closed form.
    It is constant, so the four RK4 stages collapse into one step operator
    S with h = t / n, n = ceil(t / dt), and n steps are S^n: each round of
    repeated squaring multiplies S^(2^k) into the state where bit k of n is
    set, about 2 log2(n) products in all.  The state holds the four Pauli
    inputs vec'd, and m[i, j] = tr[sigma_i rho_j(t)] / 2.

    params may also be a sequence of lines; the result is then a stack
    (N, 4, 4).  All lines share the step dt, so they share n, and each gets
    the same products it would get alone.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    single = isinstance(params, ChannelParams)
    cases = [params] if single else list(params)
    if t == 0.0:
        out = np.tile(np.eye(4), (len(cases), 1, 1))
        return out[0] if single else out
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    n = max(1, math.ceil(min(t / dt, MAX_RK4_STEPS)))
    h = t / n

    # each line's rates (N, 1, ...) against the units (4, 2, 2), unit k at divmod(k, 2)
    rates = np.array([(c.gamma_h, c.gamma_v, c.gamma) for c in cases])
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    loss = np.zeros((len(cases), 1, 2, 2), dtype=complex)
    loss[:, 0, 0, 0], loss[:, 0, 1, 1] = rates[:, 0], rates[:, 1]
    g = rates[:, 2, None, None, None]
    rhs = -0.5 * (loss @ units + units @ loss)
    for pauli in SIGMA[1:]:
        rhs += 0.25 * g * (pauli @ units @ pauli)
    rhs -= 0.75 * g * units
    # column k of the generator is the right-hand side on unit k, row-major vec'd
    gen = rhs.reshape(-1, 4, 4).swapaxes(-2, -1)

    eye = np.eye(4, dtype=complex)
    k1 = gen
    k2 = gen @ (eye + 0.5 * h * k1)
    k3 = gen @ (eye + 0.5 * h * k2)
    k4 = gen @ (eye + h * k3)
    power = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    basis = np.stack([s.reshape(-1) for s in SIGMA], axis=1)
    state = np.broadcast_to(basis, power.shape)
    while n:
        if n % 2:
            state = power @ state
        n //= 2
        if n:
            power = power @ power
    out = (0.5 * (basis.conj().T @ state)).real
    return out[0] if single else out
