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
through decay_modes(): the slow mode exp(-((g + gh + gv - G) t / 2)), and
the log of the mode ratio q = exp(-G t) with 1 - q.  The ratios g/G and
(gh - gv)/G, their logs and the rates in the exponents depend on the line
alone; ChannelParams.decay_rates forms them once per line.  Per time,
_mode_ratio(), the core of decay_modes(), forms log q and 1 - q, all the
signal parameters read, and decay_modes() adds the slow mode.
_entry_logs() forms, from log q and 1 - q, the logs of the map's distinct
entries over its slow mode on the |H>, |V> matrix units: H = H<-H,
V = V<-V, h = H<-V = V<-H and the coherence c.  Each is a sum of
non-negative terms, finite where the modes underflow.
entry_logs_over_slow() gathers them with the slow mode over a sequence of
times, superop_over_slow() builds the map from them at one time or at a
sequence of times, and the normal form in sinkhorn.py reads its fixed
point, filters and middle map off the same logs.  ptm_at() forms the
transfer matrix in closed form on the Pauli basis and scales it back by
the slow mode.
ptm_via_integration() recomputes the transfer matrix by brute-force
integration of the master equation, as an independent cross-check;
pauli_transfer() puts its result, or any map on the matrix units, on the
Pauli basis.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SIGMA

# The RK4 step count is capped here, the step enlarged to match: n stays a
# finite integer however small dt is, and each step's h * G stays far above
# the rounding of the identity it is added to.
MAX_RK4_STEPS = 10**7

# r + G is at most 4.5 times a line's largest rate, so it stays finite up to
# this rate; a line with a larger one is formed at an eighth of its rates.
_UNSCALED_RATE_MAX = 2.0**1020
# Where G is subnormal, g and gh - gv are too: scaled by this, exactly, they are normal.
_SUBNORMAL_SCALE = 2.0**1000

_LN2 = math.log(2.0)


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
    def decay_rates(self) -> tuple[float, float, float, float, float, float, float]:
        """The time-independent part of decay_modes() and _entry_logs(), formed once per line.

        Returns (-G / 2, -(r - G) / 2, r_gamma, r_delta, log_r_gamma,
        log_plus, log_minus), with G = sqrt(g^2 + (gh - gv)^2) and
        r = g + gh + gv:

        * r_gamma = g / G and r_delta = (gh - gv) / G, a unit vector, taken
          as (1, 0) when G = 0, where it only ever multiplies 1 - q = 0.
          Where G is subnormal, so are g and gh - gv, and G keeps too few
          digits for a unit vector: the ratios are formed with both scaled
          by _SUBNORMAL_SCALE, exactly;
        * log_r_gamma = log(g / G), -inf exactly when g = 0.  It is taken as
          log g - log G where g / G is below the normal doubles, so a line
          whose depolarization is tiny against its loss asymmetry keeps it;
        * log_plus, log_minus = log((1 +- r_delta) / 2), halved before the
          log, so the larger is exactly 0 for pure loss; the smaller is
          r_gamma^2 / (2 (1 + |r_delta|)), which does not cancel.

        r - G is formed as (r^2 - G^2) / (r + G), each product scaled by
        r + G first, so it neither cancels nor overflows.  G / 2 and
        (r - G) / 2 are at most the largest rate, so both halves are finite
        even where G is not.  A line with a rate above _UNSCALED_RATE_MAX is
        formed at an eighth of its rates, where G and r + G stay finite: the
        ratios do not see a power-of-two scale, and the halves are scaled
        back exactly.  Where g loses digits to the eighth, or rounds to 0,
        log(g / G) is taken from the unscaled g.  Every other line is formed
        unscaled.
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
        if big_g >= sys.float_info.min:
            r_gamma, r_delta = g / big_g, delta / big_g
        elif big_g > 0.0:
            # a subnormal G keeps too few digits for a unit vector
            g_up, delta_up = g * _SUBNORMAL_SCALE, delta * _SUBNORMAL_SCALE
            norm = math.hypot(g_up, delta_up)
            r_gamma, r_delta = g_up / norm, delta_up / norm
        else:
            r_gamma, r_delta = 1.0, 0.0
        if r_gamma >= sys.float_info.min:
            log_r_gamma = math.log(r_gamma)
        elif self.gamma > 0.0:
            # log g from the unscaled g where the eighth cost it digits, or all of them
            log_g = math.log(g) if g * scale == self.gamma else math.log(self.gamma) - math.log(scale)
            log_r_gamma = log_g - math.log(big_g)
        else:
            log_r_gamma = -math.inf
        log_larger = math.log1p(abs(r_delta))
        log_halves = (log_larger - _LN2, 2.0 * log_r_gamma - log_larger - _LN2)
        log_plus, log_minus = log_halves if r_delta >= 0.0 else log_halves[::-1]
        return (-0.5 * big_g * scale, -0.5 * slow_rate * scale, r_gamma, r_delta, log_r_gamma,
                log_plus, log_minus)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), for logs down to -inf."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _mode_ratio(params: ChannelParams, t: float) -> tuple[float, float]:
    """(log q, 1 - q) at time t, q = exp(-G t): the part of decay_modes() that lambda reads."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    # doubled after the product: G itself may lie past the double range
    log_q = 2.0 * (params.decay_rates[0] * t)
    return log_q, -math.expm1(log_q)


def decay_modes(params: ChannelParams, t: float) -> tuple[float, float, float]:
    """The two decay modes of one line at time t: (slow, log_q, one_minus_q).

    slow = exp(-(r - G) t / 2), r = g + gh + gv, is the slower mode, and
    the mode ratio q = fast / slow = exp(-G t) is given by its log -G t and
    by 1 - q from expm1, so every ratio of the modes stays exact where the
    modes underflow.  Per call, only two exponentials of t are evaluated.
    """
    log_q, one_minus_q = _mode_ratio(params, t)
    return math.exp(params.decay_rates[1] * t), log_q, one_minus_q


def _entry_logs(
    params: ChannelParams, log_q: float, one_minus_q: float
) -> tuple[float, float, float, float]:
    """Logs of the map's distinct entries over its slow mode, at the time of (log q, 1 - q).

    Returns (log H, log V, log h, log c) on the |H>, |V> matrix units:

        H = H<-H = (1 - r_delta) / 2 + q (1 + r_delta) / 2,
        V = V<-V = (1 + r_delta) / 2 + q (1 - r_delta) / 2,
        h = H<-V = V<-H = (g/G) (1 - q) / 2,
        c = exp(-(g + G) t / 2) = q^((1 + g/G) / 2),

    with r_delta = (gh - gv)/G.  Each is a sum of non-negative terms, taken
    in logs, so it keeps its digits where it underflows; a log is -inf
    exactly where its entry is 0.
    """
    _, _, r_gamma, _, log_r_gamma, log_plus, log_minus = params.decay_rates
    return (
        _log_add(log_minus, log_q + log_plus),
        _log_add(log_plus, log_q + log_minus),
        log_r_gamma + _log(one_minus_q) - _LN2,
        0.5 * (1.0 + r_gamma) * log_q,
    )


def entry_logs_over_slow(params: ChannelParams, times: Sequence[float]) -> tuple:
    """The slow modes (T,) and the logs (T, 4) of the map's entries over them, at each of times.

    Row k of the logs is _entry_logs() at times[k]: (log H, log V, log h,
    log c), each formed by the scalar core exactly as it is alone.
    """
    rows = []
    for time in times:
        slow, log_q, one_minus_q = decay_modes(params, time)
        rows.append((slow, *_entry_logs(params, log_q, one_minus_q)))
    table = np.array(rows).reshape(-1, 5)
    return table[:, 0], table[:, 1:]


def superop_over_slow(
    params: ChannelParams, t: float | Sequence[float], entry_logs: tuple | None = None
) -> tuple:
    """The slow mode and the map at time t over it, on the matrix units of |H>, |V>.

    The real 4x4 map acts on row-major vec'd |H><H|, |H><V|, |V><H|, |V><V|:
    entry [(a b), (i j)] is the part of L[|i><j|] along |a><b|.  Its entries
    are the exponentials of _entry_logs(), at most 1 and finite for every
    t; only the slow mode underflows at times where the photon is surely
    lost.  Rescaling a map leaves the conditional state alone, so the
    quotient is all that state needs.  A sequence of times gives the slow
    modes (T,) and a stack (T, 4, 4) of maps, each row formed exactly as it
    is alone.  Where entry_logs, the entry_logs_over_slow(params, t) of a
    sequence of times, is given, the map is built from it instead.
    """
    single = np.ndim(t) == 0
    if entry_logs is None:
        entry_logs = entry_logs_over_slow(params, [t] if single else t)
    slows, logs = entry_logs
    # per row: H<-H, V<-V, H<-V = V<-H and the two coherences
    entries = np.array(list(map(math.exp, logs.ravel().tolist()))).reshape(-1, 4)
    s = np.zeros((len(entries), 4, 4))
    s[:, [0, 3, 0, 3, 1, 2], [0, 3, 3, 0, 1, 2]] = entries[:, [0, 1, 2, 2, 3, 3]]
    return (float(slows[0]), s[0]) if single else (slows, s)


def ptm_at(params: ChannelParams, t: float) -> np.ndarray:
    """Transfer matrix of the loss model at time t (closed form).

    Formed over the slow mode and scaled back by it, so both the G -> 0
    limit and large G t come out exact; entries may underflow to 0 at times
    where the photon is surely lost.
    """
    slow, log_q, one_minus_q = decay_modes(params, t)
    q = math.exp(log_q)
    _, _, r_gamma, r_delta, _, _, _ = params.decay_rates
    m = np.zeros((4, 4))
    m[0, 0] = 0.5 * (1.0 + q + r_gamma * one_minus_q)
    m[0, 3] = m[3, 0] = -0.5 * r_delta * one_minus_q
    # the Pauli coherence is the matrix units' coherence c
    m[1, 1] = m[2, 2] = math.exp(_entry_logs(params, log_q, one_minus_q)[3])
    # 1 - g/G = ((gh - gv)/G)^2 / (1 + g/G), exact where the subtraction is not
    m[3, 3] = 0.5 * (2.0 * q + r_delta * r_delta / (1.0 + r_gamma) * one_minus_q)
    return slow * m


# sigma_0..3 vec'd row-major, one per column: a map s on the matrix units
# takes them to their images s @ PAULI_INPUTS
PAULI_INPUTS = np.stack([s.reshape(-1) for s in SIGMA], axis=1)


def pauli_transfer(images: np.ndarray) -> np.ndarray:
    """Transfer matrix m[i, j] = tr[sigma_i L[sigma_j]] / 2 from the images of the Pauli inputs.

    Column j of images is L[sigma_j] vec'd row-major; a stack (..., 4, 4)
    of images gives a stack of transfer matrices.
    """
    return (0.5 * (PAULI_INPUTS.conj().T @ images)).real


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
    inputs vec'd, read off by pauli_transfer().

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

    state = np.broadcast_to(PAULI_INPUTS, power.shape)
    while n:
        if n % 2:
            state = power @ state
        n //= 2
        if n:
            power = power @ power
    out = pauli_transfer(state)
    return out[0] if single else out
