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
line, and decay_modes() adds the three exponentials of each time.
ptm_over_slow() builds the transfer matrix in units of the slow mode, which
stays finite where the modes underflow, and ptm_at() scales it back; the
normal form in sinkhorn.py reads ratios alone.
ptm_via_integration() recomputes the transfer matrix by brute-force
integration of the master equation, as an independent cross-check.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ptm import SIGMA

# Steps above this would make single calls unreasonably slow; the step size
# is enlarged to keep the count below it.
MAX_RK4_STEPS = 10**7


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

        Returns (-G, -(r - G) / 2, r_gamma, r_delta, log_r_gamma), with
        G = sqrt(g^2 + (gh - gv)^2) and r = g + gh + gv:

        * r_gamma = g / G and r_delta = (gh - gv) / G, a unit vector, taken
          as (1, 0) when G = 0, where it only ever multiplies 1 - q = 0;
        * log_r_gamma = log(g / G), -inf exactly when g = 0.  It is taken as
          log g - log G where g / G is below the normal doubles, so a line
          whose depolarization is tiny against its loss asymmetry keeps it.

        r - G is formed as (r^2 - G^2) / (r + G), each product scaled by
        r + G first, so it neither cancels nor overflows.
        """
        gh, gv, g = self.gamma_h, self.gamma_v, self.gamma
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
        return -big_g, -0.5 * slow_rate, r_gamma, r_delta, log_r_gamma


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
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    neg_big_g, neg_half_slow_rate, r_gamma, r_delta, log_r_gamma = params.decay_rates
    log_q = neg_big_g * t
    return (
        math.exp(neg_half_slow_rate * t),
        log_q,
        math.exp(log_q),
        -math.expm1(log_q),
        r_gamma,
        r_delta,
        log_r_gamma,
    )


def ptm_over_slow(params: ChannelParams, t: float) -> tuple[float, np.ndarray]:
    """The slow mode and the transfer matrix at time t divided by it.

    Each entry of the quotient is a sum of non-negative terms in q, 1 - q
    and the ratios, at most 1 and finite for every t; only the slow mode
    underflows at times where the photon is surely lost.  Rescaling a map
    leaves the conditional state alone, so the quotient is all that state
    needs.
    """
    slow, log_q, q, one_minus_q, r_gamma, r_delta, _ = decay_modes(params, t)
    m = np.zeros((4, 4))
    m[0, 0] = 0.5 * (1.0 + q + r_gamma * one_minus_q)
    m[0, 3] = m[3, 0] = -0.5 * r_delta * one_minus_q
    # the coherence over the slow mode is exp(-(g + G) t / 2) = (exp(-g t) q)^(1/2)
    m[1, 1] = m[2, 2] = math.exp(0.5 * (1.0 + r_gamma) * log_q)
    # 1 - g/G = ((gh - gv)/G)^2 / (1 + g/G), exact where the subtraction is not
    m[3, 3] = 0.5 * (2.0 * q + r_delta * r_delta / (1.0 + r_gamma) * one_minus_q)
    return slow, m


def ptm_at(params: ChannelParams, t: float) -> np.ndarray:
    """Transfer matrix of the loss model at time t (closed form).

    The slow mode times ptm_over_slow(), so both the G -> 0 limit and large
    G t come out exact; entries may underflow to 0 at times where the
    photon is surely lost.
    """
    slow, m = ptm_over_slow(params, t)
    return slow * m


# ---------------------------------------------------------------------------
# Brute-force oracle: integrate the master equation itself.
# ---------------------------------------------------------------------------


def _generator_matrix(params: ChannelParams) -> np.ndarray:
    """Master-equation right-hand side as a matrix on row-major vec'd operators.

    Columns are the literal right-hand side evaluated on the four 2x2 matrix
    units, so this encodes the anticommutator and Pauli sandwich terms and
    nothing of the closed-form solution.
    """
    loss = np.diag([params.gamma_h, params.gamma_v]).astype(complex)
    gen = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        unit = np.zeros((2, 2), dtype=complex)
        unit[divmod(col, 2)] = 1.0
        out = -0.5 * (loss @ unit + unit @ loss)
        for pauli in SIGMA[1:]:
            out += 0.25 * params.gamma * (pauli @ unit @ pauli)
        out -= 0.75 * params.gamma * unit
        gen[:, col] = out.reshape(-1)
    return gen


def ptm_via_integration(
    params: ChannelParams | Sequence[ChannelParams], t: float, dt: float | None = None
) -> np.ndarray:
    """Transfer matrix at time t from RK4 integration of the master equation.

    All four Pauli inputs are propagated at once (columns of a vec'd stack)
    and the matrix entries are read off as m[i, j] = tr[sigma_i rho_j(t)]/2.
    The generator is constant in time, so the four classical RK4 stages
    collapse exactly into one degree-4 polynomial step operator, which is
    precomputed and then applied n = ceil(t / dt) times with h = t / n.

    params may also be a sequence of lines; the result is then a stack
    (N, 4, 4).  Each line keeps its own step count (with dt None, the
    default step of its own rates) and gets exactly the products it would
    get alone: the lines are stepped together, ordered by step count, and
    each drops out once its count is reached.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    single = isinstance(params, ChannelParams)
    cases = [params] if single else list(params)
    if t == 0.0:
        out = np.tile(np.eye(4), (len(cases), 1, 1))
        return out[0] if single else out
    if dt is not None and not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    counts = []
    for case in cases:
        case_dt = dt
        if case_dt is None:
            case_dt = 1e-4 / case.max_rate if case.max_rate > 0.0 else 1e-4
        counts.append(min(max(1, math.ceil(t / case_dt)), MAX_RK4_STEPS))
    order = np.argsort(counts, kind="stable")
    n = np.array(counts)[order]
    h = (t / n)[:, None, None]

    gen = np.stack([_generator_matrix(cases[k]) for k in order])
    eye = np.eye(4, dtype=complex)
    k1 = gen
    k2 = gen @ (eye + 0.5 * h * k1)
    k3 = gen @ (eye + 0.5 * h * k2)
    k4 = gen @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    basis = np.stack([s.reshape(-1) for s in SIGMA], axis=1)
    state = np.broadcast_to(basis, step.shape).copy()
    taken = 0
    # n ascends: from each new count on, the suffix still has steps to take
    for first in np.flatnonzero(np.diff(n, prepend=0)):
        for _ in range(n[first] - taken):
            state[first:] = step[first:] @ state[first:]
        taken = n[first]
    out = np.empty(step.shape)
    out[order] = (0.5 * (basis.conj().T @ state)).real
    return out[0] if single else out
