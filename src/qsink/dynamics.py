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
alone; ChannelParams.decay_rates holds them, formed with the line.  Per
time, _mode_ratio(), the core of decay_modes(), forms log q and 1 - q,
all the signal parameters read, and decay_modes() adds the slow mode.
_entry_logs() forms, from log q and 1 - q, the logs of the map's distinct
entries over its slow mode on the |H>, |V> matrix units: H = H<-H,
V = V<-V, h = H<-V = V<-H and the coherence c.  Each is a sum of
non-negative terms, finite where the modes underflow.
entry_logs_over_slow() gathers them with the slow mode over a sequence of
times, superop_over_slow() builds the maps from that table of logs, and
the normal form in sinkhorn.py reads its fixed point, filters and middle
map off the same logs.  ptm_at() forms the transfer matrix in closed form
on the Pauli basis and scales it back by the slow mode.
ptm_via_exponential() recomputes the transfer matrices of a sequence of
lines at a sequence of times from one eigendecomposition per line of the
master equation's own generator, as an independent cross-check;
pauli_transfer() puts its result, or any map on the matrix units, on the
Pauli basis.

The module loads without numpy: ChannelParams, decay_modes() and the
scalar core are math alone.  The functions that return arrays
(entry_logs_over_slow, superop_over_slow, ptm_at, pauli_transfer and
ptm_via_exponential) import numpy and linalg in their own bodies, so the
lifetime and the optimal state never load them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# r + G is at most 4.5 times a line's largest rate, so it stays finite up to
# this rate; a line with a larger one is formed at an eighth of its rates.
_UNSCALED_RATE_MAX = 2.0**1020
# Where G is subnormal, g and gh - gv are too: scaled by this, exactly, they are normal.
_SUBNORMAL_SCALE = 2.0**1000

_LN2 = math.log(2.0)
_DOUBLE_MAX = sys.float_info.max
_DOUBLE_MIN = sys.float_info.min


class _Rates(NamedTuple):
    gamma_h: float
    gamma_v: float
    gamma: float


def _decay_rates(
    gamma_h: float, gamma_v: float, gamma: float
) -> tuple[float, float, float, float, float, float, float]:
    """The time-independent part of decay_modes() and _entry_logs(): a line's decay_rates.

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
    large = _UNSCALED_RATE_MAX
    scale = 8.0 if gamma_h > large or gamma_v > large or gamma > large else 1.0
    gh, gv, g = gamma_h / scale, gamma_v / scale, gamma / scale
    delta = gh - gv
    big_g = math.hypot(g, delta)
    rate = g + gh + gv
    loss = gh + gv
    total = rate + big_g
    if total > 0.0:
        # max(gh, gv), min(gh, gv), max(g, loss) and min(g, loss), tie for tie
        big_loss, small_loss = gv if gv > gh else gh, gv if gv < gh else gh
        big_mix, small_mix = loss if loss > g else g, loss if loss < g else g
        slow_rate = 4.0 * (big_loss / total) * small_loss + 2.0 * (big_mix / total) * small_mix
    else:
        slow_rate = 0.0
    if big_g >= _DOUBLE_MIN:
        r_gamma, r_delta = g / big_g, delta / big_g
    elif big_g > 0.0:
        # a subnormal G keeps too few digits for a unit vector
        g_up, delta_up = g * _SUBNORMAL_SCALE, delta * _SUBNORMAL_SCALE
        norm = math.hypot(g_up, delta_up)
        r_gamma, r_delta = g_up / norm, delta_up / norm
    else:
        r_gamma, r_delta = 1.0, 0.0
    if r_gamma >= _DOUBLE_MIN:
        log_r_gamma = math.log(r_gamma)
    elif gamma > 0.0:
        # log g from the unscaled g where the eighth cost it digits, or all of them
        log_g = math.log(g) if g * scale == gamma else math.log(gamma) - math.log(scale)
        log_r_gamma = log_g - math.log(big_g)
    else:
        log_r_gamma = -math.inf
    log_larger = math.log1p(abs(r_delta))
    log_half_larger, log_half_smaller = log_larger - _LN2, 2.0 * log_r_gamma - log_larger - _LN2
    if r_delta >= 0.0:
        log_plus, log_minus = log_half_larger, log_half_smaller
    else:
        log_plus, log_minus = log_half_smaller, log_half_larger
    return (-0.5 * big_g * scale, -0.5 * slow_rate * scale, r_gamma, r_delta, log_r_gamma,
            log_plus, log_minus)


class ChannelParams(_Rates):
    """Rates of one transmission line: attenuation of H and V, depolarization.

    A tuple of its three rates, equal to (gamma_h, gamma_v, gamma) and
    hashed as it; each is checked on construction, by _make and _replace
    too.  decay_rates, their _decay_rates(), is set on construction and
    takes no part in repr, == or hash.
    """

    def __new__(cls, gamma_h: float, gamma_v: float, gamma: float) -> ChannelParams:
        for name, value in (("gamma_h", gamma_h), ("gamma_v", gamma_v), ("gamma", gamma)):
            # isfinite(value) and value >= 0, in one chained comparison
            if not 0.0 <= value <= _DOUBLE_MAX:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        self = tuple.__new__(cls, (gamma_h, gamma_v, gamma))
        self.decay_rates = _decay_rates(gamma_h, gamma_v, gamma)
        return self

    @classmethod
    def _make(cls, iterable) -> ChannelParams:
        return cls(*iterable)

    @property
    def total_rate(self) -> float:
        return self.gamma_h + self.gamma_v + self.gamma

    @property
    def max_rate(self) -> float:
        return max(self.gamma_h, self.gamma_v, self.gamma)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), for logs down to -inf."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _mode_ratio(params: ChannelParams, t: float) -> tuple[float, float]:
    """(log q, 1 - q) at time t, q = exp(-G t): the part of decay_modes() that lambda reads."""
    # isfinite(t) and t >= 0, in one chained comparison
    if not 0.0 <= t <= _DOUBLE_MAX:
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
    import numpy as np

    # one flat list of the rows' five values, which numpy reads faster than tuples
    flat = []
    for time in times:
        slow, log_q, one_minus_q = decay_modes(params, time)
        flat += (slow, *_entry_logs(params, log_q, one_minus_q))
    table = np.array(flat).reshape(-1, 5)
    return table[:, 0], table[:, 1:]


def superop_over_slow(logs: np.ndarray) -> np.ndarray:
    """The maps (T, 4, 4) over their slow modes, from the entry logs (T, 4) of entry_logs_over_slow.

    The real 4x4 map acts on row-major vec'd |H><H|, |H><V|, |V><H|, |V><V|:
    entry [(a b), (i j)] is the part of L[|i><j|] along |a><b|.  Its entries
    are the exponentials of _entry_logs(), at most 1 and finite for every
    t; only the slow mode underflows at times where the photon is surely
    lost.  Rescaling a map leaves the conditional state alone, so the
    quotient is all that state needs.  Each row is formed from its own logs
    alone.
    """
    import numpy as np

    # per row: H<-H, V<-V, H<-V = V<-H and the two coherences
    entries = np.array(list(map(math.exp, logs.ravel().tolist()))).reshape(-1, 4)
    s = np.zeros((len(entries), 4, 4))
    s[:, [0, 3, 0, 3, 1, 2], [0, 3, 3, 0, 1, 2]] = entries[:, [0, 1, 2, 2, 3, 3]]
    return s


def ptm_at(params: ChannelParams, t: float) -> np.ndarray:
    """Transfer matrix of the loss model at time t (closed form).

    Formed over the slow mode and scaled back by it, so both the G -> 0
    limit and large G t come out exact; entries may underflow to 0 at times
    where the photon is surely lost.
    """
    import numpy as np

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


def pauli_transfer(images: np.ndarray) -> np.ndarray:
    """Transfer matrix m[i, j] = tr[sigma_i L[sigma_j]] / 2 from the images of the Pauli inputs.

    Column j of images is L[sigma_j] vec'd row-major; a stack (..., 4, 4)
    of images gives a stack of transfer matrices.
    """
    from .linalg import PAULI_INPUTS

    return (0.5 * (PAULI_INPUTS.conj().T @ images)).real


# ---------------------------------------------------------------------------
# Brute-force oracle: exponentiate the master equation's generator itself.
# ---------------------------------------------------------------------------


def _sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """X -> left X right on the row-major vec'd 2x2 units: kron(left, right^T), stacks broadcast.

    Formed by elementwise products, not matrix products: a real matrix
    product would load BLAS kernels that no other step of a validate run
    needs, and their code pages would raise its peak memory.
    """
    product = left[..., :, None, :, None] * right.swapaxes(-2, -1)[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], 4, 4)


def ptm_via_exponential(params: Sequence[ChannelParams], times: Sequence[float]) -> np.ndarray:
    """Transfer matrices (N, T, 4, 4) of N lines at T times from the master equation's exponential.

    The generator L is the literal right-hand side on the four 2x2 matrix
    units: anticommutator and Pauli sandwiches, nothing of the closed form.
    Each term is real, sigma_y X sigma_y being -J X J with J = i sigma_y,
    so L is formed in real arithmetic.  It is constant and symmetric on the
    row-major vec'd units, so exp(L t) = V exp(t Lambda) V^T from one
    eigendecomposition L = V Lambda V^T per line, at every time at once.
    eigh reads one triangle only, so L first passes hermitian_part(), which
    refuses an asymmetric generator: a map that is not its own dual.
    Lambda is held at or below 0, as a trace-nonincreasing semigroup has no
    growing mode, so no entry exceeds 1 in magnitude at any t.  Lambda's
    rounding, about eps times the largest rate, is still scaled by t: on
    random lines the maps erred by up to 5e-13 where the largest rate times
    t is 1e3, and 2e-6 where it is 1e10.  exp(L t) is applied to the four
    Pauli inputs vec'd and read off by pauli_transfer().

    Each (line, time) entry gets the operations it would get alone, and
    t = 0 gives the identity exactly.  A non-finite or negative time is
    refused, the first one named.
    """
    import numpy as np

    from .linalg import PAULI_INPUTS, SIGMA, _refuse_flagged, hermitian_part

    times = np.asarray(times, dtype=float)
    # fails closed: NaN is neither >= 0 nor <= the largest double
    _refuse_flagged(times, ~((times >= 0.0) & (times <= _DOUBLE_MAX)),
                    "t must be finite and >= 0, got {!r}")

    # each line's loss D = diag(gh, gv) (N, 2, 2) and depolarization (N, 1, 1);
    # (N, 3) rates also where N = 0
    rates = np.array([(c.gamma_h, c.gamma_v, c.gamma) for c in params]).reshape(-1, 3)
    loss = np.zeros((len(rates), 2, 2))
    loss[:, 0, 0], loss[:, 1, 1] = rates[:, 0], rates[:, 1]
    g = rates[:, 2, None, None]
    identity = np.eye(2)
    generator = -0.5 * (_sandwich(loss, identity) + _sandwich(identity, loss))
    # sigma_y X sigma_y = -J X J, with J = i sigma_y real
    for sign, pauli in ((1.0, SIGMA[1].real), (-1.0, (1j * SIGMA[2]).real), (1.0, SIGMA[3].real)):
        generator += sign * 0.25 * g * _sandwich(pauli, pauli)
    generator -= 0.75 * g * np.eye(4)
    generator = hermitian_part(generator).real
    eigenvalues, vectors = np.linalg.eigh(generator)
    np.minimum(eigenvalues, 0.0, out=eigenvalues)
    decays = np.exp(times[:, None] * eigenvalues[:, None, :])
    propagators = (vectors[:, None] * decays[:, :, None, :]) @ vectors.swapaxes(-2, -1)[:, None]
    maps = pauli_transfer(propagators @ PAULI_INPUTS)
    maps[:, times == 0.0] = np.eye(4)
    return maps
