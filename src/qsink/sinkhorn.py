"""Normal form of a lossy qubit map: unital and trace preserving in the middle.

Any map in the transfer-matrix family of this package factors as

    L = F_Ainv . U . F_Binv        (equivalently U = F_A . L . F_B)

where F_X[rho] = X rho X^dag, A = sqrt(S), B = (L^dag[S])^(-1/2), U is unital
and trace preserving with transfer matrix diag(1, lx, ly, lz), and S is a
positive fixed point of

    F[S] = ( L[ (L^dag[S])^(-1) ] )^(-1).

For this family S = I + s sigma_z with a closed-form s, which decompose()
uses directly; fixed_point_iterate() recovers the same S by iterating F and
serves as the independent cross-check.  It iterates on the real Pauli
coefficients c_k = tr[sigma_k S], the basis the transfer matrix is written
in, and inverts each image in closed form (linalg.pd_inverse).  Each step
mixes F's image with the last one, depth-1 Anderson acceleration (Walker
and Ni, SIAM J. Numer. Anal. 49, 1715 (2011)), and falls back to the plain
step, which contracts in Hilbert's projective metric (Georgiou and Pavon,
J. Math. Phys. 56, 033301 (2015)), wherever the mixing is not safe.  It
reads F alone, never the closed form.

A and B are real and diagonal, and a diagonal filter X scales the matrix
unit |i><j| by x_i x_j.  decompose() therefore works on the |H>, |V>
matrix units of the map over its slow mode, whose distinct entries
H = H<-H, V = V<-V, h = H<-V = V<-H and the coherence c are all
non-negative.  dynamics._entry_logs() forms their logs, once per line and
time, and the fixed point, both filters and upsilon are read off them:

    sqrt(q + h^2) = sqrt(H V),   1 + q + 2 sqrt(H V) = (sqrt(H) + sqrt(V))^2,
    1 + s = 2 sqrt(V) / (sqrt(H) + sqrt(V)),   1 - s = 2 sqrt(H) / (sqrt(H) + sqrt(V)),
    L^dag[S] = w (I - s sigma_z),   w = sqrt(H V) + h.

With B taken over the slow mode, b_{h,v}^2 = 1 / ((1 -+ s) w), and the
filters cancel from upsilon's entries on the units: a_h^2 H b_h^2 =
a_v^2 V b_v^2 = sqrt(H V) / w, a_h^2 h b_v^2 = a_v^2 h b_h^2 = h / w and
a_h a_v c b_h b_v = c / w.  Upsilon is therefore read off the map's
entries and w alone, each ratio the exponential of a difference of two
logs, and its transfer matrix is diag(1, lx, lx, lz) with

    lx = c / (sqrt(H V) + h),   lz = (sqrt(H V) - h) / (sqrt(H V) + h),

since (sqrt(H V))^2 - h^2 = q.  No filter log enters upsilon, so however
unequal the filters, or however large their logs, upsilon keeps the
digits of the entries.  Both filters have the shape (sqrt(1 + s),
sqrt(1 - s)), which may underflow: A is it, and B = beta A with log beta =
-(log slow + log w + log(1 + s) + log(1 - s)) / 2, kept as a log, since
beta overflows where the slow mode underflows.

The signal parameters take their own route, the independent one that
decompose's self-check compares upsilon against; the self-check compares
the filters' shape squared against s, which decompose forms apart from
the shape's logs, as r_delta (1 - q) / (sqrt(H) + sqrt(V))^2.  With
A = asinh((g/G) sinh(G t / 2)) they are

    lx = ly = exp(-g t / 2 - A),    lz = exp(-2 A),

and one helper, _signal_exponents, forms -g t / 2 and A, for
unital_lambdas and for the lifetime equation (entanglement.lifetime_lhs)
alike.  Below G t / 2 = 20, where g/G is a normal double, A is asinh of
(g/G) sinh(G t / 2) as written: no log of g/G or of 1 - q enters, and the
one rounding it amplifies is that of G t, by up to x coth x at x = G t / 2.
Elsewhere A is formed from log q and 1 - q (dynamics._mode_ratio), with
g/G through its log, so the parameters stay finite and exact at times
where the modes themselves underflow, which the lifetime search probes on
purpose, and where g/G underflows.

The signal parameters, the fixed point's logs and decompose are math
alone, and the module loads without numpy: upsilon is held as its four
diagonal entries.  fixed_point_iterate and its positivity probe, the
cross-check on stacks of maps, import numpy and linalg in their own bodies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .dynamics import _DOUBLE_MIN, _LN2, ChannelParams, _entry_logs, _log_add, _mode_ratio

if TYPE_CHECKING:
    import numpy as np

# upsilon must be (1, lx, ly, lz), and the filters' shape squared 1 +- s, this closely.
NORMAL_FORM_TOL = 1e-9

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 10000

_NEG_INF = -math.inf


class SinkhornDecomposition(NamedTuple):
    """One map's normal form: L = F_{A^-1} . Upsilon . F_{B^-1}, with B = exp(log_b_scale) A.

    upsilon is Upsilon's transfer matrix, diagonal on the Pauli basis,
    held as its four diagonal entries.  a_diag is A = sqrt(S) =
    diag(sqrt(1 + s), sqrt(1 - s)), either entry possibly 0.  self_check
    is the largest of six deviations, those of upsilon from (1, lx, ly, lz)
    and those of a_diag's squares from 1 +- s, which decompose holds to
    NORMAL_FORM_TOL.
    """

    s: float
    a_diag: tuple[float, float]
    log_b_scale: float
    lambda_x: float
    lambda_y: float
    lambda_z: float
    upsilon: tuple[float, float, float, float]
    self_check: float


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def _probe_positivity(m: np.ndarray) -> None:
    # A CP map sends positive definite inputs to positive definite outputs
    # exactly when it does not annihilate the identity, so that is the hard
    # requirement for the iteration (it only ever inverts images of PD
    # operators).  Rank-preserving pure loss maps pure states to singular
    # outputs and is still fine to iterate; genuinely non-positive maps are
    # rejected on the pure-state probes.  m is a stack (N, 4, 4) acting on
    # Pauli coefficients: I/2 has (1, 0, 0, 0), so its image is column 0 of
    # m (row 0 for the dual), and (I +- sigma_k)/2 has (1, +-e_k).  Each
    # probe fails closed, so a NaN eigenvalue counts as a violation.
    from .linalg import PD_MIN_EIG, PSD_TOL, _refuse_flagged, pauli_eigenvalues

    for image in (m[:, :, 0], m[:, 0, :]):
        low = pauli_eigenvalues(image)[0]
        _refuse_flagged(low, ~(low > PD_MIN_EIG),
                        "map is not strictly positive: identity maps to min eigenvalue {:.3e}")
    for k in (1, 2, 3):
        for sign in (1.0, -1.0):
            low = pauli_eigenvalues(m[:, :, 0] + sign * m[:, :, k])[0]
            _refuse_flagged(low, ~(low >= -PSD_TOL), "map is not positive on a Pauli "
                            "eigenstate probe (min eigenvalue {:.3e})")


def fixed_point_iterate(m: np.ndarray) -> np.ndarray:
    """Iterate F[S] = (L[(L^dag[S])^-1])^-1 from S = I until a step moves S by <= FIXED_POINT_TOL.

    Returns S in the tr[S] = 2 gauge (F is scale covariant, so the trace is
    renormalized after every step).  m may be one transfer matrix or a stack
    (..., 4, 4); a stack gives one S per map, each iterated until it alone
    stops moving, exactly as if it were iterated by itself.  Raises
    ValueError for maps the iteration cannot handle and RuntimeError if
    FIXED_POINT_MAX_ITER steps are not enough for some map.

    S and its images are held as Pauli coefficients c_k = tr[sigma_k S],
    on which L is m @ c and L^dag is m^T @ c: a step is two real 4x4
    products and two closed-form qubit inverses.  A step moves S by the
    largest entry of the 2x2 change D = (d_0 + d . sigma) / 2, which is
    max(|d_0| + |d_z|, |d_x + i d_y|) / 2.  A map stops once the plain
    step F[S], in the gauge, moves its S by <= FIXED_POINT_TOL, and returns
    that F[S].

    Otherwise the next S is mixed, depth-1 Anderson acceleration: with
    g = F[S] in the gauge, f = g - S, and g', f' those of the last step,
    S <- g - theta (g - g'), theta = f . (f - f') / |f - f'|^2.  A map
    takes the plain step g instead on its first step, where |f| grew since
    its last step, where f - f' = 0 and where the mixed point is not
    positive definite.  Each map's arithmetic is its own, so a stack
    gives each map the bits it gets alone.  The error of the returned S is
    about FIXED_POINT_TOL / (1 - rho), rho F's contraction ratio near the
    fixed point, as for the plain iteration, and so grows where the
    signal parameters approach 1; the mixing only takes fewer steps.
    """
    import numpy as np

    from .linalg import PD_MIN_EIG, SIGMA, _refuse_flagged, pauli_eigenvalues, pd_inverse

    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 transfer matrices, got shape {m.shape}")
    lead = m.shape[:-2]
    m = m.reshape((-1, 4, 4))
    _refuse_flagged(m, ~np.isfinite(m), "map entries must be finite, got {!r}")
    _probe_positivity(m)
    fixed = np.empty((len(m), 4))
    # the rows still moving, with their maps, their duals, their current S and
    # their last step's gauged image, residual and squared residual, which
    # starts at -inf so that the first step is plain
    active = np.arange(len(m))
    dual = m.swapaxes(-1, -2)
    s_coeffs = np.broadcast_to(np.array([2.0, 0.0, 0.0, 0.0]), fixed.shape)
    last_image, last_residual, last_norm = s_coeffs, np.zeros(fixed.shape), np.full(len(m), -np.inf)
    for _ in range(FIXED_POINT_MAX_ITER):
        inner = pd_inverse(np.einsum("nij,nj->ni", dual, s_coeffs))
        image = pd_inverse(np.einsum("nij,nj->ni", m, inner))
        # gauged before the stopping test: F[S]'s own scale carries the
        # rounding of both inverses, which can sit above FIXED_POINT_TOL
        image = image * (2.0 / image[:, :1])
        step = np.abs(image - s_coeffs)
        moved = 0.5 * np.maximum(step[:, 0] + step[:, 3], np.hypot(step[:, 1], step[:, 2]))
        done = moved <= FIXED_POINT_TOL
        if done.any():
            fixed[active[done]] = image[done]
            keep = ~done
            active, m, dual, s_coeffs, image, last_image, last_residual, last_norm = (
                rows[keep]
                for rows in (active, m, dual, s_coeffs, image, last_image, last_residual, last_norm)
            )
        if not active.size:
            return 0.5 * np.einsum("nk,kab->nab", fixed, SIGMA).reshape(lead + (2, 2))
        # depth-1 Anderson: the image less theta times its last change, with
        # theta the least-squares weight that cancels the residual's change
        residual = image - s_coeffs
        norm = (residual * residual).sum(axis=-1)
        change = residual - last_residual
        change_norm = (change * change).sum(axis=-1)
        theta = (residual * change).sum(axis=-1) / np.where(change_norm > 0.0, change_norm, 1.0)
        mixed = image - theta[:, None] * (image - last_image)
        # the plain step where the residual grew, its change vanished or the
        # mixed point is not positive definite; each test fails on NaN
        mix = (norm <= last_norm) & (change_norm > 0.0) & (pauli_eigenvalues(mixed)[0] > PD_MIN_EIG)
        s_coeffs = np.where(mix[:, None], mixed, image)
        last_image, last_residual, last_norm = image, residual, norm
    raise RuntimeError(
        f"fixed-point iteration did not converge within {FIXED_POINT_MAX_ITER} steps"
    )


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def unital_lambdas(params: ChannelParams, t: float) -> tuple[float, float, float]:
    """Signal parameters (lx, ly, lz) of the unital normal form at time t.

    Finite and well conditioned for every t >= 0, including times where the
    decay modes underflow; (1, 1, 1) exactly at t = 0 and identically for
    pure polarization-dependent loss.  lx = ly = exp(-g t / 2 - A) and
    lz = exp(-2 A), from _signal_exponents.
    """
    half_g_t, big_a = _signal_exponents(params, t)
    lam_x = math.exp(half_g_t - big_a)
    return lam_x, lam_x, math.exp(-2.0 * big_a)


def _signal_exponents(params: ChannelParams, t: float) -> tuple[float, float]:
    """(-g t / 2, A) at time t, A = asinh((g/G) sinh(G t / 2)): the one form of both.

    unital_lambdas and the lifetime equation read the signal parameters
    off these two.  Below G t / 2 = 20, where g/G is a normal double, A is
    asinh of (g/G) sinh(G t / 2) as it stands.  Elsewhere (g/G) sinh(G t /
    2) = (g/G) (1 - q) / (2 sqrt(q)) is taken through its log, with g/G's
    log, so A stays finite where q underflows or g/G is subnormal.  Both
    are 0 for pure loss and at t = 0.
    """
    half_log_q = params.decay_rates[0] * t
    r_gamma = params.decay_rates[2]
    # G t / 2 < 20, t >= 0 and g/G normal.  Each comparison fails on NaN, so a t
    # that is NaN, negative or infinite takes the log form, whose _mode_ratio refuses it
    if half_log_q > -20.0 and t >= 0.0 and r_gamma >= _DOUBLE_MIN:
        return r_gamma * half_log_q, math.asinh(r_gamma * math.sinh(-half_log_q))
    log_q, one_minus_q = _mode_ratio(params, t)
    log_r_gamma = params.decay_rates[4]
    if log_r_gamma == _NEG_INF or one_minus_q == 0.0:
        # pure loss (or t = 0): the unital part is the identity map
        return 0.0, 0.0
    # log of (g/G) sinh(G t / 2) = (g/G) (1 - q) / (2 sqrt(q))
    log_sinh = log_r_gamma + math.log(one_minus_q) - _LN2 - 0.5 * log_q
    # asinh(y) = log(2 y) to double precision once y > e^20
    big_a = math.asinh(math.exp(log_sinh)) if log_sinh < 20.0 else log_sinh + _LN2
    # g t / 2 = -(g/G) log(q) / 2, halved before the product so that a
    # subnormal g/G cannot round to 0 against log q = -inf.  Where g/G
    # rounded to 0, g t / 2 is below 1e-323 G t / 2 and is dropped, as
    # 0 times log q = -inf would be NaN.
    return (r_gamma * (0.5 * log_q) if r_gamma > 0.0 else 0.0), big_a


def _fixed_point(log_hh: float, log_vv: float, log_hv: float) -> tuple[float, float, float]:
    """(log(1 + s), log(1 - s), log w) from the logs of the map's entries.

    log_hh, log_vv and log_hv are the logs of H = H<-H, V = V<-V and
    h = H<-V over the slow mode (dynamics._entry_logs).  1 -+ s =
    2 sqrt(H or V) / (sqrt(H) + sqrt(V)), and L^dag[S] = w (I - s sigma_z)
    over the slow mode, with w = sqrt(H V) + h.  The map is self-dual, so
    the output filter B = (L^dag[S])^(-1/2) is proportional to sqrt(S),
    whose diagonal 1 +- s is the filter's shape, free of the absolute
    scale that makes B itself overflow at long times.  Either entry of the
    diagonal may be far below the double range, or -inf.
    """
    log_root_h, log_root_v = 0.5 * log_hh, 0.5 * log_vv
    # log 2 - log(sqrt(H) + sqrt(V))
    log_scale = _LN2 - _log_add(log_root_h, log_root_v)
    log_w = _log_add(log_root_h + log_root_v, log_hv)
    return log_scale + log_root_v, log_scale + log_root_h, log_w


def _filter_shape(log_plus_s: float, log_minus_s: float) -> tuple[float, float]:
    """(sqrt(1 + s), sqrt(1 - s)) from their logs: the shape of both filters; either may be 0."""
    return math.sqrt(math.exp(log_plus_s)), math.sqrt(math.exp(log_minus_s))


def decompose(params: ChannelParams, t: float) -> SinkhornDecomposition:
    """Full normal form of the loss model's map at time t.

    Both filters are diagonal, and a diagonal filter X scales the matrix
    unit |i><j| by x_i x_j, so upsilon is read off the map's entries over
    its slow mode (dynamics._entry_logs), B taken over it too: its diagonal
    is (root + cross, c/w, c/w, root - cross), with root = sqrt(H V) / w
    and cross = h / w.  Raises ValueError where log_b_scale is not finite
    (a log(1 +- s) of -inf, or a slow mode's log past the double range)
    and RuntimeError unless upsilon is (1, lx, ly, lz) and the filters'
    shape squared is 1 +- s, both to NORMAL_FORM_TOL; a NaN fails too.
    """
    log_q, one_minus_q = _mode_ratio(params, t)
    log_hh, log_vv, log_hv, log_c = _entry_logs(params, log_q, one_minus_q)
    log_plus_s, log_minus_s, log_w = _fixed_point(log_hh, log_vv, log_hv)
    # log beta = -(log slow + log(1 + s) + log eig_h) / 2, with eig_h = (1 - s) w the
    # eigenvalue of L^dag[S] over the slow mode; the slow mode is only ever a log here
    log_slow = params.decay_rates[1] * t
    log_b_scale = -0.5 * (log_slow + log_plus_s + (log_minus_s + log_w))
    if not math.isfinite(log_b_scale):
        raise ValueError(
            f"degenerate filter B: log_b_scale = {log_b_scale:.6g} from log slow = {log_slow:.6g}, "
            f"log(1 + s) = {log_plus_s:.6g}, log(1 - s) = {log_minus_s:.6g}"
        )
    lam_x, lam_y, lam_z = unital_lambdas(params, t)
    # s = (V - H) / (sqrt(H) + sqrt(V))^2, with V - H = r_delta (1 - q), which does not cancel
    roots = math.exp(0.5 * log_hh) + math.exp(0.5 * log_vv)
    s = params.decay_rates[3] * one_minus_q / (roots * roots)

    # F_X scales the unit |i><j| by x_i x_j, with a_{h,v}^2 = 1 +- s and, over
    # the slow mode, b_{h,v}^2 = 1 / ((1 -+ s) w): both diagonal units become
    # sqrt(H V) / w, both off-diagonal ones h / w, and the coherence c / w
    root = math.exp(0.5 * (log_hh + log_vv) - log_w)
    cross = math.exp(log_hv - log_w)
    coherence = math.exp(log_c - log_w)
    upsilon = (root + cross, coherence, coherence, root - cross)
    a_diag = _filter_shape(log_plus_s, log_minus_s)

    deviations = [abs(u - target) for u, target in zip(upsilon, (1.0, lam_x, lam_y, lam_z))]
    # the filters' shape against s, which is formed apart from the logs the shape comes from
    deviations += [abs(a * a - target) for a, target in zip(a_diag, (1.0 + s, 1.0 - s))]
    # max keeps a NaN only in first place, and the check must fail on one anywhere
    residual = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    if not residual <= NORMAL_FORM_TOL:
        raise RuntimeError(
            f"normal form self-check failed: |upsilon - diag(1, lx, ly, lz)| or "
            f"|a^2 - (1 +- s)| = {residual:.3e}"
        )
    return SinkhornDecomposition(
        s=s,
        a_diag=a_diag,
        log_b_scale=log_b_scale,
        lambda_x=lam_x,
        lambda_y=lam_y,
        lambda_z=lam_z,
        upsilon=upsilon,
        self_check=residual,
    )
