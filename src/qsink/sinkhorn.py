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
in, and inverts each image in closed form (linalg.pd_inverse).  A and B
are real and diagonal, so decompose() forms the transfer matrices of both
filters and of their inverses in closed form (ptm.diagonal_sandwich); the
general sandwich of an arbitrary 2x2 operator is a test oracle in
tests/conftest.py.

Numerical note: everything below is a view of dynamics.decay_modes() or, for
the signal parameters, of its core _mode_ratio().  Divided by the slow mode,
s, the shape of the filters and the signal parameters depend on the line
only through the mode ratio q = exp(-G t), 1 - q and g/G, and each is
written as a sum of terms of one sign.  g/G, (gh - gv)/G and log(g/G) are
per line (ChannelParams.decay_rates, formed once); only q, its log and 1 - q
are per time.  g/G enters through its log wherever it multiplies, so it
keeps its digits where g/G underflows.  With
A = asinh((g/G) sinh(G t / 2)) the signal parameters are

    lx = ly = exp(-g t / 2 - A),    lz = exp(-2 A),

and A is formed from log q, so they stay finite and exact at times where
the modes themselves underflow; the lifetime search probes such times on
purpose.  The fixed point's diagonal 1 +- s is kept in logs, since one of
its entries underflows for a strongly filtering line while the ratio of
the two lines' entries, which the optimal state needs, does not.  Only
the filter B carries the absolute scale of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelParams, _mode_ratio, decay_modes, ptm_at
from .linalg import PD_MIN_EIG, _first_flagged, pd_inverse
from .ptm import PSD_TOL, SIGMA, apply, diagonal_sandwich

# The composed map must reproduce diag(1, lx, ly, lz) at least this well.
NORMAL_FORM_TOL = 1e-9

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 10000


@dataclass(frozen=True)
class SinkhornDecomposition:
    """One map's normal form: L = F_{a_op^-1} . upsilon . F_{b_op^-1}.

    residuals: upsilon's first row (trace_preserving) and column (unital)
    against (1, 0, 0, 0), the right-hand side against L (round_trip), and
    upsilon against diag(1, lx, ly, lz) (self_check, which decompose holds
    to NORMAL_FORM_TOL).
    """

    s: float
    a_op: np.ndarray
    b_op: np.ndarray
    lambda_x: float
    lambda_y: float
    lambda_z: float
    upsilon: np.ndarray
    residuals: dict[str, float]


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def _probe_positivity(m: np.ndarray) -> None:
    # A CP map sends positive definite inputs to positive definite outputs
    # exactly when it does not annihilate the identity, so that is the hard
    # requirement for the iteration (it only ever inverts images of PD
    # operators).  Rank-preserving pure loss maps pure states to singular
    # outputs and is still fine to iterate; genuinely non-positive maps are
    # rejected on the pure-state probes.  m is a stack (N, 4, 4); each probe
    # fails closed, so a NaN eigenvalue counts as a violation.
    half_eye = 0.5 * np.eye(2, dtype=complex)
    for mm in (m, m.swapaxes(-1, -2)):
        low = np.linalg.eigvalsh(apply(mm, half_eye))[:, 0]
        bad = _first_flagged(low, ~(low > PD_MIN_EIG))
        if bad is not None:
            raise ValueError(
                f"map is not strictly positive: identity maps to min eigenvalue {bad:.3e}"
            )
    for pauli in SIGMA[1:]:
        for sign in (1.0, -1.0):
            probe = 0.5 * (np.eye(2, dtype=complex) + sign * pauli)
            low = np.linalg.eigvalsh(apply(m, probe))[:, 0]
            bad = _first_flagged(low, ~(low >= -PSD_TOL))
            if bad is not None:
                raise ValueError(
                    f"map is not positive on a Pauli eigenstate probe "
                    f"(min eigenvalue {bad:.3e})"
                )


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
    max(|d_0| + |d_z|, |d_x + i d_y|) / 2.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 transfer matrices, got shape {m.shape}")
    lead = m.shape[:-2]
    m = m.reshape((-1, 4, 4))
    bad = _first_flagged(m, ~np.isfinite(m))
    if bad is not None:
        raise ValueError(f"map entries must be finite, got {bad!r}")
    _probe_positivity(m)
    fixed = np.empty((len(m), 4))
    # the rows still moving, with their maps, their duals and their current S
    active = np.arange(len(m))
    dual = m.swapaxes(-1, -2)
    s_coeffs = np.broadcast_to(np.array([2.0, 0.0, 0.0, 0.0]), fixed.shape)
    for _ in range(FIXED_POINT_MAX_ITER):
        inner = pd_inverse(np.einsum("nij,nj->ni", dual, s_coeffs))
        image = pd_inverse(np.einsum("nij,nj->ni", m, inner))
        step = np.abs(image - s_coeffs)
        moved = 0.5 * np.maximum(step[:, 0] + step[:, 3], np.hypot(step[:, 1], step[:, 2]))
        done = moved <= FIXED_POINT_TOL
        s_coeffs = image * (2.0 / image[:, :1])
        if done.any():
            fixed[active[done]] = s_coeffs[done]
            keep = ~done
            active, m, dual, s_coeffs = active[keep], m[keep], dual[keep], s_coeffs[keep]
        if not active.size:
            return 0.5 * np.einsum("nk,kab->nab", fixed, SIGMA).reshape(lead + (2, 2))
    raise RuntimeError(
        f"fixed-point iteration did not converge within {FIXED_POINT_MAX_ITER} steps"
    )


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def unital_lambdas(params: ChannelParams, t: float) -> tuple[float, float, float]:
    """Signal parameters (lx, ly, lz) of the unital normal form at time t.

    Finite and well conditioned for every t >= 0, including times where the
    decay modes underflow; (1, 1, 1) exactly at t = 0 and identically for
    pure polarization-dependent loss.  Only log q and 1 - q depend on t.
    """
    log_q, one_minus_q = _mode_ratio(params, t)
    _, _, r_gamma, _, log_r_gamma = params.decay_rates
    if log_r_gamma == -math.inf or one_minus_q == 0.0:
        # pure loss (or t = 0): the unital part is the identity map
        return 1.0, 1.0, 1.0
    # log of (g/G) sinh(G t / 2) = (g/G) (1 - q) / (2 sqrt(q))
    log_sinh = log_r_gamma + math.log(one_minus_q) - _LN2 - 0.5 * log_q
    # asinh(y) = log(2 y) to double precision once y > e^20
    big_a = math.asinh(math.exp(log_sinh)) if log_sinh < 20.0 else log_sinh + _LN2
    # g t / 2 = -(g/G) log(q) / 2, halved before the product so that a
    # subnormal g/G cannot round to 0 against log q = -inf.  Where g/G
    # rounded to 0, g t / 2 is below 1e-323 G t / 2 and is dropped, as
    # 0 times log q = -inf would be NaN.
    half_g_t = r_gamma * (0.5 * log_q) if r_gamma > 0.0 else 0.0
    lam_x = math.exp(half_g_t - big_a)
    return lam_x, lam_x, math.exp(-2.0 * big_a)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), for logs down to -inf."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _fixed_point(
    log_q: float,
    q: float,
    one_minus_q: float,
    r_gamma: float,
    r_delta: float,
    log_r_gamma: float,
) -> tuple[float, float, float, float, float]:
    """(s, log(1 + s), log(1 - s), log eig_h, log eig_v).

    eig_h, eig_v are the eigenvalues of L^dag[S] over the slow mode.  1 -+ s
    and eig are sums of non-negative terms, taken in logs: for a strongly
    filtering line one of them underflows in a linear sum.
    """
    half_gap = 0.5 * r_gamma * one_minus_q
    width = math.sqrt(q + half_gap * half_gap)
    denom = 1.0 + q + 2.0 * width
    s = r_delta * one_minus_q / denom
    log_half_gap = log_r_gamma + _log(one_minus_q) - _LN2
    log_width = 0.5 * _log_add(log_q, 2.0 * log_half_gap)
    # 1 +- (gh-gv)/G, the smaller one as (g/G)^2 over the larger (r_gamma^2 + r_delta^2 = 1)
    log_larger = math.log1p(abs(r_delta))
    log_smaller = 2.0 * log_r_gamma - log_larger
    log_plus_delta, log_minus_delta = (
        (log_larger, log_smaller) if r_delta >= 0.0 else (log_smaller, log_larger)
    )
    # 1 +- s = 2 (upper or lower + width) / denom, all terms positive
    log_upper = _log_add(log_plus_delta, log_q + log_minus_delta) - _LN2
    log_lower = _log_add(log_minus_delta, log_q + log_plus_delta) - _LN2
    log_denom = math.log(denom)
    log_plus_s = _LN2 + _log_add(log_upper, log_width) - log_denom
    log_minus_s = _LN2 + _log_add(log_lower, log_width) - log_denom
    # L^dag[S] = (a + b s) I + (b + d s) sigma_z on |H>, |V>.
    log_eig_h = _log_add(log_plus_s + log_lower, log_minus_s + log_half_gap)
    log_eig_v = _log_add(log_minus_s + log_upper, log_plus_s + log_half_gap)
    return s, log_plus_s, log_minus_s, log_eig_h, log_eig_v


def log_fixed_point_diagonal(params: ChannelParams, t: float) -> tuple[float, float]:
    """Logs (log(1 + s), log(1 - s)) of the diagonal of the fixed point S = I + s sigma_z.

    The map is self-dual, so L^dag[S] is proportional to S^-1 and the output
    filter B = (L^dag[S])^(-1/2) to sqrt(S): this is the filter's shape,
    free of the absolute scale that makes B itself overflow at long times.
    Either entry may be far below the double range, or -inf.
    """
    _, *modes = decay_modes(params, t)
    return _fixed_point(*modes)[1:3]


def decompose(params: ChannelParams, t: float) -> SinkhornDecomposition:
    """Full normal form of the loss model's map at time t.

    The composed transfer matrix F_A . L . F_B is verified against
    diag(1, lx, ly, lz) to NORMAL_FORM_TOL before returning.  Both filters
    are diagonal, (a_h, a_v) and (b_h, b_v), and their transfer matrices
    and those of their inverses are formed from these four numbers.
    """
    slow, *modes = decay_modes(params, t)
    s, log_plus_s, log_minus_s, log_eig_h, log_eig_v = _fixed_point(*modes)
    eig_h = slow * math.exp(log_eig_h)
    eig_v = slow * math.exp(log_eig_v)
    if not (eig_h > PD_MIN_EIG and eig_v > PD_MIN_EIG):
        raise ValueError(
            f"degenerate filter: image of the fixed point has eigenvalues "
            f"({eig_h:.3e}, {eig_v:.3e})"
        )
    lam_x, lam_y, lam_z = unital_lambdas(params, t)

    a_h, a_v = math.sqrt(math.exp(log_plus_s)), math.sqrt(math.exp(log_minus_s))
    b_h, b_v = 1.0 / math.sqrt(eig_h), 1.0 / math.sqrt(eig_v)
    m = ptm_at(params, t)
    upsilon = diagonal_sandwich(a_h, a_v) @ (m @ diagonal_sandwich(b_h, b_v))

    target = np.diag([1.0, lam_x, lam_y, lam_z])
    residual = float(abs(upsilon - target).max())
    if not residual <= NORMAL_FORM_TOL:
        raise RuntimeError(
            f"normal form self-check failed: |upsilon - diag(1, lx, ly, lz)| = {residual:.3e}"
        )
    flat = np.array([1.0, 0.0, 0.0, 0.0])
    a_inv = diagonal_sandwich(1.0 / a_h, 1.0 / a_v)
    b_inv = diagonal_sandwich(1.0 / b_h, 1.0 / b_v)
    return SinkhornDecomposition(
        s=s,
        a_op=np.diag([a_h, a_v]).astype(complex),
        b_op=np.diag([b_h, b_v]).astype(complex),
        lambda_x=lam_x,
        lambda_y=lam_y,
        lambda_z=lam_z,
        upsilon=upsilon,
        residuals={
            "trace_preserving": float(abs(upsilon[0] - flat).max()),
            "unital": float(abs(upsilon[:, 0] - flat).max()),
            "round_trip": float(abs(a_inv @ (upsilon @ b_inv) - m).max()),
            "self_check": residual,
        },
    )
