"""Normal form of a lossy qubit map: unital and trace preserving in the middle.

Any map in the transfer-matrix family of this package factors as

    L = F_Ainv . U . F_Binv        (equivalently U = F_A . L . F_B)

where F_X[rho] = X rho X^dag, A = sqrt(S), B = (L^dag[S])^(-1/2), U is unital
and trace preserving with transfer matrix diag(1, lx, ly, lz), and S is a
positive fixed point of

    F[S] = ( L[ (L^dag[S])^(-1) ] )^(-1).

For this family S = I + s sigma_z with a closed-form s, which decompose()
uses directly; fixed_point_iterate() recovers the same S by iterating F and
serves as the independent cross-check.

Numerical note: everything below is a view of dynamics.decay_modes().
Divided by the slow mode, s, the shape of the filters and the signal
parameters depend on the line only through the mode ratio q = exp(-G t),
1 - q and g/G, and each is written as a sum of terms of one sign.  With
A = asinh((g/G) sinh(G t / 2)) the signal parameters are

    lx = ly = exp(-g t / 2 - A),    lz = exp(-2 A),

and A is formed from log q, so they stay finite and exact at times where
the modes themselves underflow; the lifetime search probes such times on
purpose.  Only the filter B carries the absolute scale of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelParams, decay_modes, ptm_at
from .linalg import PD_MIN_EIG, pd_inverse
from .ptm import PSD_TOL, SIGMA, apply, compose, sandwich

# The composed map must reproduce diag(1, lx, ly, lz) at least this well.
NORMAL_FORM_TOL = 1e-9


@dataclass(frozen=True)
class SinkhornDecomposition:
    """One map's normal form: L = F_{a_op^-1} . upsilon . F_{b_op^-1}."""

    s: float
    a_op: np.ndarray
    b_op: np.ndarray
    lambda_x: float
    lambda_y: float
    lambda_z: float
    upsilon: np.ndarray


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def _probe_positivity(m: np.ndarray) -> None:
    # A CP map sends positive definite inputs to positive definite outputs
    # exactly when it does not annihilate the identity, so that is the hard
    # requirement for the iteration (it only ever inverts images of PD
    # operators).  Rank-preserving pure loss maps pure states to singular
    # outputs and is still fine to iterate; genuinely non-positive maps are
    # rejected on the pure-state probes.
    half_eye = 0.5 * np.eye(2, dtype=complex)
    for mm in (m, m.T):
        low = float(np.linalg.eigvalsh(apply(mm, half_eye))[0])
        if low <= PD_MIN_EIG:
            raise ValueError(
                f"map is not strictly positive: identity maps to min eigenvalue {low:.3e}"
            )
    for pauli in SIGMA[1:]:
        for sign in (1.0, -1.0):
            probe = 0.5 * (np.eye(2, dtype=complex) + sign * pauli)
            low = float(np.linalg.eigvalsh(apply(m, probe))[0])
            if low < -PSD_TOL:
                raise ValueError(
                    f"map is not positive on a Pauli eigenstate probe "
                    f"(min eigenvalue {low:.3e})"
                )


def fixed_point_iterate(
    m: np.ndarray, tol: float = 1e-12, max_iter: int = 10000
) -> np.ndarray:
    """Iterate F[S] = (L[(L^dag[S])^-1])^-1 from S = I until it stops moving.

    Returns S in the tr[S] = 2 gauge (F is scale covariant, so the trace is
    renormalized after every step).  Raises ValueError for maps the iteration
    cannot handle and RuntimeError if max_iter steps are not enough.
    """
    m = np.asarray(m, dtype=float)
    _probe_positivity(m)
    m_dual = m.T
    s_op = np.eye(2, dtype=complex)
    for _ in range(max_iter):
        image = pd_inverse(apply(m, pd_inverse(apply(m_dual, s_op))))
        if float(np.max(np.abs(image - s_op))) <= tol:
            return 2.0 * image / np.trace(image).real
        s_op = 2.0 * image / np.trace(image).real
    raise RuntimeError(
        f"fixed-point iteration did not converge within {max_iter} steps"
    )


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def _lambdas(
    log_q: float, one_minus_q: float, r_gamma: float
) -> tuple[float, float, float]:
    if r_gamma == 0.0 or one_minus_q == 0.0:
        # pure loss (or t = 0): the unital part is the identity map
        return 1.0, 1.0, 1.0
    # log of (g/G) sinh(G t / 2) = (g/G) (1 - q) / (2 sqrt(q))
    log_sinh = math.log(r_gamma) + math.log(one_minus_q) - _LN2 - 0.5 * log_q
    # asinh(y) = log(2 y) to double precision once y > e^20
    big_a = math.asinh(math.exp(log_sinh)) if log_sinh < 20.0 else log_sinh + _LN2
    # g t / 2 = -(g/G) log(q) / 2, halved before the product so that a
    # subnormal g/G cannot round to 0 against log q = -inf
    lam_x = math.exp(r_gamma * (0.5 * log_q) - big_a)
    return lam_x, lam_x, math.exp(-2.0 * big_a)


def unital_lambdas(params: ChannelParams, t: float) -> tuple[float, float, float]:
    """Signal parameters (lx, ly, lz) of the unital normal form at time t.

    Finite and well conditioned for every t >= 0, including times where the
    decay modes underflow; (1, 1, 1) exactly at t = 0 and identically for
    pure polarization-dependent loss.
    """
    _, log_q, _, one_minus_q, r_gamma, _, _ = decay_modes(params, t)
    return _lambdas(log_q, one_minus_q, r_gamma)


def _fixed_point(
    q: float, one_minus_q: float, r_gamma: float, r_delta: float
) -> tuple[float, float, float, float, float]:
    """(s, 1 + s, 1 - s, eig_h, eig_v) with eig the eigenvalues of L^dag[S] over the slow mode."""
    half_gap = 0.5 * r_gamma * one_minus_q
    width = math.sqrt(q + half_gap * half_gap)
    denom = 1.0 + q + 2.0 * width
    s = r_delta * one_minus_q / denom
    # 1 +- (gh-gv)/G, the smaller one as (g/G)^2 over the larger (r_gamma^2 + r_delta^2 = 1)
    larger = 1.0 + abs(r_delta)
    smaller = r_gamma * r_gamma / larger
    plus_delta, minus_delta = (larger, smaller) if r_delta >= 0.0 else (smaller, larger)
    # 1 +- s in cancellation-free all-positive form.
    upper = 0.5 * (plus_delta + q * minus_delta)
    lower = 0.5 * (minus_delta + q * plus_delta)
    one_plus_s = 2.0 * (upper + width) / denom
    one_minus_s = 2.0 * (lower + width) / denom
    # L^dag[S] = (a + b s) I + (b + d s) sigma_z on |H>, |V>.
    eig_h = one_plus_s * lower + one_minus_s * half_gap
    eig_v = one_minus_s * upper + one_plus_s * half_gap
    return s, one_plus_s, one_minus_s, eig_h, eig_v


def fixed_point_diagonal(params: ChannelParams, t: float) -> tuple[float, float]:
    """(1 + s, 1 - s), the diagonal of the fixed point S = I + s sigma_z at time t.

    The map is self-dual, so L^dag[S] is proportional to S^-1 and the output
    filter B = (L^dag[S])^(-1/2) to sqrt(S): this is the filter's shape,
    free of the absolute scale that makes B itself overflow at long times.
    """
    _, _, q, one_minus_q, r_gamma, r_delta, _ = decay_modes(params, t)
    return _fixed_point(q, one_minus_q, r_gamma, r_delta)[1:3]


def decompose(params: ChannelParams, t: float) -> SinkhornDecomposition:
    """Full normal form of the loss model's map at time t.

    The composed transfer matrix F_A . L . F_B is verified against
    diag(1, lx, ly, lz) to NORMAL_FORM_TOL before returning.
    """
    slow, log_q, q, one_minus_q, r_gamma, r_delta, _ = decay_modes(params, t)
    s, one_plus_s, one_minus_s, eig_h, eig_v = _fixed_point(q, one_minus_q, r_gamma, r_delta)
    eig_h *= slow
    eig_v *= slow
    if eig_h <= PD_MIN_EIG or eig_v <= PD_MIN_EIG:
        raise ValueError(
            f"degenerate filter: image of the fixed point has eigenvalues "
            f"({eig_h:.3e}, {eig_v:.3e})"
        )
    lam_x, lam_y, lam_z = _lambdas(log_q, one_minus_q, r_gamma)

    a_op = np.diag([math.sqrt(one_plus_s), math.sqrt(one_minus_s)]).astype(complex)
    b_op = np.diag([1.0 / math.sqrt(eig_h), 1.0 / math.sqrt(eig_v)]).astype(complex)
    upsilon = compose(sandwich(a_op), compose(ptm_at(params, t), sandwich(b_op)))

    target = np.diag([1.0, lam_x, lam_y, lam_z])
    residual = float(np.max(np.abs(upsilon - target)))
    if residual > NORMAL_FORM_TOL:
        raise RuntimeError(
            f"normal form self-check failed: |upsilon - diag(1, lx, ly, lz)| = {residual:.3e}"
        )
    return SinkhornDecomposition(
        s=s,
        a_op=a_op,
        b_op=b_op,
        lambda_x=lam_x,
        lambda_y=lam_y,
        lambda_z=lam_z,
        upsilon=upsilon,
    )
