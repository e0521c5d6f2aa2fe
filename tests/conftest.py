"""Shared oracles and random-input helpers.

The oracles here deliberately take a different route from the package: maps
are lifted to explicit superoperator matrices acting on row-major vec'd
states, so the package's Pauli-coefficient contractions get checked against
plain matrix multiplication in a different representation.
"""

from __future__ import annotations

import contextlib
import decimal
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qsink
from qsink import entanglement
from qsink.dynamics import (
    ChannelParams,
    _entry_logs,
    _log,
    _log_add,
    _mode_ratio,
    decay_modes,
    entry_logs_over_slow,
    ptm_at,
    superop_over_slow,
)
from qsink.entanglement import negativity
from qsink.linalg import PD_MIN_EIG, PSD_TOL, SIGMA, hermitian_part
from qsink.sinkhorn import NORMAL_FORM_TOL, unital_lambdas

# hypothesis's pytest plugin imports this module when a property fails.
# The libcst it loads warns (mypy_extensions.TypedDict is deprecated), and
# under filterwarnings = ["error"] that warning ends the run in an
# INTERNALERROR without the falsifying example.  Imported here once, with
# the warning ignored, it is already loaded then.  Without libcst the
# plugin skips the import, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_SIG = np.stack(SIGMA)

# the maximally entangled pair (|HH> + |VV>) / sqrt(2)
PSI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)

# Negativity above this counts as entangled.
ENTANGLEMENT_TOL = 1e-10
_FLAT_TOL = 1e-9  # tolerance for the trace-preserving / unital row and column


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


def vec(op: np.ndarray) -> np.ndarray:
    return np.asarray(op, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int = 2) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim)


def ptm_to_superop(m: np.ndarray) -> np.ndarray:
    """Lift a transfer matrix to the 4x4 superoperator on vec'd 2x2 operators."""
    m = np.asarray(m, dtype=float)
    sup = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            # tr[sigma_j rho] = vec(sigma_j^T) . vec(rho)
            sup += 0.5 * m[i, j] * np.outer(vec(SIGMA[i]), vec(SIGMA[j].T))
    return sup


def apply(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply the map with transfer matrix m to a Hermitian 2x2 operator.

    Either may also be a stack, (..., 4, 4) maps or (..., 2, 2) operators;
    the stacks broadcast against each other and the result is one operator
    per pair.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 transfer matrix, got shape {m.shape}")
    rho = hermitian_part(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho.shape}")
    coeffs = np.einsum("kab,...ba->...k", _SIG, rho)
    return 0.5 * np.einsum("...k,kab->...ab", (m @ coeffs[..., None])[..., 0], _SIG)


def sandwich(x: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> x rho x^dag for an arbitrary 2x2 operator x.

    The general contraction m[i, j] = tr[sigma_i x sigma_j x^dag] / 2; the
    package forms its diagonal filters on the matrix units instead
    (sinkhorn.decompose).
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {x.shape}")
    m = 0.5 * np.einsum("iab,bc,jcd,ad->ij", _SIG, x, _SIG, x.conj())
    return np.ascontiguousarray(m.real)


def identity_ptm() -> np.ndarray:
    return np.eye(4)


def choi(m: np.ndarray) -> np.ndarray:
    """Choi operator sum_ij |i><j| (x) L[|i><j|], trace 2 for trace-preserving L."""
    # superop[(a b), (i j)] = L[|i><j|][a, b]; the Choi entry [(i a), (j b)] is
    # the same number, so the Choi operator is a reshuffle of the superoperator
    sup = ptm_to_superop(m).reshape(2, 2, 2, 2)
    return sup.transpose(2, 0, 3, 1).reshape(4, 4)


def is_cp(m: np.ndarray) -> bool:
    """Complete positivity: the Choi operator is PSD up to PSD_TOL."""
    return float(np.linalg.eigvalsh(choi(m))[0]) >= -PSD_TOL


def dual(m: np.ndarray) -> np.ndarray:
    """Transfer matrix of the adjoint map (transpose in the Pauli basis)."""
    return np.asarray(m, dtype=float).T.copy()


def is_trace_preserving(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m[0] - np.array([1.0, 0, 0, 0])))) <= _FLAT_TOL


def is_unital(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m[:, 0] - np.array([1.0, 0, 0, 0])))) <= _FLAT_TOL


def is_trace_nonincreasing(m: np.ndarray) -> bool:
    """Whether identity minus the adjoint image of the identity is PSD."""
    eye = np.eye(2, dtype=complex)
    gap = eye - unvec(ptm_to_superop(np.transpose(m)) @ vec(eye))
    return float(np.linalg.eigvalsh(gap)[0]) >= -PSD_TOL


def detection_probability(m: np.ndarray, rho: np.ndarray) -> float:
    """Probability that a photon in state rho survives the map m."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"state must have unit trace, got {np.trace(rho)!r}")
    if float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]) < -1e-9:
        raise ValueError("state must be positive semidefinite")
    return float(np.trace(unvec(ptm_to_superop(m) @ vec(rho))).real)


def is_entangled(rho: np.ndarray) -> bool:
    return negativity(rho) > ENTANGLEMENT_TOL


def two_qubit_superop(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """16x16 superoperator of the product map on vec'd 4x4 operators."""
    t1 = ptm_to_superop(m1).reshape(2, 2, 2, 2)
    t2 = ptm_to_superop(m2).reshape(2, 2, 2, 2)
    # row index (a c b d) <-> output entry [(a,c),(b,d)], column likewise
    return np.einsum("abij,cdkl->acbdikjl", t1, t2).reshape(16, 16)


def apply_two_qubit_oracle(
    m1: np.ndarray, m2: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    return unvec(two_qubit_superop(m1, m2) @ vec(rho), 4)


def random_hermitian(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_separable(rng: np.random.Generator, terms: int = 4) -> np.ndarray:
    """Random convex mixture of product states, separable by construction."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        rho += w * np.kron(random_density(rng, 2), random_density(rng, 2))
    return rho


def random_pd(
    rng: np.random.Generator, dim: int = 2, log_condition: float = 3.0
) -> np.ndarray:
    """Random positive definite matrix with condition number 10**log_condition."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return (q * 10.0 ** np.linspace(0.0, -log_condition, dim)) @ q.conj().T


def plain_bisection(
    params1: ChannelParams, params2: ChannelParams
) -> tuple[float | None, tuple[float, float], float, int]:
    """(tau, bracket, residual, g evaluations) of the root search without skips.

    The doubling and bisection that max_lifetime settles without evaluating
    every midpoint, here evaluating every one: max_lifetime must return the
    same tau, bracket and residual to the bit.  g goes through the module's
    lifetime_lhs, as in max_lifetime.
    """
    lifetime_lhs = entanglement.lifetime_lhs
    tol_residual, tol_interval = 1e-10, 1e-12
    # the doubling starts at 1 / (sum of the depolarizing lines' rates)
    depolarizing = [params for params in (params1, params2) if params.gamma > 0.0]
    if not depolarizing:
        return None, (0.0, math.inf), 2.0, 0
    t_max = sys.float_info.max
    total = sum(params.total_rate for params in depolarizing)
    if total == math.inf:
        total = max(params.max_rate for params in depolarizing)
    t_start = 1.0 / total

    low, high = 0.0, min(t_start, t_max)
    g_high = lifetime_lhs(params1, params2, high)
    evals = 1
    while g_high >= 0.0:
        if high >= t_max:
            return None, (low, high), g_high, evals
        low = high
        high = min(2.0 * high, t_max)
        g_high = lifetime_lhs(params1, params2, high)
        evals += 1

    def midpoint(low: float, high: float) -> float:
        # halved before the sum only where the sum overflows, which keeps
        # the bits of subnormal brackets
        return 0.5 * (low + high) if low + high < math.inf else 0.5 * low + 0.5 * high

    tau = None
    residual = math.nan
    while high - low > tol_interval * min(high, 1.0):
        mid = midpoint(low, high)
        g_mid = lifetime_lhs(params1, params2, mid)
        evals += 1
        if abs(g_mid) <= tol_residual:
            tau, residual = mid, g_mid
            break
        if g_mid > 0.0:
            low = mid
        else:
            high = mid
    if tau is None:
        tau = midpoint(low, high)
        residual = lifetime_lhs(params1, params2, tau)
        evals += 1
    return tau, (low, high), residual, evals


def width_fixed_point(
    log_q: float,
    q: float,
    one_minus_q: float,
    r_gamma: float,
    r_delta: float,
    log_r_gamma: float,
) -> tuple[float, float, float, float, float]:
    """(s, log(1 + s), log(1 - s), log eig_h, log eig_v) from the decay modes.

    The fixed point by its width and denominator: with half_gap = (g/G)(1 - q)/2
    and width = sqrt(q + half_gap^2), s = r_delta (1 - q) / (1 + q + 2 width)
    and 1 -+ s = 2 (lower or upper + width) / (1 + q + 2 width), each a sum
    of positive terms taken in logs, as are the eigenvalues
    (1 + s) lower + (1 - s) half_gap and (1 - s) upper + (1 + s) half_gap of
    L^dag[S] over the slow mode.  sinkhorn reads the same quantities off
    the map's entries through exact identities instead.
    """
    ln2 = math.log(2.0)
    half_gap = 0.5 * r_gamma * one_minus_q
    width = math.sqrt(q + half_gap * half_gap)
    denom = 1.0 + q + 2.0 * width
    s = r_delta * one_minus_q / denom
    log_half_gap = log_r_gamma + _log(one_minus_q) - ln2
    log_width = 0.5 * _log_add(log_q, 2.0 * log_half_gap)
    log_larger = math.log1p(abs(r_delta))
    log_smaller = 2.0 * log_r_gamma - log_larger
    log_plus_delta, log_minus_delta = (
        (log_larger, log_smaller) if r_delta >= 0.0 else (log_smaller, log_larger)
    )
    log_upper = _log_add(log_plus_delta, log_q + log_minus_delta) - ln2
    log_lower = _log_add(log_minus_delta, log_q + log_plus_delta) - ln2
    log_denom = math.log(denom)
    log_plus_s = ln2 + _log_add(log_upper, log_width) - log_denom
    log_minus_s = ln2 + _log_add(log_lower, log_width) - log_denom
    log_eig_h = _log_add(log_plus_s + log_lower, log_minus_s + log_half_gap)
    log_eig_v = _log_add(log_minus_s + log_upper, log_plus_s + log_half_gap)
    return s, log_plus_s, log_minus_s, log_eig_h, log_eig_v


def entry_logs_at(params: ChannelParams, t: float) -> tuple[float, float, float, float]:
    """dynamics._entry_logs at time t: (log H, log V, log h, log c) over the slow mode."""
    return _entry_logs(params, *_mode_ratio(params, t))


def map_over_slow(params: ChannelParams, t: float) -> np.ndarray:
    """One line's 4x4 map over its slow mode at t: row 0 of the one-time superop_over_slow."""
    return superop_over_slow(entry_logs_over_slow(params, [t])[1])[0]


def decimal_fixed_point(params: ChannelParams, t: float) -> tuple:
    """width_fixed_point's formula and the map's entries at 60 digits.

    Returns (s, fixed, entries): fixed holds (log(1 + s), log(1 - s),
    log w), w = width + half_gap = sqrt(H V) + h, and entries holds the
    logs (log H, log V, log h, log c) of the map's entries over its slow
    mode, H = lower, V = upper, h = half_gap and c = q^((1 + g/G) / 2).
    The eigenvalues of L^dag[S] over the slow mode are (1 -+ s) w.  The
    line's ratios g/G and (gh - gv)/G and the time's log q are taken as
    exact, so the reference and the package share their inputs; where g/G
    is below the normal doubles, it is taken as the exponential of the
    line's log(g/G), which keeps its digits there.  1 - q is summed as a
    series where q is within 1e-6 of 1.  Every quantity is a sum of positive terms, so 60
    digits hold wherever it lies in the decimal exponent range; the
    entries are summed in logs, so they hold for every log q.  A log is
    -Infinity where its quantity is 0.
    """
    log_q = _mode_ratio(params, t)[0]
    _, _, r_gamma, r_delta, log_r_gamma, _, _ = params.decay_rates
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        minus_inf = D("-Infinity")

        def ln(x):
            return x.ln() if x > 0 else minus_inf

        def ln_add(a, b):
            high, low = max(a, b), min(a, b)
            return high if low == minus_inf else high + (1 + (low - high).exp()).ln()

        x = D(log_q)
        q = x.exp()
        one_minus_q = -(x + x * x / 2 + x**3 / 6 + x**4 / 24) if abs(x) < D("1e-6") else 1 - q
        if r_gamma < sys.float_info.min and log_r_gamma > -math.inf:
            r_gamma = D(log_r_gamma).exp()
        r_gamma, r_delta = D(r_gamma), D(r_delta)
        larger = 1 + abs(r_delta)
        smaller = r_gamma * r_gamma / larger
        plus_delta, minus_delta = (larger, smaller) if r_delta >= 0 else (smaller, larger)
        upper = (plus_delta + q * minus_delta) / 2
        lower = (minus_delta + q * plus_delta) / 2
        half_gap = r_gamma * one_minus_q / 2
        width = (q + half_gap * half_gap).sqrt()
        denom = 1 + q + 2 * width
        plus_s = 2 * (upper + width) / denom
        minus_s = 2 * (lower + width) / denom
        log_plus_half, log_minus_half = ln(plus_delta / 2), ln(minus_delta / 2)
        return (
            r_delta * one_minus_q / denom,
            tuple(ln(value) for value in (plus_s, minus_s, width + half_gap)),
            (
                ln_add(log_minus_half, x + log_plus_half),
                ln_add(log_plus_half, x + log_minus_half),
                ln(half_gap),
                x * (1 + r_gamma) / 2,
            ),
        )


def decimal_lambdas(params: ChannelParams, t: float) -> tuple:
    """(lx, lz) of unital_lambdas at 60 digits, from the rates and t taken as exact.

    A = asinh((g/G) sinh(G t / 2)), with asinh y = ln(y + sqrt(y^2 + 1)),
    lx = exp(-g t / 2 - A) and lz = exp(-2 A).  A line needs g > 0, and
    G t / 2 within decimal's exponent range, where exp cannot overflow:
    rates and t on [1e-3, 1e3] keep it below 1e6.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        gamma_h, gamma_v, gamma, t = (decimal.Decimal(x) for x in (*params, t))
        big_g = (gamma * gamma + (gamma_h - gamma_v) ** 2).sqrt()
        x = big_g * t / 2
        y = gamma / big_g * (x.exp() - (-x).exp()) / 2
        big_a = (y + (y * y + 1).sqrt()).ln()
        return (-gamma * t / 2 - big_a).exp(), (-2 * big_a).exp()


def einsum_decompose(params: ChannelParams, t: float) -> dict:
    """decompose's normal form on the Pauli route: filters by the general sandwich.

    The route decompose took before it worked on the matrix units, kept
    step for step: the fixed point by its width and denominator
    (width_fixed_point), every filter's transfer matrix by the general
    sandwich, upsilon as their product with the transfer matrix, and the
    checks decompose made then: the output filter's eigenvalues against
    the absolute PD_MIN_EIG, which refuses filters whose log scale
    decompose accepts, and the self-check.  Each filter mixes the identity
    with sigma_z there, so upsilon's entries cancel where the filters are
    very unequal, and the self-check may fail where decompose's does not.
    Returns s, the filters, upsilon and the residuals.
    """
    slow, log_q, one_minus_q = decay_modes(params, t)
    _, _, r_gamma, r_delta, log_r_gamma, _, _ = params.decay_rates
    s, log_plus_s, log_minus_s, log_eig_h, log_eig_v = width_fixed_point(
        log_q, math.exp(log_q), one_minus_q, r_gamma, r_delta, log_r_gamma
    )
    eig_h = slow * math.exp(log_eig_h)
    eig_v = slow * math.exp(log_eig_v)
    if not (eig_h > PD_MIN_EIG and eig_v > PD_MIN_EIG):
        raise ValueError(
            f"degenerate filter: image of the fixed point has eigenvalues "
            f"({eig_h:.3e}, {eig_v:.3e})"
        )
    lam_x, lam_y, lam_z = unital_lambdas(params, t)

    a_op = np.diag([math.sqrt(math.exp(log_plus_s)), math.sqrt(math.exp(log_minus_s))]).astype(
        complex
    )
    b_op = np.diag([1.0 / math.sqrt(eig_h), 1.0 / math.sqrt(eig_v)]).astype(complex)
    m = ptm_at(params, t)
    upsilon = sandwich(a_op) @ (m @ sandwich(b_op))

    target = np.diag([1.0, lam_x, lam_y, lam_z])
    residual = float(np.max(np.abs(upsilon - target)))
    if not residual <= NORMAL_FORM_TOL:
        raise RuntimeError(
            f"normal form self-check failed: |upsilon - diag(1, lx, ly, lz)| = {residual:.3e}"
        )
    flat = np.array([1.0, 0.0, 0.0, 0.0])
    a_inv, b_inv = (sandwich(np.diag(1.0 / np.diag(x))) for x in (a_op, b_op))
    return {
        "s": s,
        "a_op": a_op,
        "b_op": b_op,
        "upsilon": upsilon,
        "residuals": {
            "trace_preserving": float(np.max(np.abs(upsilon[0] - flat))),
            "unital": float(np.max(np.abs(upsilon[:, 0] - flat))),
            "round_trip": float(np.max(np.abs(a_inv @ (upsilon @ b_inv) - m))),
            "self_check": residual,
        },
    }


def read_csv_columns(text: str) -> dict[str, list[float]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {h: [] for h in header}
    for line in lines[1:]:
        for name, value in zip(header, line.split(",")):
            cols[name].append(float(value))
    return cols


def subprocess_env(**extra: str) -> dict[str, str]:
    """os.environ with this tree's qsink on PYTHONPATH, and extra, for a child interpreter.

    pytest's own pythonpath setting reaches only the pytest process; a
    child started with sys.executable imports qsink through this.
    """
    src = str(Path(qsink.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src, **extra}
