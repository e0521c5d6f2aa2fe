"""Self-check suites: every closed form is replayed against an independent path.

Used by the command-line `validate` subcommand and by the acceptance gate.
The oracles: the exponential of the master equation's generator,
fixed-point iteration, and the self-check residual decompose() returns with
each normal form.  The exponential checks both closed forms of each map:
ptm_at's Pauli sums and the map that evolve and decompose read off the
entry logs (superop_over_slow).
run_all forms the grid's maps and normal forms once, the oracle's in one
call and the entry logs' in another, and each suite is a verdict on the
inputs it is handed.

Every suite reduces to per-case deviations, and one rule (_verdict) turns
them into PASS or FAIL: a suite passes only when every deviation is <= its
tolerance, so a NaN fails.  It reports the largest deviation, or the
largest failing one once any case fails, and names the first case where it
occurs.  A missing or spurious lifetime root, lambdas out of order, and a
normal form that decompose refuses deviate by inf.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import product
from typing import NamedTuple

import numpy as np

from .dynamics import (ChannelParams, entry_logs_over_slow, pauli_transfer, ptm_at,
                       ptm_via_exponential, superop_over_slow)
from .entanglement import max_lifetime
from .linalg import PAULI_INPUTS
from .sinkhorn import SinkhornDecomposition, decompose, fixed_point_iterate

RATE_GRID = (0.0, 0.5, 1.0, 5.0)
TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)
# all rate combinations of the grid, minus the trivial origin
GRID = tuple(
    ChannelParams(gh, gv, g) for gh, gv, g in product(RATE_GRID, repeat=3) if gh or gv or g
)

# the grid time whose oracle maps are checked for duality
DUALITY_T = 0.5


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    max_deviation: float
    worst_case: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: {self.cases} cases, "
            f"max deviation {self.max_deviation:.3e} ({self.worst_case})"
        )


def _verdict(name: str, deviations, tolerances, label: Callable[..., str]) -> SuiteResult:
    """A suite's verdict on its per-case deviations: the one rule every suite follows.

    It passes only when every deviation is <= its tolerance, so a NaN fails.
    It reports the largest deviation, or the largest failing one once any
    case fails (a NaN counts as the largest), and label(*index) names the
    first case where that deviation occurs; only that case's label is formed.
    """
    devs = np.asarray(deviations, dtype=float)
    within = devs <= tolerances
    # argmax takes the first largest entry, and the first NaN before any number
    worst = np.argmax(devs if within.all() else np.where(within, -np.inf, devs))
    index = np.unravel_index(worst, devs.shape)
    return SuiteResult(name, bool(within.all()), devs.size, float(devs[index]), label(*index))


def suite_ptm_oracle(
    closed: np.ndarray, entry_maps: np.ndarray, oracle: np.ndarray
) -> SuiteResult:
    """Both closed-form transfer matrices against the exponential of the generator.

    closed[i, j], entry_maps[i, j] and oracle[i, j] are line GRID[i]'s
    maps at TIME_GRID[j]: ptm_at's, the entry logs' and the oracle's.
    """
    devs = np.maximum(abs(closed - oracle), abs(entry_maps - oracle)).max(axis=(-2, -1))
    return _verdict(
        "ptm-vs-exponential", devs, 1e-8, lambda i, j: f"{GRID[i]}, t={TIME_GRID[j]}"
    )


def suite_sinkhorn(cases: list, closed: np.ndarray, normal_forms: list) -> SuiteResult:
    """Normal form: closed-form fixed point against iteration, and decompose's self-check.

    closed and normal_forms hold each (line, t) case's closed-form map and
    normal form.  A case whose lambdas are out of order deviates by inf.
    """
    iterated = fixed_point_iterate(closed)
    s, self_check, lam_x, lam_y, lam_z = np.array(
        [(dec.s, dec.self_check, dec.lambda_x, dec.lambda_y, dec.lambda_z) for dec in normal_forms]
    ).T
    # lambda_x == lambda_z exactly in exact arithmetic when gh == gv,
    # so the ordering comparison gets one-ulp slack
    ordered = (lam_x == lam_y) & (lam_y >= lam_z - 1e-12) & (lam_z >= 0.0)
    devs = np.maximum(abs(s - 0.5 * (iterated[:, 0, 0] - iterated[:, 1, 1]).real), self_check)
    return _verdict(
        "sinkhorn-normal-form", np.where(ordered, devs, math.inf), 1e-9,
        lambda i: "{}, t={}".format(*cases[i]),
    )


def suite_lifetime() -> SuiteResult:
    """Lifetime roots against the closed form for symmetric depolarization.

    A depolarizing line without a root, or a pure-loss line with one, deviates by inf.
    """
    depolarizing = [ChannelParams(0.0, 0.0, g) for g in (0.25, 1.0, 2.0)]
    lossy = [ChannelParams(gh, gv, 0.0) for gh, gv in ((1.0, 5.0), (2.0, 0.5))]
    devs = []
    for params in depolarizing:
        tau = max_lifetime(params, params).tau
        expected = math.log(3.0) / (2.0 * params.gamma)
        devs.append(math.inf if tau is None else abs(tau - expected) / expected)
    devs += [0.0 if max_lifetime(params, params).tau is None else math.inf for params in lossy]
    return _verdict("lifetime-closed-forms", devs, 1e-9, lambda i: f"{(depolarizing + lossy)[i]}")


def suite_normal_form_predicates(
    cases: list, normal_forms: list, oracle: np.ndarray
) -> SuiteResult:
    """The composed normal form must be trace preserving and unital, and each map its own dual.

    Duality is read off the oracle's maps at DUALITY_T: ptm_at's matrix is
    symmetric by construction, so only the oracle's can fail the check (an
    asymmetric generator is refused before its eigendecomposition).
    """
    # Upsilon = diag(upsilon) is trace preserving and unital exactly when upsilon[0] is 1
    first = np.array([dec.upsilon[0] for dec in normal_forms]) - 1.0
    # the family's map is its own dual: its transfer matrix is symmetric
    duals = oracle[:, TIME_GRID.index(DUALITY_T)]
    asymmetry = duals - duals.swapaxes(-1, -2)
    devs = np.append(abs(first), abs(asymmetry).max(axis=(-2, -1)))
    return _verdict(
        "normal-form-predicates", devs, np.repeat((1e-9, 1e-12), (len(cases), len(GRID))),
        lambda i: "{}, t={}".format(*cases[i]) if i < len(cases)
        else f"dual mismatch at {GRID[i - len(cases)]}, t={DUALITY_T}",
    )


# what a case whose normal form decompose refuses stands for: every value it
# would give deviates by inf, so both suites that read normal forms fail on it
_REFUSED = SinkhornDecomposition(
    s=math.inf, a_diag=(math.inf, math.inf), log_b_scale=math.inf, lambda_x=math.inf,
    lambda_y=math.inf, lambda_z=math.inf, upsilon=(math.inf,) * 4, self_check=math.inf,
)


def _normal_form(params: ChannelParams, t: float) -> SinkhornDecomposition:
    """decompose's normal form, or _REFUSED where it raises: a failed self-check, a degenerate B."""
    try:
        return decompose(params, t)
    except (RuntimeError, ValueError):
        return _REFUSED


def run_all() -> list[SuiteResult]:
    """Every suite's verdict, on maps and normal forms that are each formed once."""
    closed = np.array([[ptm_at(params, t) for t in TIME_GRID] for params in GRID])
    # every (line, t) row's map over its slow mode in one call, scaled back and put on the
    # Pauli basis at once
    slows, logs = (np.concatenate(columns) for columns in
                   zip(*(entry_logs_over_slow(params, TIME_GRID) for params in GRID)))
    entry_maps = pauli_transfer((slows[:, None, None] * superop_over_slow(logs)) @ PAULI_INPUTS)
    entry_maps = entry_maps.reshape(closed.shape)
    oracle = ptm_via_exponential(GRID, TIME_GRID)
    # the normal form is checked on the depolarizing lines alone
    depolarizing = [i for i, params in enumerate(GRID) if params.gamma > 0.0]
    cases = [(GRID[i], t) for i in depolarizing for t in TIME_GRID]
    normal_forms = [_normal_form(params, t) for params, t in cases]
    return [
        suite_ptm_oracle(closed, entry_maps, oracle),
        suite_sinkhorn(cases, closed[depolarizing].reshape(-1, 4, 4), normal_forms),
        suite_lifetime(),
        suite_normal_form_predicates(cases, normal_forms, oracle),
    ]
