"""Self-check suites: every closed form is replayed against an independent path.

Used by the command-line `validate` subcommand and by the acceptance gate.
The oracles: RK4 integration at one shared step, ORACLE_DT, fixed-point
iteration, and the self-check residual decompose() returns with each normal form.
RK4 checks both closed forms of each map: ptm_at's Pauli sums and the map
that evolve and decompose read off the entry logs (superop_over_slow).
run_all forms the grid's maps and normal forms once, and each suite is a
verdict on the inputs it is handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamics import (
    PAULI_INPUTS,
    ChannelParams,
    pauli_transfer,
    ptm_at,
    ptm_via_integration,
    superop_over_slow,
)
from .entanglement import max_lifetime
from .sinkhorn import decompose, fixed_point_iterate

RATE_GRID = (0.0, 0.5, 1.0, 5.0)
TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)
# all rate combinations of the grid, minus the trivial origin
GRID = tuple(
    ChannelParams(gh, gv, g) for gh, gv, g in product(RATE_GRID, repeat=3) if gh or gv or g
)

# Step size for the integration oracle on the grids; small enough that the
# integrator error sits far below the comparison tolerances.
ORACLE_DT = 5e-4
# the grid time whose integrated maps are checked for duality
DUALITY_T = 0.5


@dataclass(frozen=True)
class SuiteResult:
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


def suite_ptm_oracle(
    closed: np.ndarray, entry_maps: np.ndarray, integrated: np.ndarray
) -> SuiteResult:
    """Both closed-form transfer matrices against RK4 integration.

    closed[i, j], entry_maps[i, j] and integrated[i, j] are line GRID[i]'s
    maps at TIME_GRID[j]: ptm_at's, the entry logs' and the oracle's.
    """
    devs = np.maximum(abs(closed - integrated), abs(entry_maps - integrated)).max(axis=(-2, -1))
    # the first largest deviation; argmax stops at a NaN, which then fails the suite
    i, j = np.unravel_index(np.argmax(devs), devs.shape)
    worst, worst_case = float(devs[i, j]), f"{GRID[i]}, t={TIME_GRID[j]}"
    return SuiteResult("ptm-vs-integration", worst <= 1e-8, devs.size, worst, worst_case)


def suite_sinkhorn(cases: list, closed: np.ndarray, normal_forms: list) -> SuiteResult:
    """Normal form: closed-form fixed point against iteration, and decompose's self-check.

    closed and normal_forms hold each (line, t) case's closed-form map and normal form.
    """
    iterated = fixed_point_iterate(closed)
    worst, worst_case = 0.0, ""
    for (params, t), dec, s_iter in zip(cases, normal_forms, iterated, strict=True):
        devs = [abs(dec.s - 0.5 * (s_iter[0, 0] - s_iter[1, 1]).real), dec.self_check]
        # lambda_x == lambda_z exactly in exact arithmetic when gh == gv,
        # so the ordering comparison gets one-ulp slack
        ordered = (
            dec.lambda_x == dec.lambda_y
            and dec.lambda_y >= dec.lambda_z - 1e-12
            and dec.lambda_z >= 0.0
        )
        dev = max(devs) if ordered else math.inf
        if dev > worst:
            worst, worst_case = dev, f"{params}, t={t}"
    return SuiteResult("sinkhorn-normal-form", worst <= 1e-9, len(cases), worst, worst_case)


def suite_lifetime() -> SuiteResult:
    """Lifetime roots against the closed form for symmetric depolarization."""
    depolarizing = [ChannelParams(0.0, 0.0, g) for g in (0.25, 1.0, 2.0)]
    lossy = [ChannelParams(gh, gv, 0.0) for gh, gv in ((1.0, 5.0), (2.0, 0.5))]
    worst, worst_case, passed = 0.0, "", True
    for params in depolarizing:
        tau = max_lifetime(params, params).tau
        expected = math.log(3.0) / (2.0 * params.gamma)
        if tau is None:
            passed, worst_case = False, f"no root for {params}"
        elif abs(tau - expected) / expected > worst:
            worst, worst_case = abs(tau - expected) / expected, f"{params}"
    for params in lossy:
        if max_lifetime(params, params).tau is not None:
            passed, worst_case = False, f"spurious finite lifetime for {params}"
    cases = len(depolarizing) + len(lossy)
    return SuiteResult("lifetime-closed-forms", passed and worst <= 1e-9, cases, worst, worst_case)


def suite_normal_form_predicates(
    cases: list, normal_forms: list, integrated: np.ndarray
) -> SuiteResult:
    """The composed normal form must be trace preserving and unital, and each map its own dual.

    Duality is read off the integrated maps at DUALITY_T: ptm_at's matrix
    is symmetric by construction, so only the oracle's can fail the check.
    The deviation is the largest of either check, and the largest of a
    failing one once any fails, each named where it occurs.
    """
    checks = []  # (deviation, tolerance, case)
    for (params, t), dec in zip(cases, normal_forms, strict=True):
        # Upsilon's first row (trace preserving) and column (unital) against (1, 0, 0, 0)
        edges = np.stack((dec.upsilon[0], dec.upsilon[:, 0]))
        checks.append((abs(edges - (1.0, 0.0, 0.0, 0.0)).max(), 1e-9, f"{params}, t={t}"))
    # the family's map is its own dual: its transfer matrix is symmetric
    for params, m in zip(GRID, integrated[:, TIME_GRID.index(DUALITY_T)], strict=True):
        checks.append((abs(m - m.T).max(), 1e-12, f"dual mismatch at {params}, t={DUALITY_T}"))
    failed = [check for check in checks if not check[0] <= check[1]]
    worst, _, worst_case = max(failed or checks, key=lambda check: check[0])
    return SuiteResult("normal-form-predicates", not failed, len(checks), float(worst), worst_case)


def run_all() -> list[SuiteResult]:
    """Every suite's verdict, on maps and normal forms that are each formed once."""
    closed = np.array([[ptm_at(params, t) for t in TIME_GRID] for params in GRID])
    # each line's maps over their slow modes, scaled back and put on the Pauli basis at once
    over_slow = [superop_over_slow(params, TIME_GRID) for params in GRID]
    entry_maps = np.array([slows[:, None, None] * maps for slows, maps in over_slow])
    entry_maps = pauli_transfer(entry_maps @ PAULI_INPUTS)
    integrated = np.stack([ptm_via_integration(GRID, t, ORACLE_DT) for t in TIME_GRID], axis=1)
    # the normal form is checked on the depolarizing lines alone
    depolarizing = [i for i, params in enumerate(GRID) if params.gamma > 0.0]
    cases = [(GRID[i], t) for i in depolarizing for t in TIME_GRID]
    normal_forms = [decompose(params, t) for params, t in cases]
    return [
        suite_ptm_oracle(closed, entry_maps, integrated),
        suite_sinkhorn(cases, closed[depolarizing].reshape(-1, 4, 4), normal_forms),
        suite_lifetime(),
        suite_normal_form_predicates(cases, normal_forms, integrated),
    ]
