"""Self-check suites: every closed form is replayed against an independent path.

Used by the command-line `validate` subcommand and by the acceptance gate.
The oracles: RK4 integration at one shared step, ORACLE_DT, fixed-point
iteration, and the residuals decompose() returns with each normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamics import ChannelParams, ptm_at, ptm_via_integration
from .entanglement import max_lifetime
from .sinkhorn import decompose, fixed_point_iterate

RATE_GRID = (0.0, 0.5, 1.0, 5.0)
TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)

# Step size for the integration oracle on the grids; small enough that the
# integrator error sits far below the comparison tolerances.
ORACLE_DT = 5e-4


def iter_params(require_depolarization: bool = False):
    """All rate combinations of the grid, minus the trivial origin."""
    for gh, gv, g in product(RATE_GRID, repeat=3):
        if gh == gv == g == 0.0:
            continue
        if require_depolarization and g == 0.0:
            continue
        yield ChannelParams(gamma_h=gh, gamma_v=gv, gamma=g)


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


def suite_ptm_oracle() -> SuiteResult:
    """Closed-form transfer matrices against RK4 integration."""
    grid = list(iter_params())
    # one stacked oracle call per time; devs[i, j] is line i at TIME_GRID[j]
    devs = np.empty((len(grid), len(TIME_GRID)))
    for j, t in enumerate(TIME_GRID):
        closed = np.stack([ptm_at(params, t) for params in grid])
        devs[:, j] = np.abs(closed - ptm_via_integration(grid, t, ORACLE_DT)).max(axis=(-2, -1))
    # the first largest deviation; argmax stops at a NaN, which then fails the suite
    i, j = np.unravel_index(np.argmax(devs), devs.shape)
    worst, worst_case = float(devs[i, j]), f"{grid[i]}, t={TIME_GRID[j]}"
    return SuiteResult("ptm-vs-integration", worst <= 1e-8, devs.size, worst, worst_case)


def suite_sinkhorn() -> SuiteResult:
    """Normal form: closed-form fixed point, unitality, and round trip."""
    cases = [
        (params, t) for params in iter_params(require_depolarization=True) for t in TIME_GRID
    ]
    iterated = fixed_point_iterate(np.stack([ptm_at(params, t) for params, t in cases]))
    worst, worst_case = 0.0, ""
    for (params, t), s_iter in zip(cases, iterated):
        dec = decompose(params, t)
        devs = [abs(dec.s - 0.5 * (s_iter[0, 0] - s_iter[1, 1]).real), *dec.residuals.values()]
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


def suite_normal_form_predicates() -> SuiteResult:
    """The composed normal form must be trace preserving and unital."""
    cases, bad = 0, ""
    for params in iter_params(require_depolarization=True):
        for t in TIME_GRID:
            residuals = decompose(params, t).residuals
            cases += 1
            if not (residuals["trace_preserving"] <= 1e-9 and residuals["unital"] <= 1e-9):
                bad = f"{params}, t={t}"
    # the family's map is its own dual: its transfer matrix is symmetric
    for params in iter_params():
        m = ptm_at(params, 0.7)
        cases += 1
        if float(np.max(np.abs(m - m.T))) > 1e-12:
            bad = f"dual mismatch at {params}"
    return SuiteResult("normal-form-predicates", not bad, cases, 0.0, bad or "-")


ALL_SUITES = (
    suite_ptm_oracle,
    suite_sinkhorn,
    suite_lifetime,
    suite_normal_form_predicates,
)


def run_all() -> list[SuiteResult]:
    return [suite() for suite in ALL_SUITES]
