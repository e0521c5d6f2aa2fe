"""Self-check suites: every closed form is replayed against an independent path.

Used by the command-line `validate` subcommand and by the acceptance gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamics import ChannelParams, ptm_at, ptm_via_integration
from .entanglement import max_lifetime
from .ptm import compose, dual, is_trace_preserving, is_unital, sandwich
from .sinkhorn import SinkhornDecomposition, decompose, fixed_point_iterate

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
    worst, worst_case = 0.0, ""
    for params, row in zip(grid, devs):
        for t, dev in zip(TIME_GRID, row):
            if dev > worst:
                worst, worst_case = float(dev), f"{params}, t={t}"
    return SuiteResult("ptm-vs-integration", worst <= 1e-8, devs.size, worst, worst_case)


def normal_form_residuals(dec: SinkhornDecomposition, m: np.ndarray) -> dict[str, float]:
    """Residuals of dec as the normal form of the transfer matrix m.

    trace_preserving and unital measure upsilon's first row and column;
    round_trip undoes the filters and compares the result with m.
    """
    flat = np.array([1.0, 0.0, 0.0, 0.0])
    a_inv = np.diag(1.0 / np.diag(dec.a_op))
    b_inv = np.diag(1.0 / np.diag(dec.b_op))
    rebuilt = compose(sandwich(a_inv), compose(dec.upsilon, sandwich(b_inv)))
    return {
        "trace_preserving": float(np.max(np.abs(dec.upsilon[0] - flat))),
        "unital": float(np.max(np.abs(dec.upsilon[:, 0] - flat))),
        "round_trip": float(np.max(np.abs(rebuilt - m))),
    }


def suite_sinkhorn() -> SuiteResult:
    """Normal form: closed-form fixed point, unitality, and round trip."""
    cases = [
        (params, t) for params in iter_params(require_depolarization=True) for t in TIME_GRID
    ]
    maps = np.stack([ptm_at(params, t) for params, t in cases])
    iterated = fixed_point_iterate(maps)
    worst, worst_case = 0.0, ""
    for (params, t), m, s_iter in zip(cases, maps, iterated):
        dec = decompose(params, t)
        devs = [
            abs(dec.s - 0.5 * (s_iter[0, 0] - s_iter[1, 1]).real),
            *normal_form_residuals(dec, m).values(),
        ]
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
    worst, worst_case, cases = 0.0, "", 0
    passed = True
    for g in (0.25, 1.0, 2.0):
        params = ChannelParams(0.0, 0.0, g)
        result = max_lifetime(params, params)
        expected = math.log(3.0) / (2.0 * g)
        cases += 1
        if result.tau is None:
            passed, worst_case = False, f"no root for {params}"
            continue
        dev = abs(result.tau - expected) / expected
        if dev > worst:
            worst, worst_case = dev, f"{params}"
    for gh, gv in ((1.0, 5.0), (2.0, 0.5)):
        params = ChannelParams(gh, gv, 0.0)
        result = max_lifetime(params, params)
        cases += 1
        if result.tau is not None:
            passed, worst_case = False, f"spurious finite lifetime for {params}"
    return SuiteResult("lifetime-closed-forms", passed and worst <= 1e-9, cases, worst, worst_case)


def suite_normal_form_predicates() -> SuiteResult:
    """The composed normal form must be trace preserving and unital."""
    cases, bad = 0, ""
    for params in iter_params(require_depolarization=True):
        for t in TIME_GRID:
            dec = decompose(params, t)
            cases += 1
            if not (is_trace_preserving(dec.upsilon) and is_unital(dec.upsilon)):
                bad = f"{params}, t={t}"
    # dual of the family's map equals itself (symmetric transfer matrix)
    for params in iter_params():
        m = ptm_at(params, 0.7)
        cases += 1
        if float(np.max(np.abs(dual(m) - m))) > 1e-12:
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
