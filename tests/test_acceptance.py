"""Acceptance gate: the nine checks this package promises, one line each.

Every test prints a single [PASS]/[FAIL] verdict with the measured numbers
straight to the terminal (capture suspended), then asserts.  Tolerances are
the published contract of the package; do not loosen them here.
"""

import time

import numpy as np
import pytest

from conftest import (
    PSI_PLUS,
    is_entangled,
    map_over_slow,
    random_density,
    random_pure_density,
    random_separable,
    read_csv_columns,
)
from qsink.cli import EXIT_OK, main
from qsink.dynamics import ChannelParams, ptm_at
from qsink.entanglement import (
    conditional_state,
    max_lifetime,
    negativity,
    optimal_state,
)
from qsink.validate import SuiteResult, run_all

SEED = 20260822

REFERENCE = ChannelParams(1.0, 5.0, 1.0)
REFERENCE_ARGS = [
    "--gh1", "1", "--gv1", "5", "--g1", "1",
    "--gh2", "1", "--gv2", "5", "--g2", "1",
]
RHO_PSI_PLUS = np.outer(PSI_PLUS, PSI_PLUS.conj())


def report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{verdict}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def replay() -> tuple[dict[str, SuiteResult], float]:
    """Every replay suite's result, by name, from one run_all(), and its time."""
    started = time.perf_counter()
    results = {result.name: result for result in run_all()}
    return results, time.perf_counter() - started


def check_suite(result: SuiteResult, tol: float, cases: int) -> tuple[bool, str]:
    """A replay suite passes here only on its own verdict, this gate's
    tolerance and the full case count."""
    ok = result.passed and result.max_deviation <= tol and result.cases == cases
    detail = (
        f"{result.name} max deviation {result.max_deviation:.3e} <= {tol:.0e} over "
        f"{result.cases} cases ({cases} expected), worst at {result.worst_case or '-'}"
    )
    return ok, detail


def test_criterion_1_closed_form_vs_integration(capsys, replay):
    # closed-form transfer matrices against the exponential of the master
    # equation's generator; the time is the whole replay's, every suite's
    # inputs included
    results, elapsed = replay
    ok, detail = check_suite(results["ptm-vs-exponential"], 1e-8, 315)
    report(capsys, 1, ok and elapsed < 30.0, f"{detail}, in {elapsed:.2f} s (< 30 s)")


def test_criterion_2_semigroup(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        params = ChannelParams(*rng.uniform(0.0, 3.0, size=3))
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        dev = float(
            np.max(np.abs(ptm_at(params, t1 + t2) - ptm_at(params, t1) @ ptm_at(params, t2)))
        )
        worst = max(worst, dev)
    report(capsys, 2, worst <= 1e-10, f"max semigroup defect = {worst:.3e} <= 1e-10 on 100 samples")


def test_criterion_3_normal_form(capsys, replay):
    # closed-form fixed point against iteration, the trace, unital and
    # self-check residuals decompose returns, and signal-parameter ordering
    report(capsys, 3, *check_suite(replay[0]["sinkhorn-normal-form"], 1e-9, 240))


def test_criterion_4_lifetime_closed_forms(capsys, replay):
    # symmetric-depolarization roots against ln(3)/(2 gamma); pure-loss lines
    # must report no finite lifetime
    report(capsys, 4, *check_suite(replay[0]["lifetime-closed-forms"], 1e-9, 5))


def test_criterion_5_crossing_window_early(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["evolve", *REFERENCE_ARGS, "--steps", "2000", "--out", str(out)])
    assert code == EXIT_OK
    cols = read_csv_columns(out.read_text())
    n_psi = np.array(cols["negativity_psi_plus"])
    n_opt = np.array(cols["negativity_optimal"])
    above = n_opt > n_psi
    crossing = int(np.argmax(above)) if bool(above.any()) else -1
    stays_above = crossing > 0 and bool(np.all(n_opt[crossing:] >= n_psi[crossing:] - 1e-12))
    window = (n_psi <= 1e-12) & (n_opt > 1e-6)
    early_strict = crossing > 0 and bool(np.all(n_psi[:crossing] > n_opt[:crossing]))
    ok = stays_above and bool(window.any()) and early_strict
    report(
        capsys,
        5,
        ok,
        f"crossing at grid index {crossing}/2000, optimal stays above: {stays_above}; "
        f"window with dead pair but optimal > 1e-6: {int(window.sum())} points; "
        f"early strict dominance of the pair: {early_strict}",
    )


def test_criterion_6_optimality(capsys):
    rng = np.random.default_rng(SEED)
    tau = max_lifetime(REFERENCE, REFERENCE).tau
    state = optimal_state(REFERENCE, REFERENCE, tau)

    m_before = map_over_slow(REFERENCE, tau * (1.0 - 1e-3))
    rho_opt = np.outer(state.psi, np.conj(state.psi))
    survives = is_entangled(conditional_state(m_before, m_before, rho_opt)[0])

    m_after = map_over_slow(REFERENCE, tau * (1.0 + 1e-3))
    false_survivors = 0
    for k in range(200):
        rho = random_pure_density(rng, 4) if k < 150 else random_density(rng, 4)
        if is_entangled(conditional_state(m_after, m_after, rho)[0]):
            false_survivors += 1
    report(
        capsys,
        6,
        survives and false_survivors == 0,
        f"optimal state entangled at tau*(1-1e-3): {survives}; "
        f"survivors past tau among 200 random states: {false_survivors}",
    )


def test_criterion_7_negativity_values(capsys):
    dev_pair = abs(negativity(RHO_PSI_PLUS) - 0.5)
    werner = 0.5 * RHO_PSI_PLUS + 0.5 * np.eye(4, dtype=complex) / 4.0
    dev_werner = abs(negativity(werner) - 0.125)
    rng = np.random.default_rng(SEED)
    false_positives = sum(
        1 for _ in range(1000) if negativity(random_separable(rng)) > 1e-10
    )
    ok = dev_pair <= 1e-12 and dev_werner <= 1e-10 and false_positives == 0
    report(
        capsys,
        7,
        ok,
        f"maximally entangled dev = {dev_pair:.3e} <= 1e-12, half-half mixture dev = "
        f"{dev_werner:.3e} <= 1e-10, false positives on 1000 separable states: {false_positives}",
    )


def test_criterion_8_postselection_invariance(capsys):
    t = 0.3
    m1 = map_over_slow(REFERENCE, t)
    m2 = map_over_slow(REFERENCE, t)
    base = negativity(conditional_state(m1, m2, RHO_PSI_PLUS)[0])
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        one = negativity(conditional_state(p * m1, m2, RHO_PSI_PLUS)[0])
        both = negativity(conditional_state(p * m1, p * m2, RHO_PSI_PLUS)[0])
        worst = max(worst, abs(one - base), abs(both - base))
    report(capsys, 8, worst <= 1e-12, f"max negativity shift under rescaling = {worst:.3e} <= 1e-12")


def test_criterion_9_determinism(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["evolve", *REFERENCE_ARGS, "--steps", "400"]
    assert main([*argv, "--out", str(first)]) == EXIT_OK
    assert main([*argv, "--out", str(second)]) == EXIT_OK
    identical = first.read_bytes() == second.read_bytes()
    report(capsys, 9, identical, f"two identical runs byte-identical: {identical}")
