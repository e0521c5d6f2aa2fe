"""Acceptance gate: the nine checks this package promises, one line each.

Every test prints a single [PASS]/[FAIL] verdict with the measured numbers
straight to the terminal (capture suspended), then asserts.  Tolerances are
the published contract of the package; do not loosen them here.
"""

import math
import time

import numpy as np

from conftest import random_density, random_pure_density, random_separable, read_csv_columns
from qsink.cli import EXIT_OK, main
from qsink.dynamics import ChannelParams, ptm_at, ptm_via_integration
from qsink.entanglement import (
    PSI_PLUS,
    conditional_state,
    is_entangled,
    max_lifetime,
    negativity,
    optimal_state,
)
from qsink.ptm import compose, sandwich
from qsink.sinkhorn import decompose, fixed_point_iterate

RATE_GRID = (0.0, 0.5, 1.0, 5.0)
TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)
ORACLE_DT = 5e-4
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


def grid_params(require_depolarization: bool = False):
    for gh in RATE_GRID:
        for gv in RATE_GRID:
            for g in RATE_GRID:
                if gh == gv == g == 0.0:
                    continue
                if require_depolarization and g == 0.0:
                    continue
                yield ChannelParams(gh, gv, g)


def test_criterion_1_closed_form_vs_integration(capsys):
    started = time.perf_counter()
    worst, cases = 0.0, 0
    for params in grid_params():
        for t in TIME_GRID:
            dev = float(
                np.max(np.abs(ptm_at(params, t) - ptm_via_integration(params, t, ORACLE_DT)))
            )
            worst = max(worst, dev)
            cases += 1
    elapsed = time.perf_counter() - started
    report(
        capsys,
        1,
        worst <= 1e-8 and elapsed < 30.0,
        f"max |closed form - integration| = {worst:.3e} <= 1e-8 "
        f"over {cases} cases in {elapsed:.2f} s (< 30 s)",
    )


def test_criterion_2_semigroup(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        params = ChannelParams(*rng.uniform(0.0, 3.0, size=3))
        t1, t2 = rng.uniform(0.0, 1.5, size=2)
        dev = float(
            np.max(np.abs(ptm_at(params, t1 + t2) - compose(ptm_at(params, t1), ptm_at(params, t2))))
        )
        worst = max(worst, dev)
    report(capsys, 2, worst <= 1e-10, f"max semigroup defect = {worst:.3e} <= 1e-10 on 100 samples")


def test_criterion_3_normal_form(capsys):
    flat = np.array([1.0, 0.0, 0.0, 0.0])
    worst_s, worst_residual, worst_round_trip = 0.0, 0.0, 0.0
    ordered = True
    cases = 0
    for params in grid_params(require_depolarization=True):
        for t in TIME_GRID:
            dec = decompose(params, t)
            s_iterated = fixed_point_iterate(ptm_at(params, t))
            s_weight = float((s_iterated[0, 0] - s_iterated[1, 1]).real) / 2.0
            worst_s = max(worst_s, abs(dec.s - s_weight))
            worst_residual = max(
                worst_residual,
                float(np.max(np.abs(dec.upsilon[0] - flat))),
                float(np.max(np.abs(dec.upsilon[:, 0] - flat))),
            )
            a_inv = np.diag(1.0 / np.diag(dec.a_op))
            b_inv = np.diag(1.0 / np.diag(dec.b_op))
            rebuilt = compose(sandwich(a_inv), compose(dec.upsilon, sandwich(b_inv)))
            worst_round_trip = max(
                worst_round_trip, float(np.max(np.abs(rebuilt - ptm_at(params, t))))
            )
            # x and z coincide to the last ulp when gh == gv
            ordered = ordered and (
                dec.lambda_x == dec.lambda_y
                and dec.lambda_y >= dec.lambda_z - 1e-12
                and dec.lambda_z >= 0.0
            )
            cases += 1
    ok = worst_s <= 1e-9 and worst_residual <= 1e-9 and worst_round_trip <= 1e-9 and ordered
    report(
        capsys,
        3,
        ok,
        f"closed form vs iteration {worst_s:.3e}, unital/trace residual "
        f"{worst_residual:.3e}, round trip {worst_round_trip:.3e} (all <= 1e-9), "
        f"ordering {'held' if ordered else 'violated'} over {cases} cases",
    )


def test_criterion_4_lifetime_closed_forms(capsys):
    worst_rel = 0.0
    for g in (0.25, 1.0, 2.0):
        result = max_lifetime(ChannelParams(0.0, 0.0, g), ChannelParams(0.0, 0.0, g))
        expected = math.log(3.0) / (2.0 * g)
        worst_rel = max(worst_rel, abs(result.tau - expected) / expected)
    no_lifetime = all(
        max_lifetime(params, params).tau is None
        for params in (ChannelParams(1.0, 5.0, 0.0), ChannelParams(2.0, 0.5, 0.0))
    )
    report(
        capsys,
        4,
        worst_rel <= 1e-9 and no_lifetime,
        f"symmetric depolarization rel err = {worst_rel:.3e} <= 1e-9; "
        f"pure loss reports no finite lifetime: {no_lifetime}",
    )


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

    m_before = ptm_at(REFERENCE, tau * (1.0 - 1e-3))
    survives = is_entangled(conditional_state(m_before, m_before, state.rho)[0])

    m_after = ptm_at(REFERENCE, tau * (1.0 + 1e-3))
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
    m1 = ptm_at(REFERENCE, t)
    m2 = ptm_at(REFERENCE, t)
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
