"""End-to-end checks of the command-line interface via main(argv)."""

import contextlib
import io
import json
import math
import re
import warnings

import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_csv_columns, subprocess_env
from qsink import cli, validate
from qsink.cli import EXIT_NO_LIFETIME, EXIT_OK, EXIT_USAGE, main
from qsink.dynamics import ChannelParams
from qsink.validate import SuiteResult

REFERENCE_ARGS = [
    "--gh1", "1", "--gv1", "5", "--g1", "1",
    "--gh2", "1", "--gv2", "5", "--g2", "1",
]
REFERENCE_TAU = 0.4947890675227557

# a mixed state with every density-matrix entry populated (not an X-state)
NON_X_STATE = [
    [0.4, 0.0], [0.05, 0.02], [0.03, -0.01], [0.2, 0.1],
    [0.05, -0.02], [0.15, 0.0], [0.02, 0.0], [0.01, 0.03],
    [0.03, 0.01], [0.02, 0.0], [0.15, 0.0], [-0.02, 0.01],
    [0.2, -0.1], [0.01, -0.03], [-0.02, -0.01], [0.3, 0.0],
]

# sinkhorn reads line 1 at one --t: these are no flags of it
SINKHORN_UNREAD = ("--gh2", "--gv2", "--g2", "--t-max")

EVOLVE_HEADER = (
    "t,negativity_psi_plus,negativity_optimal,"
    "detection_prob_psi_plus,detection_prob_optimal"
)


def run(capsys, argv):
    # a usage error leaves main through argparse's SystemExit
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------


def test_lifetime_json(capsys):
    code, out, _ = run(capsys, ["lifetime", "--g1", "1", "--g2", "1", "--format", "json"])
    assert code == EXIT_OK
    record = json.loads(out)
    expected = math.log(3.0) / 2.0
    assert abs(record["tau"] - expected) / expected <= 1e-9
    assert abs(record["residual"]) <= 1e-10
    assert record["lambdas"]["line1"] == record["lambdas"]["line2"]


def test_lifetime_csv(capsys):
    code, out, _ = run(capsys, ["lifetime", *REFERENCE_ARGS])
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    assert list(cols) == [
        "tau", "residual", "iterations",
        "lambda1_x", "lambda1_y", "lambda1_z",
        "lambda2_x", "lambda2_y", "lambda2_z",
    ]
    assert len(cols["tau"]) == 1
    assert abs(cols["tau"][0] - REFERENCE_TAU) <= 1e-9


def test_lifetime_pure_loss_exit_code(capsys):
    code, out, err = run(
        capsys, ["lifetime", "--gh1", "1", "--gv1", "5", "--gh2", "1", "--gv2", "5"]
    )
    assert code == EXIT_NO_LIFETIME
    assert out == ""
    assert "no finite lifetime" in err


def test_lifetime_pure_loss_against_depolarization(capsys):
    # the loss line's modes underflow long before the root; its unital part
    # is the identity, so the depolarizing line alone sets tau = ln 3 / g
    code, out, _ = run(capsys, ["lifetime", "--gh1", "100", "--g2", "0.01"])
    assert code == EXIT_OK
    tau = read_csv_columns(out)["tau"][0]
    expected = math.log(3.0) / 0.01
    assert abs(tau - expected) / expected <= 1e-9


def test_lifetime_weak_depolarization_has_no_search_horizon(capsys):
    # tau ~ 2 ln(1/g) + C as g -> 0, far past any fixed multiple of 1/rates
    taus = []
    for g in ("1e-200", "1e-100"):
        code, out, _ = run(
            capsys, ["lifetime", "--gh1", "1", "--g1", g, "--gh2", "1", "--g2", g]
        )
        assert code == EXIT_OK
        taus.append(read_csv_columns(out)["tau"][0])
    assert abs(taus[0] - 920.85) <= 0.01
    expected = 200.0 * math.log(10.0)
    assert abs((taus[0] - taus[1]) - expected) / expected <= 1e-9


def test_lifetime_depolarization_below_the_double_range_of_g_over_big_g(capsys):
    # g/G = 1e-324 underflows, but log(g/G) does not: the line still
    # depolarizes, and its strong filtering puts tau far below ln 3 / g
    # (80-digit bisection of the closed form: 1.49346143462126e-167)
    line = ["--gv2", "1e170", "--g2", "1e-154"]
    code, out, _ = run(capsys, ["lifetime", *line, "--format", "json"])
    assert code == EXIT_OK
    tau = json.loads(out)["tau"]
    expected = 1.49346143462126e-167
    assert abs(tau - expected) / expected <= 1e-9
    code, out, _ = run(capsys, ["optimal-state", *line, "--format", "json"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["tau"] == tau
    norm = math.sqrt(sum(re * re + im * im for re, im in record["psi"]))
    assert abs(norm - 1.0) <= 1e-15


def test_lifetime_near_the_double_maximum(capsys):
    # G of line 1 overflows a double; the same problem with every rate
    # scaled by 2^-1000 has tau = 6.731797762151053e-08, that is
    # 6.282541938536965e-309 scaled back
    code, out, _ = run(capsys, ["lifetime", "--gh1", "1.7e308", "--g1", "1.7e308", "--g2", "1",
                                "--format", "json"])
    assert code == EXIT_OK
    record = json.loads(out)
    expected = 6.282541938536965e-309
    assert abs(record["tau"] - expected) <= 1e-9 * expected
    assert record["lambdas"]["line1"][2] < 0.5


def test_lifetime_of_a_huge_line_with_a_tiny_depolarization(capsys):
    # line 1 is formed at an eighth of its rates, where g = 1e-323 rounds to
    # 0, but log(g/G) is taken from the unscaled g; line 2 is the identity,
    # so the root is where A_1 = asinh 1: tau = 2 asinh(G/g)/G (40-digit mpmath)
    code, out, err = run(capsys, ["lifetime", "--gh1", "2e307", "--g1", "1e-323", "--format", "json"])
    assert code == EXIT_OK, err
    expected = 1.4520268426511133e-304
    assert abs(json.loads(out)["tau"] - expected) <= 1e-9 * expected


@pytest.mark.parametrize("rates", [["--g1", "1e-320"], ["--g1", "1e-310", "--g2", "1e-310"]])
def test_lifetime_search_ends_at_the_double_maximum(capsys, rates):
    # 1 / (sum of rates) overflows; the doubling starts and ends at the
    # largest double, where g is still positive
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["lifetime", *rates])
    assert code == EXIT_NO_LIFETIME
    assert out == ""
    assert "no finite lifetime up to t = 1.79769e+308" in err


# ---------------------------------------------------------------------------
# optimal-state
# ---------------------------------------------------------------------------


def test_optimal_state_json(capsys):
    code, out, _ = run(capsys, ["optimal-state", *REFERENCE_ARGS, "--format", "json"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert abs(record["tau"] - REFERENCE_TAU) <= 1e-9
    psi = record["psi"]
    assert psi[1] == [0.0, 0.0] and psi[2] == [0.0, 0.0]
    assert psi[3][0] > psi[0][0] > 0.0
    s1, s2 = record["schmidt_coefficients"]
    assert s1 >= s2
    assert abs(s1 * s1 + s2 * s2 - 1.0) <= 1e-12
    # identical lines carry identical output filters, V above H
    assert record["b1_diag"] == record["b2_diag"]
    assert record["b1_diag"][1] > record["b1_diag"][0]


def test_optimal_state_pure_loss_against_depolarization(capsys):
    # the loss line's filter is only a shape: sqrt(1 + s), sqrt(1 - s) with
    # s -> 1, however far its absolute scale has underflowed
    code, out, _ = run(
        capsys, ["optimal-state", "--gh1", "100", "--g2", "0.01", "--format", "json"]
    )
    assert code == EXIT_OK
    record = json.loads(out)
    expected = math.log(3.0) / 0.01
    assert abs(record["tau"] - expected) / expected <= 1e-9
    assert record["b1_diag"] == [math.sqrt(2.0), 0.0]
    assert record["b2_diag"] == [1.0, 1.0]


def test_optimal_state_when_both_filters_underflow(capsys):
    # 1 + s of line 1 and 1 - s of line 2 both underflow; the amplitude
    # ratio is taken in logs (60-digit reference: psi_HH = 8.0e-95, and
    # exactly 0 here since g/G = 3e-491 of line 1 is below double range)
    code, out, _ = run(capsys, [
        "optimal-state", "--gh1", "3e-169", "--gv1", "2e271", "--g1", "6e-220",
        "--gh2", "6e250", "--gv2", "0", "--g2", "2e-52", "--format", "json",
    ])
    assert code == EXIT_OK
    psi = json.loads(out)["psi"]
    assert abs(psi[3][0] - 1.0) <= 1e-15 and psi[3][1] == 0.0
    assert math.hypot(*psi[0]) <= 1e-94


def test_optimal_state_pure_loss_exit_code(capsys):
    code, _, err = run(
        capsys, ["optimal-state", "--gh1", "1", "--gv1", "5", "--gh2", "1", "--gv2", "5"]
    )
    assert code == EXIT_NO_LIFETIME
    assert "no finite lifetime" in err


# ---------------------------------------------------------------------------
# --t-max of lifetime and optimal-state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["lifetime", "optimal-state"])
@pytest.mark.parametrize("t_max", ["0.5", "0.55", "1.0"])
def test_t_max_below_which_the_lifetime_lies_moves_nothing(capsys, command, t_max):
    # the cap only refuses a lifetime past it; the search never sees it
    _, uncapped, _ = run(capsys, [command, *REFERENCE_ARGS])
    code, capped, _ = run(capsys, [command, *REFERENCE_ARGS, "--t-max", t_max])
    assert code == EXIT_OK
    assert capped == uncapped


@pytest.mark.parametrize("command, message", [
    ("lifetime", "no finite lifetime up to t = 0.1 (g = 1.45619 there)"),
    ("optimal-state", "no finite lifetime, optimal state undefined"),
])
def test_lifetime_past_t_max_exits_2(capsys, command, message):
    # tau = ln 3 / 2 lies past the cap; g is reported at the cap
    code, out, err = run(capsys, [command, "--g1", "1", "--g2", "1", "--t-max", "0.1"])
    assert code == EXIT_NO_LIFETIME
    assert out == ""
    assert err == message + "\n"


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_csv_contract(capsys):
    code, out, _ = run(capsys, ["evolve", *REFERENCE_ARGS, "--steps", "50"])
    assert code == EXIT_OK
    assert out.split("\n", 1)[0] == EVOLVE_HEADER
    cols = read_csv_columns(out)
    assert all(len(cols[c]) == 50 for c in cols)
    assert cols["t"][0] == 0.0
    assert abs(cols["t"][-1] - 2.0 * REFERENCE_TAU) <= 2e-9
    assert abs(cols["negativity_psi_plus"][0] - 0.5) <= 1e-12
    assert 0.0 < cols["negativity_optimal"][0] < 0.5
    assert abs(cols["detection_prob_psi_plus"][0] - 1.0) <= 1e-12
    assert abs(cols["detection_prob_optimal"][0] - 1.0) <= 1e-12
    # past the lifetime both states come out separable (the clamp leaves at
    # most eigensolver noise)
    assert cols["negativity_psi_plus"][-1] <= 1e-12
    assert cols["negativity_optimal"][-1] <= 1e-12
    assert all(p < 1.0 for p in cols["detection_prob_psi_plus"][1:])


def test_evolve_past_coherence_underflow(capsys):
    # c = exp(-g t) underflows at t = 1000; the conditional state is still
    # defined (the lines only depolarize) and fully mixed
    code, out, _ = run(capsys, ["evolve", "--g1", "1", "--g2", "1", "--t-max", "2000", "--steps", "3"])
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    assert cols["t"] == [0.0, 1000.0, 2000.0]
    assert cols["negativity_psi_plus"][1:] == [0.0, 0.0]
    assert all(abs(p - 1.0) <= 1e-12 for p in cols["detection_prob_psi_plus"])


def test_evolve_past_detection_underflow(capsys):
    # the detection probability falls to 6.4e-26 by t = 20; the conditional
    # state comes from the maps over their slow modes and stays defined
    code, out, _ = run(capsys, ["evolve", *REFERENCE_ARGS, "--t-max", "20", "--steps", "5"])
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    probs = cols["detection_prob_psi_plus"]
    assert all(later < earlier for earlier, later in zip(probs, probs[1:]))
    assert abs(probs[-1] - 6.381e-26) <= 1e-3 * 6.381e-26
    # every row after t = 0 lies past the lifetime
    for name in ("negativity_psi_plus", "negativity_optimal"):
        assert max(cols[name][1:]) <= 1e-12


def test_evolve_surely_lost_photons_keep_their_negativity(capsys):
    # equal loss on H and V only rescales the maps: the conditional states
    # are those of pure depolarization while both photons are surely lost
    lossy = ["--gh1", "1000", "--gv1", "1000", "--g1", "0.001",
             "--gh2", "1000", "--gv2", "1000", "--g2", "0.001"]
    code, out, _ = run(capsys, ["evolve", *lossy, "--steps", "5"])
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    assert cols["detection_prob_psi_plus"][1:] == [0.0] * 4
    assert cols["detection_prob_optimal"][1:] == [0.0] * 4
    # the two roots differ in the last digits (each search starts from
    # 1 / sum of the depolarizing lines' rates), so the grid is pinned by --t-max
    _, lossy_out, _ = run(capsys, ["evolve", *lossy, "--steps", "5", "--t-max", "1100"])
    _, plain_out, _ = run(
        capsys, ["evolve", "--g1", "0.001", "--g2", "0.001", "--steps", "5", "--t-max", "1100"]
    )
    lossy_cols, plain_cols = read_csv_columns(lossy_out), read_csv_columns(plain_out)
    assert lossy_cols["t"] == plain_cols["t"]
    for name in ("negativity_psi_plus", "negativity_optimal"):
        assert max(abs(a - b) for a, b in zip(lossy_cols[name], plain_cols[name])) <= 1e-12
    assert plain_cols["negativity_psi_plus"][1] > 0.1


def test_evolve_populations_do_not_cancel(capsys):
    # the optimal state's detection probability over the slow modes is about
    # 1.4e-9 at tau; formed from sums that cancel, its smallest eigenvalue
    # came out at -1.4e-9 and the run exited 1 as "not positive semidefinite"
    rates = ["--gh1", "26.371341399422388", "--gh2", "0.14734073802105965",
             "--gv2", "13.0685101343408", "--g2", "0.0014047417824339498"]
    code, out, err = run(capsys, ["evolve", *rates, "--steps", "21"])
    assert code == EXIT_OK, err
    # row 5 is t = 0.5 tau; the reference is the 50-digit value
    assert abs(read_csv_columns(out)["negativity_optimal"][5] - 0.23134477079882117) <= 1e-15


def test_evolve_output_does_not_depend_on_the_block_size(capsys, tmp_path, monkeypatch):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    for steps in ("7", "1000"):
        argv = ["evolve", *REFERENCE_ARGS, "--steps", steps, "--config", str(path)]
        _, default, _ = run(capsys, argv)
        for block in (1, 3):
            monkeypatch.setattr(cli, "EVOLVE_BLOCK", block)
            _, out, _ = run(capsys, argv)
            assert out == default
        monkeypatch.undo()


@pytest.mark.parametrize("line2, per_block", [(REFERENCE_ARGS[6:], 1),
                                             (["--gh2", "2", "--gv2", "5", "--g2", "1"], 2)])
def test_evolve_forms_equal_lines_once(capsys, tmp_path, monkeypatch, line2, per_block):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    calls = {"entry_logs_over_slow": 0, "superop_over_slow": 0, "x_state_traces": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(cli, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.setattr(cli, "EVOLVE_BLOCK", 4)
    argv = ["evolve", *REFERENCE_ARGS[:6], *line2, "--steps", "10", "--config", str(path)]
    code, _, err = run(capsys, argv)
    assert code == EXIT_OK, err
    # three blocks of at most four rows, and one closed-form call per block
    # for both standard states
    assert calls == {"entry_logs_over_slow": 3 * per_block, "superop_over_slow": 3 * per_block,
                     "x_state_traces": 3}


@pytest.mark.parametrize("lines", [
    # no line loses photons, then only the second
    ["--g1", "1", "--g2", "1"],
    ["--g1", "1"],
    # equal loss on H and V, then the reference lines' unequal loss
    ["--gh1", "2", "--gv1", "2", "--g1", "1", "--gh2", "2", "--gv2", "2", "--g2", "1"],
    REFERENCE_ARGS,
])
def test_evolve_detection_probabilities_lie_in_the_unit_interval(capsys, tmp_path, lines):
    # over the slow modes a probability may round past 1 where nothing is
    # lost; the printed probability is held to 1
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    argv = ["evolve", *lines, "--steps", "400", "--config", str(path), "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    record = json.loads(out)
    for name in ("detection_prob_psi_plus", "detection_prob_optimal", "detection_prob_custom"):
        assert all(0.0 <= p <= 1.0 for p in record[name]), name


def test_evolve_custom_state_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    code, out, _ = run(capsys, ["evolve", *REFERENCE_ARGS, "--steps", "9", "--config", str(path)])
    assert code == EXIT_OK
    assert out == """\
t,negativity_psi_plus,negativity_optimal,detection_prob_psi_plus,detection_prob_optimal,negativity_custom,detection_prob_custom
0,0.49999999999999994,0.33247178515725595,1,1,0.078143390310021432,1
0.12369726688068892,0.29892940761414999,0.28245227596810218,0.530912856828757,0.3587946898715702,0.0030006257057505763,0.53817118590659085
0.24739453376137785,0.13128367574185779,0.1841667527405354,0.3290834885677783,0.15675697684551035,0,0.32382690354738319
0.37109180064206676,0.026458647053992368,0.078607251071763251,0.21971910369808115,0.082443281481377792,0,0.20830228091569625
0.4947890675227557,0,0,0.15119331063379826,0.049378689405089479,0,0.13908663343499078
0.61848633440344458,0,0,0.10523032574674214,0.03186117310108242,0,0.094804516419184429
0.74218360128413352,0,0,0.073546470477888426,0.021371879619046404,0,0.065370024229789075
0.86588086816482246,0,0,0.0514802114732828,0.014623796058117252,0,0.045371249915092123
0.9895781350455114,0,0,0.03605424760402888,0.010111067150040795,0,0.031610826761778364
"""


def test_evolve_negativity_is_exactly_zero_past_the_lifetime(capsys, tmp_path):
    # past tau every conditional state is separable: its partial transpose
    # has no negative eigenvalue, and no rounding of a trace may add one ulp
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    argv = ["evolve", *REFERENCE_ARGS, "--steps", "2001", "--config", str(path)]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    late = [i for i, t in enumerate(cols["t"]) if t > REFERENCE_TAU]
    assert len(late) == 1000
    for name in ("negativity_psi_plus", "negativity_optimal", "negativity_custom"):
        assert [cols[name][i] for i in late] == [0.0] * len(late), name


def test_evolve_json_and_csv_carry_the_same_values(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"initial_state": NON_X_STATE}))
    argv = ["evolve", *REFERENCE_ARGS, "--steps", "60", "--config", str(path)]
    _, csv_out, _ = run(capsys, argv)
    _, json_out, _ = run(capsys, [*argv, "--format", "json"])
    assert json.loads(json_out) == read_csv_columns(csv_out)


def test_evolve_is_deterministic(capsys):
    _, first, _ = run(capsys, ["evolve", *REFERENCE_ARGS, "--steps", "40"])
    _, second, _ = run(capsys, ["evolve", *REFERENCE_ARGS, "--steps", "40"])
    assert first == second


def test_evolve_json(capsys):
    code, out, _ = run(
        capsys, ["evolve", *REFERENCE_ARGS, "--steps", "10", "--format", "json"]
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert list(record) == EVOLVE_HEADER.split(",")
    assert all(len(record[c]) == 10 for c in record)


def test_evolve_custom_state_from_config(capsys, tmp_path):
    entries = [[0.0, 0.0]] * 16
    for idx in (0, 3, 12, 15):
        entries[idx] = [0.5, 0.0]
    config = {
        "line1": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0},
        "line2": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0},
        "initial_state": entries,
        "steps": 20,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["evolve", "--config", str(path)])
    assert code == EXIT_OK
    cols = read_csv_columns(out)
    assert list(cols) == EVOLVE_HEADER.split(",") + [
        "negativity_custom", "detection_prob_custom",
    ]
    # the custom state is the maximally entangled pair written out by hand
    for got, ref in zip(cols["negativity_custom"], cols["negativity_psi_plus"]):
        assert abs(got - ref) <= 1e-12
    for got, ref in zip(cols["detection_prob_custom"], cols["detection_prob_psi_plus"]):
        assert abs(got - ref) <= 1e-12


def test_evolve_out_file(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, ["evolve", *REFERENCE_ARGS, "--steps", "30", "--out", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    cols = read_csv_columns(target.read_text())
    assert len(cols["t"]) == 30


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------


def test_sinkhorn_subcommand(capsys):
    code, out, _ = run(
        capsys, ["sinkhorn", "--gh1", "1", "--gv1", "5", "--g1", "1", "--t", "0.3"]
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["t"] == 0.3
    assert abs(record["s"] - (-0.289121400671)) <= 1e-9
    assert abs(record["lambda_x"] - 0.734125481709) <= 1e-9
    assert record["lambda_x"] == record["lambda_y"]
    # the faster-decaying V gets the larger filter entry
    assert record["a_diag"][1] > record["a_diag"][0]
    assert record["self_check"] <= 1e-12


def test_sinkhorn_reports_the_output_filter_scale_as_its_log(capsys):
    # pure depolarization plus balanced loss: S = I, and B = e^(t/2) A with
    # A = I, since L^dag[I] = e^-t I; B's eigenvalues once met an absolute floor
    code, out, _ = run(capsys, ["sinkhorn", "--gh1", "1", "--gv1", "1", "--g1", "1", "--t", "30"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["a_diag"] == [1.0, 1.0]
    assert abs(record["log_b_scale"] - 15.0) <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sinkhorn", "--gh1", "1e300", "--t", "1e10"],
         "degenerate filter B: log_b_scale = inf from log slow = -0, "
         "log(1 + s) = 0.693147, log(1 - s) = -inf"),
        (["sinkhorn", "--gh1", "1e300", "--gv1", "1e300", "--t", "1e10"],
         "degenerate filter B: log_b_scale = inf from log slow = -inf, "
         "log(1 + s) = 0, log(1 - s) = 0"),
    ],
    ids=["pure-loss-shape-underflow", "slow-mode-log-overflow"],
)
def test_sinkhorn_exit_one_cases_are_the_documented_ones(capsys, argv, message):
    # the README lists these two, each with this repro
    assert run(capsys, argv) == (EXIT_USAGE, "", f"error: {message}\n")


# 0, or log-uniform over the positive doubles [5e-324, 1.7e308]
DOUBLE_RANGE = st.one_of(st.just(0.0), st.floats(-323.3, 308.23).map(lambda e: 10.0**e))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(DOUBLE_RANGE, DOUBLE_RANGE, DOUBLE_RANGE, DOUBLE_RANGE)
# pure loss at G t past 2^24, whose filter logs once reached upsilon
@example(0.0, 1.0, 0.0, 2e7)
# a subnormal G, whose ratios were once no unit vector
@example(0.0, 1.04e-322, 5.822e-320, 0.0)
def test_sinkhorn_over_the_double_range_exits_zero_or_as_documented(gh, gv, g, t):
    argv = ["sinkhorn", "--gh1", repr(gh), "--gv1", repr(gv), "--g1", repr(g), "--t", repr(t)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_OK:
        record = json.loads(out.getvalue())
        values = [record["t"], record["s"], *record["a_diag"], record["log_b_scale"],
                  record["lambda_x"], record["lambda_y"], record["lambda_z"], record["self_check"]]
        assert all(math.isfinite(x) for x in values)
    else:
        assert (code, out.getvalue()) == (EXIT_USAGE, "")
        assert err.getvalue().startswith("error: degenerate filter B: "), err.getvalue()


# ---------------------------------------------------------------------------
# valid input that once exited 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        # the optimal state's VV weight is exp(-5493) at tau
        ["evolve", "--gh1", "100", "--g2", "0.01", "--steps", "21"],
        # the optimal state's HH amplitude is 6.7e-309
        ["evolve", "--gv1", "25.809452714647435", "--gv2", "0.06337063400675579",
         "--g2", "0.0032669713309370248", "--steps", "21"],
        # B = 3.3e6, whose eigenvalues 9.358e-14 met the absolute PD_MIN_EIG
        ["sinkhorn", "--gh1", "1", "--gv1", "1", "--g1", "1", "--t", "30"],
        # filters 1e4 apart, where the Pauli route's self-check cancelled to 4e-9
        ["sinkhorn", "--gh1", "100", "--gv1", "0", "--g1", "0.01", "--t", "1"],
        # pure loss at G t past 2^24: upsilon's exponents once summed filter
        # logs of that size, whose rounding failed the self-check at 1.863e-09
        ["sinkhorn", "--gv1", "1", "--t", "2e7"],
        ["sinkhorn", "--gv1", "1", "--t", "1e10"],
        # two lines' coherence logs, -(g + G) t / 2 each, summed past the
        # doubles: the sum overflowed to -inf with a RuntimeWarning
        ["evolve", "--g1", "1", "--g2", "1", "--steps", "2", "--t-max", "1e308"],
        ["evolve", "--g1", "2", "--g2", "2", "--t-max", "6e307"],
    ],
    ids=[
        "evolve-vv-underflow",
        "evolve-hh-underflow",
        "sinkhorn-degenerate-filter",
        "sinkhorn-unequal-filters",
        "sinkhorn-pure-loss-log-rounding",
        "sinkhorn-pure-loss-long-time",
        "evolve-coherence-log-overflow",
        "evolve-coherence-log-overflow-full-grid",
    ],
)
def test_valid_input_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    if argv[0] == "evolve":
        cols = read_csv_columns(out)
        for name in ("negativity_psi_plus", "negativity_optimal"):
            assert all(0.0 <= x <= 0.5 for x in cols[name]), name
    else:
        assert json.loads(out)["self_check"] <= 1e-15


def _t_max_near_the_top(rates: tuple, fraction: float) -> float | None:
    """A t at which (g + G) t of the faster line is fraction of the largest double; None without rates."""
    # (g + G) / 4 per line, quartered first: g + G may lie past the double range
    quarter = max(0.25 * g + math.hypot(0.25 * g, 0.25 * (gh - gv))
                  for gh, gv, g in (rates[:3], rates[3:]))
    if quarter == 0.0:
        return None
    # above 0.4 fraction for the largest rates, at most the largest double for the smallest
    return min(fraction * (0.25 * sys.float_info.max) / quarter, sys.float_info.max)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["lifetime", "optimal-state", "evolve"]),
       st.tuples(*[DOUBLE_RANGE] * 6), st.integers(2, 21),
       st.one_of(st.none(), st.floats(0.25, 2.0)))
# a root in the top octave of the doubles, and a grid end 2 tau past it
@example("lifetime", (0.0, 0.0, 3.5e-309, 0.0, 0.0, 3.5e-309), 2, None)
@example("evolve", (0.0, 0.0, 3.5e-309, 0.0, 0.0, 3.5e-309), 21, None)
# loss rate times t past 2^52: the logs of the map's entries are too coarse
# to keep the corner of the X-state below its bound, or to place its terms
@example("evolve", (4.190826391620538e75, 0.1230805207438388, 0.0,
                    0.0, 1.1433509483471318e-151, 1.241024921706544e-102), 21, None)
@example("evolve", (0.0, 6.918980437850887e272, 0.0,
                    481.223336538377, 1.974735499584203, 2.9865216e-317), 6, None)
# a subnormal G, whose ratios were once no unit vector: line 1 read a
# detection probability of 1.0000016 at t = 0
@example("evolve", (0.0, 1.04e-322, 5.822e-320, 0.0, 0.0, 1.0), 3, None)
# both coherence logs near -t: their sum once overflowed with a RuntimeWarning
@example("evolve", (0.0, 0.0, 1.0, 0.0, 0.0, 1.0), 2, 1.2)
def test_valid_input_over_the_double_range_exits_zero_or_two(command, rates, steps, fraction):
    flags = ("--gh1", "--gv1", "--g1", "--gh2", "--gv2", "--g2")
    argv = [command, *(arg for flag, rate in zip(flags, rates) for arg in (flag, repr(rate))),
            "--format", "json"]
    if command == "evolve":
        argv += ["--steps", str(steps)]
    t_max = None if fraction is None else _t_max_near_the_top(rates, fraction)
    if t_max is not None:
        argv += ["--t-max", repr(t_max)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == EXIT_NO_LIFETIME:
        assert out.getvalue() == ""
        return
    assert code == EXIT_OK, err.getvalue()
    # JSON refuses NaN and infinities, so what parses is finite
    record = json.loads(out.getvalue())
    if command == "evolve":
        assert all(len(column) == steps for column in record.values())
        # a two-qubit negativity is at most 1/2, here up to the rounding of the entries' logs
        for name in ("negativity_psi_plus", "negativity_optimal"):
            assert all(0.0 <= x <= 0.5 + 1e-15 for x in record[name]), name
        # a detection probability is at most 1, and both maps are the identity at t = 0
        eps = sys.float_info.epsilon
        for name in ("detection_prob_psi_plus", "detection_prob_optimal"):
            assert all(x <= 1.0 + 4 * eps for x in record[name]), name
            assert abs(record[name][0] - 1.0) <= 4 * eps, name
        assert abs(record["negativity_psi_plus"][0] - 0.5) <= 4 * eps


def test_a_root_in_the_top_octave_of_the_doubles_is_found():
    # the bracket (1.43e308, 1.80e308) once met a midpoint of inf and never shrank
    argv = ["lifetime", "--g1", "3.5e-309", "--g2", "3.5e-309", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "qsink.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=subprocess_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    expected = math.log(3.0) / 7e-309
    assert abs(json.loads(proc.stdout)["tau"] - expected) <= 1e-9 * expected


def test_evolve_caps_its_default_grid_end_at_the_largest_double(capsys):
    # 2 tau = 3.1e308 lies past the double range, tau = 1.57e308 does not
    argv = ["evolve", "--g1", "3.5e-309", "--g2", "3.5e-309", "--steps", "5"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    t = read_csv_columns(out)["t"]
    assert all(math.isfinite(x) for x in t)
    assert t[-1] == sys.float_info.max


# ---------------------------------------------------------------------------
# byte layout of the one-record outputs and of a short evolve trace on the
# reference line (1, 5, 1), and of validate's report on its fixed grid
# ---------------------------------------------------------------------------

PINNED_OUTPUTS = {
    "lifetime-csv": (
        ["lifetime", *REFERENCE_ARGS],
        """\
tau,residual,iterations,lambda1_x,lambda1_y,lambda1_z,lambda2_x,lambda2_y,lambda2_z
0.4947890675227557,-8.8332341441343942e-11,11,0.58510924726401303,0.58510924726401303,0.56151076342662176,0.58510924726401303,0.58510924726401303,0.56151076342662176
""",
    ),
    "lifetime-json": (
        ["lifetime", *REFERENCE_ARGS, "--format", "json"],
        """\
{
  "tau": 0.4947890675227557,
  "bracket": [
    0.4947890673897096,
    0.4947890676558018
  ],
  "residual": -8.833234144134394e-11,
  "iterations": 11,
  "evaluations": {
    "bracket": 4,
    "secant": 6,
    "bisection": 1
  },
  "lambdas": {
    "line1": [
      0.585109247264013,
      0.585109247264013,
      0.5615107634266218
    ],
    "line2": [
      0.585109247264013,
      0.585109247264013,
      0.5615107634266218
    ]
  }
}
""",
    ),
    "optimal-state-csv": (
        ["optimal-state", *REFERENCE_ARGS],
        """\
tau,psi0_re,psi0_im,psi1_re,psi1_im,psi2_re,psi2_im,psi3_re,psi3_im,schmidt_1,schmidt_2,b1_h,b1_v,b2_h,b2_v
0.4947890675227557,0.355743166450878,0,0,0,0,0,0.93458375736126675,0,0.93458375736126675,0.355743166450878,0.7425631636510277,1.2035779775272466,0.7425631636510277,1.2035779775272466
""",
    ),
    "optimal-state-json": (
        ["optimal-state", *REFERENCE_ARGS, "--format", "json"],
        """\
{
  "tau": 0.4947890675227557,
  "psi": [
    [
      0.355743166450878,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.9345837573612668,
      0.0
    ]
  ],
  "schmidt_coefficients": [
    0.9345837573612668,
    0.355743166450878
  ],
  "b1_diag": [
    0.7425631636510277,
    1.2035779775272466
  ],
  "b2_diag": [
    0.7425631636510277,
    1.2035779775272466
  ]
}
""",
    ),
    "evolve-csv": (
        ["evolve", *REFERENCE_ARGS, "--steps", "9"],
        """\
t,negativity_psi_plus,negativity_optimal,detection_prob_psi_plus,detection_prob_optimal
0,0.49999999999999994,0.33247178515725595,1,1
0.12369726688068892,0.29892940761414999,0.28245227596810218,0.530912856828757,0.3587946898715702
0.24739453376137785,0.13128367574185779,0.1841667527405354,0.3290834885677783,0.15675697684551035
0.37109180064206676,0.026458647053992368,0.078607251071763251,0.21971910369808115,0.082443281481377792
0.4947890675227557,0,0,0.15119331063379826,0.049378689405089479
0.61848633440344458,0,0,0.10523032574674214,0.03186117310108242
0.74218360128413352,0,0,0.073546470477888426,0.021371879619046404
0.86588086816482246,0,0,0.0514802114732828,0.014623796058117252
0.9895781350455114,0,0,0.03605424760402888,0.010111067150040795
""",
    ),
    "sinkhorn": (
        ["sinkhorn", "--gh1", "1", "--gv1", "5", "--g1", "1", "--t", "0.3"],
        """\
{
  "t": 0.3,
  "s": -0.28912140067055025,
  "a_diag": [
    0.8431361689130942,
    1.1353948214918677
  ],
  "log_b_scale": 0.4891086997894019,
  "lambda_x": 0.7341254817087135,
  "lambda_y": 0.7341254817087135,
  "lambda_z": 0.7274932066305086,
  "self_check": 2.220446049250313e-16
}
""",
    ),
    "validate": (
        ["validate"],
        """\
[PASS] ptm-vs-integration: 315 cases, max deviation 1.926e-12 (ChannelParams(gamma_h=5.0, gamma_v=5.0, gamma=5.0), t=0.1)
[PASS] sinkhorn-normal-form: 240 cases, max deviation 8.554e-12 (ChannelParams(gamma_h=0.0, gamma_v=0.5, gamma=0.5), t=0.1)
[PASS] lifetime-closed-forms: 5 cases, max deviation 3.958e-11 (ChannelParams(gamma_h=0.0, gamma_v=0.0, gamma=0.25))
[PASS] normal-form-predicates: 303 cases, max deviation 2.220e-16 (ChannelParams(gamma_h=0.0, gamma_v=5.0, gamma=0.5), t=2.0)
""",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_OUTPUTS))
def test_output_bytes_are_pinned(capsys, case):
    argv, expected = PINNED_OUTPUTS[case]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out == expected


# ---------------------------------------------------------------------------
# config handling and failure modes
# ---------------------------------------------------------------------------


def test_config_flag_override(capsys, tmp_path):
    config = {
        "line1": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0},
        "line2": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0},
        "format": "json",
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["lifetime", "--config", str(path)])
    assert code == EXIT_OK
    tau_file = json.loads(out)["tau"]
    code, out, _ = run(
        capsys, ["lifetime", "--config", str(path), "--gv1", "1", "--gv2", "1"]
    )
    assert code == EXIT_OK
    tau_override = json.loads(out)["tau"]
    assert abs(tau_file - REFERENCE_TAU) <= 1e-9
    assert abs(tau_override - tau_file) > 1e-3


def test_missing_config_file(capsys):
    code, _, err = run(capsys, ["lifetime", "--config", "/does/not/exist.json"])
    assert code == EXIT_USAGE
    assert "error:" in err


def test_invalid_rate_exits_with_usage(capsys):
    code, _, err = run(capsys, ["lifetime", "--g1", "-1", "--g2", "1"])
    assert code == EXIT_USAGE
    assert "error:" in err


def test_steps_below_two_rejected(capsys):
    code, _, err = run(capsys, ["evolve", *REFERENCE_ARGS, "--steps", "1"])
    assert code == EXIT_USAGE
    assert "error:" in err


def test_a_replaced_or_made_config_is_checked():
    line = ChannelParams(1.0, 5.0, 1.0)
    cfg = cli.JobConfig(line, line)
    message = rf"^steps must be >= 2 and <= {sys.maxsize // 8}, got 1$"
    with pytest.raises(ValueError, match=message):
        cfg._replace(steps=1)
    with pytest.raises(ValueError, match=message):
        cli.JobConfig._make([line, line, None, 1, None, None, "csv"])
    assert cfg._replace(steps=3) == cli.JobConfig(line, line, steps=3)


def test_a_bad_t_max_is_named_before_a_bad_steps(capsys):
    # flags override one at a time, in FLAGS' order, each checked as it is set
    argv = ["evolve", "--g1", "1", "--t-max", "0", "--steps", "1"]
    assert run(capsys, argv) == (EXIT_USAGE, "", "error: t_max must be finite and > 0, got 0.0\n")


@pytest.mark.parametrize("steps", [10**30, 2**63], ids=["31-digits", "two-to-the-63"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_steps_past_what_an_array_holds_are_refused_by_name(capsys, tmp_path, steps, where):
    # numpy once refused the first without naming steps and raised
    # IndexError on the second; neither is allocated now
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"steps": steps}))
    extra = ["--steps", str(steps)] if where == "flag" else ["--config", str(path)]
    code, out, err = run(capsys, ["evolve", "--g1", "1", "--g2", "1", *extra])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: steps must be >= 2 and <= {sys.maxsize // 8}, got {steps}\n"


def test_steps_past_memory_exit_one():
    # 2^59 steps need 4 EiB; the address-space limit keeps any host from
    # committing what an allocator might try, and one BLAS thread keeps
    # numpy's own start well inside it
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
        "from qsink.cli import main\n"
        "sys.exit(main(['evolve', '--g1', '1', '--g2', '1', '--steps', str(2**59)]))\n"
    )
    env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=env)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr


def test_bad_usage_raises_exit_code_one():
    for argv in (
        [], ["lifetime", "--bogus"], ["evolve", "--steps", "abc"], ["sinkhorn"],
        ["evolve", "--g1", "1", "--g2", "1", "--state", "optimal"],
        # validate runs its fixed grid and takes none of the common flags
        ["validate", "--format", "json"], ["validate", "--out", "v.json"],
        ["validate", "--gh1", "5"], ["validate", "--config", "c.json"],
        # nor does any subcommand take a flag it would ignore
        ["lifetime", "--steps", "5"], ["optimal-state", "--steps", "5"],
        *(["sinkhorn", "--t", "0.3", flag, "1"] for flag in SINKHORN_UNREAD),
        ["sinkhorn", "--t", "0.3", "--steps", "5"], ["sinkhorn", "--t", "0.3", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        # --t is sinkhorn's flag and --st a prefix of --steps: neither is a flag here
        ["lifetime", "--g1", "1", "--g2", "1", "--t", "0.1"],
        ["evolve", "--g1", "1", "--g2", "1", "--st", "5"],
    ],
)
def test_abbreviated_flags_are_refused(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    ("command", "config", "named"),
    [
        # a sinkhorn config file may only hold line 1 and the output path
        ("sinkhorn", {"format": "csv", "steps": 7, "line2": {"gamma": 3}}, "'format'"),
        ("sinkhorn", {"line1": {"gamma": 1.0}, "t_max": 1.0}, "'t_max'"),
        ("lifetime", {"tmax": 0.4}, "'tmax'"),
        ("lifetime", {"steps": 7}, "'steps'"),
        ("optimal-state", {"initial_state": NON_X_STATE}, "'initial_state'"),
        ("evolve", {"output": "x.csv"}, "'output'"),
        ("evolve", {"line2": {"gamma": 1.0, "gama": 2.0}}, "'gama'"),
        ("lifetime", {"line1": 1.0}, "line1 must be a JSON object"),
        ("evolve", [], "must be a JSON object"),
    ],
)
def test_config_keys_a_subcommand_does_not_read_are_refused(
    capsys, tmp_path, command, config, named
):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--g1", "1"]
    argv += ["--t", "0.3"] if command == "sinkhorn" else ["--g2", "1"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert named in err


# what each subcommand reads, spelled out: its flags and its config keys
JOB_FLAGS = {"--gh1", "--gv1", "--g1", "--gh2", "--gv2", "--g2", "--t-max", "--out", "--format",
             "--config"}
JOB_KEYS = {"line1", "line2", "t_max", "output_path", "format"}
READS = {
    "lifetime": (JOB_FLAGS, JOB_KEYS),
    "optimal-state": (JOB_FLAGS, JOB_KEYS),
    "evolve": (JOB_FLAGS | {"--steps"}, JOB_KEYS | {"steps", "initial_state"}),
    "sinkhorn": ({"--gh1", "--gv1", "--g1", "--out", "--config", "--t"}, {"line1", "output_path"}),
    "validate": (set(), set()),
}
# a value of each config key that every subcommand reading it runs with, and one key none reads
CONFIG_VALUES = {"line1": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0},
                 "line2": {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0}, "t_max": 1.0,
                 "output_path": None, "format": "json", "steps": 3,
                 "initial_state": NON_X_STATE, "tmax": 1.0}


@pytest.mark.parametrize("command", list(READS))
def test_each_subcommand_reads_exactly_its_flags_and_config_keys(capsys, tmp_path, command):
    code, out, _ = run(capsys, [command, "--help"])
    assert code == EXIT_OK
    flags, keys = READS[command]
    assert set(re.findall(r"--[\w-]+", out)) - {"--help"} == flags
    # a key is read unless the file holding it is refused by name
    argv = [command, "--g1", "1", *(["--t", "0.3"] if command == "sinkhorn" else ["--g2", "1"])]
    read = set()
    for key, value in CONFIG_VALUES.items() if "--config" in flags else ():
        path = tmp_path / "job.json"
        path.write_text(json.dumps({key: value}))
        code, _, err = run(capsys, [*argv, "--config", str(path)])
        if f"does not read {key!r}" not in err:
            assert code == EXIT_OK, (key, err)
            read.add(key)
    assert read == keys


def test_every_config_key_a_subcommand_reads_is_accepted(capsys, tmp_path):
    line = {"gamma_h": 1.0, "gamma_v": 5.0, "gamma": 1.0}
    values = {"line1": line, "line2": line, "t_max": 1.0, "output_path": None,
              "format": "json", "steps": 3, "initial_state": NON_X_STATE}
    # validate reads no key, and takes no --config
    for command, keys in ((name, keys) for name, (_, keys) in cli.SUBCOMMANDS.items() if keys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({key: values[key] for key in keys}))
        argv = [command, "--config", str(path)] + (["--t", "0.3"] if command == "sinkhorn" else [])
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK, command
        assert out


def test_custom_state_must_be_4x4(capsys, tmp_path):
    # evolve always traces both built-in states, so a state name is no state
    for state in ([[1.0, 0.0]] * 4, "optimal"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"initial_state": state}))
        code, _, err = run(capsys, ["evolve", "--config", str(path), "--g1", "1", "--g2", "1"])
        assert code == EXIT_USAGE
        assert "16" in err


# each flag with the name its error message gives
BAD_INPUT_FLAGS = {
    "--gh1": "gamma_h", "--gv1": "gamma_v", "--g1": "gamma",
    "--gh2": "gamma_h", "--gv2": "gamma_v", "--g2": "gamma",
    "--t-max": "t_max", "--t": "t",
}
BAD_INPUT_CASES = [
    (command, flag, value)
    for command in ("lifetime", "optimal-state", "evolve", "sinkhorn")
    for flag in BAD_INPUT_FLAGS
    if flag != "--t" or command == "sinkhorn"
    for value in ("nan", "inf", "-inf", "-1")
]


@pytest.mark.parametrize(("command", "flag", "value"), BAD_INPUT_CASES)
def test_non_finite_or_negative_input_fails_closed(capsys, command, flag, value):
    # --t-max nan used to be ignored, --t-max inf to reach the time grid and
    # --t nan to print NaN, which is not JSON
    argv = [command, "--gh1", "1", "--gv1", "5", "--g1", "1"]
    if command != "sinkhorn":
        argv += ["--g2", "1"]
    elif flag != "--t":
        argv.append("--t=0.3")
    argv.append(f"{flag}={value}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    if command == "sinkhorn" and flag in SINKHORN_UNREAD:
        assert "unrecognized arguments" in err
    else:
        assert f"{BAD_INPUT_FLAGS[flag]} must be finite" in err


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({"steps": math.inf}, "steps must be an integer, got inf"),
        ({"initial_state": [[math.nan, 0.0]] * 16}, "16 finite"),
        ({"initial_state": [[math.inf, 0.0]] * 16}, "16 finite"),
        # each rate is checked in the file, also where --g1 and --g2 override it
        ({"line1": {"gamma": math.inf}}, "line1.gamma must be finite and >= 0, got inf"),
        ({"line2": {"gamma": math.nan}}, "line2.gamma must be finite and >= 0, got nan"),
        ({"line1": {"gamma": -1}}, "line1.gamma must be finite and >= 0, got -1"),
        ({"line2": {"gamma_h": -math.inf}}, "line2.gamma_h must be finite and >= 0, got -inf"),
        ({"steps": math.nan}, "steps must be an integer, got nan"),
        ({"line1": {"gamma_v": 10**400}}, "line1.gamma_v must be finite and >= 0, got 1000"),
        # compared without a float conversion, which would overflow
        ({"t_max": 10**400}, "t_max must be finite and > 0, got 1000"),
        ({"t_max": 0}, "t_max must be finite and > 0, got 0"),
    ],
)
def test_non_finite_config_values_fail_closed(capsys, tmp_path, config, message):
    # json reads NaN and Infinity literals, so a config file can carry them
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["evolve", "--config", str(path), "--g1", "1", "--g2", "1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({"t_max": "1"}, "t_max must be a number or null, got '1'"),
        ({"line1": {"gamma": None}}, "line1.gamma must be a number, got None"),
        ({"line1": {"gamma": "1"}}, "line1.gamma must be a number, got '1'"),
        ({"line2": {"gamma_v": True}}, "line2.gamma_v must be a number, got True"),
        ({"t_max": False}, "t_max must be a number or null, got False"),
        ({"steps": 2.9}, "steps must be an integer, got 2.9"),
        ({"steps": True}, "steps must be an integer, got True"),
        ({"output_path": 5}, "output_path must be a string or null, got 5"),
        ({"format": None}, "format must be a string, got None"),
        ({"initial_state": [["1", 0.0]] * 16}, "initial_state needs 16 finite"),
        ({"initial_state": [[True, 0.0]] * 16}, "initial_state needs 16 finite"),
        # a string, but not a format; the --format flag does not excuse it
        ({"format": "xml"}, "format must be 'csv' or 'json', got 'xml'"),
    ],
)
def test_config_values_of_the_wrong_type_fail_closed(capsys, tmp_path, config, message):
    # each key is checked in the file, also where a flag overrides it
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    argv = ["evolve", "--config", str(path), "--g1", "1", "--g2", "1", "--t-max", "2",
            "--steps", "5", "--out", str(tmp_path / "out.csv"), "--format", "csv"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
    assert not (tmp_path / "out.csv").exists()


def test_config_file_that_is_not_json_fails_closed(capsys, tmp_path):
    # json's decode error is a ValueError, reported as bad input
    path = tmp_path / "job.json"
    path.write_text('{"line1": ')
    code, out, err = run(capsys, ["lifetime", "--config", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: Expecting value")


def test_whole_numbers_are_integers_in_a_config_file(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"steps": 3.0, "t_max": 1}))
    code, out, _ = run(capsys, ["evolve", "--config", str(path), "--g1", "1", "--g2", "1"])
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 1 + 3


def test_json_output_refuses_non_finite_values(tmp_path):
    line = ChannelParams(0.0, 0.0, 1.0)
    cfg = cli.JobConfig(line, line, output_path=str(tmp_path / "out.json"), format="json")
    with pytest.raises(ValueError):
        cli._write(cfg, {"value": math.nan}, {"value": [math.nan]})
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_subcommand(capsys):
    code, out, _ = run(capsys, ["validate"])
    assert code == EXIT_OK
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 4
    assert all(line.startswith("[PASS]") for line in lines)


def test_validate_reports_each_failed_suite(capsys, monkeypatch):
    results = [SuiteResult("good", True, 2, 0.0, "-"), SuiteResult("bad", False, 3, 1.0, "t=1")]
    monkeypatch.setattr(validate, "run_all", lambda: results)
    code, out, err = run(capsys, ["validate"])
    assert code == cli.EXIT_VALIDATION
    assert out == "".join(result.line() + "\n" for result in results)
    assert err == "validation failed: bad at t=1\n"


def test_only_validate_loads_the_replay_suites():
    # a fresh interpreter: this one has imported qsink.validate already
    code = "\n".join([
        "import contextlib, io, sys",
        "import qsink.cli",
        "loaded = ['qsink.validate' in sys.modules]",
        "lines = ['--gh1', '1', '--gv1', '5', '--g1', '1', '--gh2', '1', '--gv2', '5', '--g2', '1']",
        "for argv in (['lifetime', *lines], ['evolve', *lines, '--steps', '5'],",
        "             ['optimal-state', *lines], ['sinkhorn', *lines[:6], '--t', '0.3'], ['validate']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert qsink.cli.main(argv) == 0, argv",
        "    loaded.append('qsink.validate' in sys.modules)",
        "print(loaded)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, False, True]\n"


def test_the_lifetime_and_optimal_state_run_without_numpy():
    # a fresh interpreter: this one has imported numpy already
    code = "\n".join([
        "import sys",
        "from qsink import dynamics, entanglement, sinkhorn",
        "P = dynamics.ChannelParams",
        "for line1, line2 in ((P(1.0, 5.0, 1.0), P(1.0, 5.0, 1.0)),",
        "                     (P(100.0, 0.0, 0.0), P(0.0, 0.0, 0.01))):",
        "    for line in (line1, line2):",
        "        dynamics.decay_modes(line, 0.3)",
        "        sinkhorn.unital_lambdas(line, 0.3)",
        "    entanglement.lifetime_lhs(line1, line2, 0.3)",
        "    sinkhorn.decompose(line1, 0.3)",
        "    state = entanglement.optimal_state(line1, line2, "
        "entanglement.max_lifetime(line1, line2).tau)",
        # dataclasses would load inspect, ast, dis and tokenize with it
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])",
        # an array function loads numpy on its first call
        "dynamics.ptm_at(line1, 0.3)",
        "print('numpy' in sys.modules)",
        # numpy loads inspect, but no qsink module loads dataclasses
        "import qsink.cli, qsink.validate",
        "print('dataclasses' in sys.modules)",
    ])
    # every warning an error, as in the test run itself
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, timeout=60, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\nFalse\n"


def test_validate_is_deterministic(capsys):
    first = run(capsys, ["validate"])
    assert first[0] == EXIT_OK
    assert run(capsys, ["validate"]) == first
