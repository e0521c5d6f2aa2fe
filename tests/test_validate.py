"""validate's one pass: each input formed once, and each verdict failing on a doctored input."""

import math
from collections import Counter

import numpy as np
import pytest

from qsink import cli, dynamics, entanglement, sinkhorn, validate
from qsink.dynamics import ChannelParams


def test_one_pass_forms_each_map_and_normal_form_once(monkeypatch):
    # counted through every module that binds them, as a call from anywhere counts
    calls = Counter()
    for module in (dynamics, sinkhorn, entanglement, validate):
        for name in ("ptm_at", "superop_over_slow", "ptm_via_integration", "decompose"):
            if name in vars(module):
                def counted(*args, _name=name, _call=getattr(module, name)):
                    calls[_name] += 1
                    return _call(*args)

                monkeypatch.setattr(module, name, counted)
    results = validate.run_all()
    assert calls == {"ptm_at": 315, "superop_over_slow": 63, "ptm_via_integration": 5,
                     "decompose": 240}
    assert [result.cases for result in results] == [315, 240, 5, 303]
    assert all(result.passed for result in results)


def replay_doctored(capsys, monkeypatch, name, doctor):
    """validate's exit code, lines by suite and stderr, with validate's name's results doctored."""
    call = getattr(validate, name)
    monkeypatch.setattr(validate, name, lambda *args: doctor(call(*args), *args))
    code = cli.main(["validate"])
    captured = capsys.readouterr()
    return code, dict(zip(("ptm", "sinkhorn", "lifetime", "predicates"),
                          captured.out.splitlines(), strict=True)), captured.err


def test_a_corrupted_closed_map_fails_the_oracle_verdict(capsys, monkeypatch):
    # a pure-loss line, whose maps enter no normal-form check
    line = ChannelParams(0.5, 1.0, 0.0)

    def doctor(m, params, t):
        return m + 1e-6 if (params, t) == (line, 1.0) else m

    code, lines, err = replay_doctored(capsys, monkeypatch, "ptm_at", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["ptm"].startswith(
        "[FAIL] ptm-vs-integration: 315 cases, max deviation 1.000e-06"
    )
    assert lines["ptm"].endswith(f"({line}, t=1.0)")
    assert err == f"validation failed: ptm-vs-integration at {line}, t=1.0\n"


def test_a_corrupted_entry_log_map_fails_the_oracle_verdict(capsys, monkeypatch):
    # log H, which ptm_at never reads, so only the map over the slow mode carries it
    entry_logs = dynamics._entry_logs

    def doctored(*args):
        log_hh, *rest = entry_logs(*args)
        return (log_hh + 1e-6, *rest)

    monkeypatch.setattr(dynamics, "_entry_logs", doctored)
    code = cli.main(["validate"])
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_VALIDATION
    assert lines[0].startswith("[FAIL] ptm-vs-integration: 315 cases, max deviation 5.000e-07")
    assert all(line.startswith("[PASS]") for line in lines[1:])


def test_an_upsilon_off_by_a_millionth_fails_the_predicates_verdict(capsys, monkeypatch):
    line = ChannelParams(1.0, 5.0, 1.0)

    def doctor(dec, params, t):
        if (params, t) != (line, 0.25):
            return dec
        return dec._replace(upsilon=(dec.upsilon[0] + 1e-6, *dec.upsilon[1:]))

    code, lines, err = replay_doctored(capsys, monkeypatch, "decompose", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["predicates"] == (
        f"[FAIL] normal-form-predicates: 303 cases, max deviation 1.000e-06 ({line}, t=0.25)"
    )
    assert err == f"validation failed: normal-form-predicates at {line}, t=0.25\n"


def test_an_asymmetric_integrated_map_fails_the_duality_check(capsys, monkeypatch):
    line = ChannelParams(5.0, 0.0, 0.5)
    row = validate.GRID.index(line)

    def doctor(maps, grid, t, dt):
        if t == validate.DUALITY_T:
            maps = maps.copy()
            maps[row, 0, 3] += 1e-11
        return maps

    code, lines, err = replay_doctored(capsys, monkeypatch, "ptm_via_integration", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["predicates"].startswith("[FAIL] normal-form-predicates: 303 cases")
    assert lines["predicates"].endswith(f"(dual mismatch at {line}, t=0.5)")
    # 1e-11 is inside the oracle verdict's tolerance
    assert lines["ptm"].startswith("[PASS]")
    assert err == f"validation failed: normal-form-predicates at dual mismatch at {line}, t=0.5\n"


def test_a_lifetime_off_by_a_millionth_fails_the_lifetime_verdict(capsys, monkeypatch):
    line = ChannelParams(0.0, 0.0, 1.0)

    def doctor(result, params1, params2):
        return result._replace(tau=result.tau * (1.0 + 1e-6)) if params1 == line else result

    code, lines, err = replay_doctored(capsys, monkeypatch, "max_lifetime", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["lifetime"].startswith(
        "[FAIL] lifetime-closed-forms: 5 cases, max deviation 1.000e-06"
    )
    assert lines["lifetime"].endswith(f"({line})")
    assert err == f"validation failed: lifetime-closed-forms at {line}\n"



# the cases the NaN doctors below set: a pure-loss line's map, whose maps enter no
# normal-form check (a NaN map on a depolarizing line stops fixed_point_iterate first),
# a depolarizing (line, t) case and a depolarizing line
NAN_MAP = (ChannelParams(0.5, 1.0, 0.0), 1.0)
NAN_NORMAL_FORM = (ChannelParams(1.0, 5.0, 1.0), 0.25)
NAN_LIFETIME = ChannelParams(0.0, 0.0, 1.0)


def nan_map(m, params, t):
    return np.full_like(m, np.nan) if (params, t) == NAN_MAP else m


def nan_fixed_point(iterated, closed):
    # the S iterated from NAN_NORMAL_FORM's map, found by its map
    at = np.all(closed == dynamics.ptm_at(*NAN_NORMAL_FORM), axis=(-2, -1))
    assert at.sum() == 1
    return np.where(at[:, None, None], np.nan, iterated)


def nan_lifetime(result, params1, params2):
    return result._replace(tau=np.nan) if params1 == NAN_LIFETIME else result


def nan_upsilon(dec, params, t):
    if (params, t) != NAN_NORMAL_FORM:
        return dec
    return dec._replace(upsilon=(math.nan,) * 4)


@pytest.mark.parametrize(("name", "doctor", "suite", "header", "case"), [
    pytest.param("ptm_at", nan_map, "ptm", "ptm-vs-integration: 315 cases",
                 "{}, t={}".format(*NAN_MAP), id="ptm"),
    pytest.param("fixed_point_iterate", nan_fixed_point, "sinkhorn",
                 "sinkhorn-normal-form: 240 cases", "{}, t={}".format(*NAN_NORMAL_FORM),
                 id="sinkhorn"),
    pytest.param("max_lifetime", nan_lifetime, "lifetime", "lifetime-closed-forms: 5 cases",
                 f"{NAN_LIFETIME}", id="lifetime"),
    pytest.param("decompose", nan_upsilon, "predicates", "normal-form-predicates: 303 cases",
                 "{}, t={}".format(*NAN_NORMAL_FORM), id="predicates"),
])
def test_a_nan_case_fails_its_verdict(capsys, monkeypatch, name, doctor, suite, header, case):
    code, lines, err = replay_doctored(capsys, monkeypatch, name, doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines.pop(suite) == f"[FAIL] {header}, max deviation nan ({case})"
    assert all(line.startswith("[PASS]") for line in lines.values())
    assert err == f"validation failed: {header.split(':')[0]} at {case}\n"


@pytest.mark.parametrize(("line", "tau"), [
    pytest.param(ChannelParams(0.0, 0.0, 2.0), None, id="depolarizing-line-without-a-root"),
    pytest.param(ChannelParams(1.0, 5.0, 0.0), 1.0, id="pure-loss-line-with-a-root"),
])
def test_a_missing_or_spurious_root_deviates_by_inf(capsys, monkeypatch, line, tau):
    def doctor(result, params1, params2):
        return result._replace(tau=tau) if params1 == line else result

    code, lines, err = replay_doctored(capsys, monkeypatch, "max_lifetime", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines.pop("lifetime") == (
        f"[FAIL] lifetime-closed-forms: 5 cases, max deviation inf ({line})"
    )
    assert all(other.startswith("[PASS]") for other in lines.values())
    assert err == f"validation failed: lifetime-closed-forms at {line}\n"


def test_a_normal_form_that_fails_its_self_check_fails_the_verdicts_that_read_it(
    capsys, monkeypatch
):
    # lambdas a millionth off at one case: decompose's self-check raises there, and
    # validate still prints every suite, the two that read normal forms failing on it
    line, t = NAN_NORMAL_FORM
    lambdas = sinkhorn.unital_lambdas

    def doctored(params, time):
        lams = lambdas(params, time)
        return tuple(lam * (1.0 + 1e-6) for lam in lams) if (params, time) == (line, t) else lams

    monkeypatch.setattr(sinkhorn, "unital_lambdas", doctored)
    with pytest.raises(RuntimeError, match="normal form self-check failed"):
        sinkhorn.decompose(line, t)
    code = cli.main(["validate"])
    captured = capsys.readouterr()
    lines = dict(zip(("ptm", "sinkhorn", "lifetime", "predicates"), captured.out.splitlines(),
                     strict=True))
    assert code == cli.EXIT_VALIDATION
    assert lines.pop("sinkhorn") == (
        f"[FAIL] sinkhorn-normal-form: 240 cases, max deviation inf ({line}, t={t})"
    )
    assert lines.pop("predicates") == (
        f"[FAIL] normal-form-predicates: 303 cases, max deviation inf ({line}, t={t})"
    )
    assert all(other.startswith("[PASS]") for other in lines.values())
    assert captured.err == "".join(
        f"validation failed: {suite} at {line}, t={t}\n"
        for suite in ("sinkhorn-normal-form", "normal-form-predicates")
    )
