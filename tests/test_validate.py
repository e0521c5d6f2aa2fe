"""validate's one pass: each input formed once, and each verdict failing on a doctored input."""

from collections import Counter
from dataclasses import replace

import numpy as np

from qsink import cli, dynamics, entanglement, sinkhorn, validate
from qsink.dynamics import ChannelParams


def test_one_pass_forms_each_map_and_normal_form_once(monkeypatch):
    # counted through every module that binds them, as a call from anywhere counts
    calls = Counter()
    for module in (dynamics, sinkhorn, entanglement, validate):
        for name in ("ptm_at", "ptm_via_integration", "decompose"):
            if name in vars(module):
                def counted(*args, _name=name, _call=getattr(module, name)):
                    calls[_name] += 1
                    return _call(*args)

                monkeypatch.setattr(module, name, counted)
    results = validate.run_all()
    assert calls == {"ptm_at": 315, "ptm_via_integration": 5, "decompose": 240}
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


def test_an_upsilon_off_by_a_millionth_fails_the_predicates_verdict(capsys, monkeypatch):
    line = ChannelParams(1.0, 5.0, 1.0)

    def doctor(dec, params, t):
        if (params, t) != (line, 0.25):
            return dec
        return replace(dec, upsilon=dec.upsilon + np.diag([1e-6, 0.0, 0.0, 0.0]))

    code, lines, err = replay_doctored(capsys, monkeypatch, "decompose", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["predicates"] == (
        f"[FAIL] normal-form-predicates: 303 cases, max deviation 0.000e+00 ({line}, t=0.25)"
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
        return replace(result, tau=result.tau * (1.0 + 1e-6)) if params1 == line else result

    code, lines, err = replay_doctored(capsys, monkeypatch, "max_lifetime", doctor)
    assert code == cli.EXIT_VALIDATION
    assert lines["lifetime"].startswith(
        "[FAIL] lifetime-closed-forms: 5 cases, max deviation 1.000e-06"
    )
    assert lines["lifetime"].endswith(f"({line})")
    assert err == f"validation failed: lifetime-closed-forms at {line}\n"
