"""Configuration files, CLI exit codes, drift sweeps and the F2 check."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from adiakit import (ConfigError, DomainError, InvalidParameter, circle, experiments, fixtures,
                     kernel)
from adiakit.cli import main
from adiakit.config import RunConfig
from adiakit.experiments import check_f2, emit, order_sweep
from adiakit.invariants import HYPOTHESIS_TOL

NON_DEFAULT = RunConfig(fixture="charged_particle", params={"b": 1.5, "lam": 0.25},
                        initial=(0.1, 0.4, 0.2, 1.0), eps_grid=(0.3, 0.15),
                        horizon_c=0.5, samples=33, orders=(0, 2), order=1,
                        rtol=1e-8, atol=1e-12, max_steps=1000, nodes=32, flow_mode="numeric",
                        out_dir="results", out_format="json")


# -- configuration -------------------------------------------------------------

@pytest.mark.parametrize("config", [RunConfig(), NON_DEFAULT], ids=["default", "non_default"])
def test_config_round_trip(config):
    text = config.serialize()
    assert RunConfig.parse(text) == config
    assert RunConfig.parse(text).serialize() == text


@pytest.mark.parametrize("text", [
    "[plotting]\ncolor = red\n",
    "[experiment]\nsamples = 8\nwindow = 3\n",
    "[fixture]\nname = elastic_pendulum\nmass = 2.0\n",
    "[fixture]\nname = rigid_body\n",
    "[fixture]\nname = elastic_pendulum\nomega_scale = 2.0\n",
    "[quadrature]\ninner_nodes = 32\n",
    "[experiment]\nvariant = ai3\n",
    "[experiment]\nstrict = true\n",
])
def test_config_rejects_unknown_sections_and_keys(text):
    with pytest.raises(ConfigError):
        RunConfig.parse(text)


def test_config_takes_rk45_as_the_only_method():
    # INI files keep naming the one integrator; the fixed-step choice and its
    # step size are gone
    assert RunConfig.parse("[integrator]\nmethod = rk45\nrtol = 1e-9\n") == RunConfig(rtol=1e-9)
    with pytest.raises(ConfigError, match="'method': 'rk4' not in"):
        RunConfig.parse("[integrator]\nmethod = rk4\n")
    with pytest.raises(ConfigError, match="unknown keys in \\[integrator\\]: \\['dt'\\]"):
        RunConfig.parse("[integrator]\ndt = 0.01\n")


@pytest.mark.parametrize("config, message", [
    (RunConfig(eps_grid=(0.2, 0.2)), "distinct"),
    (RunConfig(eps_grid=(1.5, 0.1)), "in \\(0, 1\\)"),
    (RunConfig(samples=1), "two samples"),
    (RunConfig(rtol=0.0), "positive"),
    (RunConfig(eps_grid=()), "in \\(0, 1\\)"),
    (RunConfig(orders=(-1, 1)), "among 0, 1 and 2: \\[-1, 1\\]"),
    (RunConfig(orders=()), "among 0, 1 and 2: \\[\\]"),
    (RunConfig(horizon_c=-1.0), "positive and finite"),
    (RunConfig(horizon_c=float("inf")), "positive and finite"),
])
def test_build_rejects_a_run_no_sweep_can_take(config, message):
    with pytest.raises(ValueError, match=message):
        config.build()


@pytest.mark.parametrize("command", ["drift", "invariant", "simulate"])
def test_build_rejects_an_initial_point_outside_the_box(tmp_path, capsys, command):
    # q2 = 0.3 lies below the particle's box, which starts at 0.5; no command
    # integrates from there or writes a report
    config = RunConfig(fixture="charged_particle", initial=(0.1, 0.3, 0.2, 0.3), orders=(0, 1))
    with pytest.raises(DomainError, match="outside the system domain"):
        config.build()
    path = _write(tmp_path, config.serialize())
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "outside the system domain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fixture, param", [("elastic_pendulum", "omega"),
                                            ("elastic_pendulum", "gamma"),
                                            ("charged_particle", "b"),
                                            ("charged_particle", "lam")])
def test_fixtures_reject_a_non_finite_parameter(fixture, param, value):
    with pytest.raises(InvalidParameter, match="must be finite"):
        fixtures.get_fixture(fixture, **{param: float(value)})


@pytest.mark.parametrize("command", ["invariant", "check"])
@pytest.mark.parametrize("fixture", ["name = elastic_pendulum\ngamma = nan",
                                     "name = charged_particle\nlambda = inf"],
                         ids=["gamma_nan", "lambda_inf"])
def test_cli_rejects_a_non_finite_fixture_parameter(tmp_path, capsys, command, fixture):
    # a usage error (exit 2), not an unresolved quadrature or a NumericalError (exit 1)
    path = _write(tmp_path, f"[fixture]\n{fixture}\n")
    assert main([command, "--config", path]) == 2
    assert "must be finite" in capsys.readouterr().err


# -- CLI exit codes ---------------------------------------------------------------

def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    good = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n")
    assert main(["check", "--config", good]) == 0
    assert main(["invariant", "--config", good, "--order", "1"]) == 0
    assert "F1" in capsys.readouterr().out

    bad = _write(tmp_path, "[experiment]\nvariant = ai3\n", "bad.ini")
    assert main(["check", "--config", bad]) == 2
    assert main(["invariant", "--config", good, "--order", "3"]) == 2
    assert "variant" in capsys.readouterr().err

    # a doubled frequency breaks the momentum-map relation: a failed check
    def broken(**params):
        fixture = fixtures.elastic_pendulum(**params)
        return replace(fixture, system=replace(fixture.system, omega=lambda f, s: 2.0))

    monkeypatch.setitem(fixtures._REGISTRY, "elastic_pendulum", broken)
    assert main(["check", "--config", good]) == 1
    assert "momentum_map" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--eps", "0"],
    ["simulate", "--eps", "-0.1"],
    ["simulate", "--eps", "1.5"],
    ["invariant", "--eps", "-3"],
])
def test_cli_rejects_an_eps_flag_outside_the_unit_interval(tmp_path, capsys, argv):
    config = _write(tmp_path, "[experiment]\nsamples = 8\n")
    assert main([argv[0], "--config", config, "--out", str(tmp_path / "out"), *argv[1:]]) == 2
    assert f"--eps {float(argv[2])!r} must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_prints_four_checks_in_order_as_text_and_json(tmp_path, capsys):
    config = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n")
    names = ["periodicity", "momentum_map", "adiabatic", "period_energy"]
    assert main(["check", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == names
    assert all(line.endswith(f"tol {HYPOTHESIS_TOL:.1e}  PASS") for line in lines)
    assert main(["check", "--config", config, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["flags", "ok", "residuals", "tolerances"]
    assert report["ok"] is True
    for part in ("residuals", "tolerances", "flags"):
        assert sorted(report[part]) == sorted(names)
    assert set(report["tolerances"].values()) == {HYPOTHESIS_TOL}


def test_numeric_invariant_integrates_one_orbit_per_point(tmp_path, monkeypatch, capsys):
    # F1 and F2 both come from the one dual orbit of the point
    runs = []
    integrate = circle.integrate
    monkeypatch.setattr(circle, "integrate", lambda *a, **kw: runs.append(1) or integrate(*a, **kw))
    config = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n\n"
                              "[quadrature]\nnodes = 8\nflow_mode = numeric\n")
    assert main(["invariant", "--config", config, "--order", "2"]) == 0
    assert "F2" in capsys.readouterr().out
    assert len(runs) == 1


def test_invariant_flags_an_unresolved_quadrature(tmp_path, capsys):
    # the particle's orbit profiles need 16 nodes: at a cap of 8 its F2 is
    # aliased, which stderr and the exit code say; stdout keeps its lines
    printed = {}
    for cap, code in ((8, 1), (64, 0)):
        config = _write(tmp_path, "[fixture]\nname = charged_particle\n\n"
                                  f"[quadrature]\nnodes = {cap}\n")
        assert main(["invariant", "--config", config, "--order", "2"]) == code
        printed[cap], err = capsys.readouterr()
        assert ("unresolved at the node cap 8" in err) == (cap == 8)
    assert [line[:8] for line in printed[8].splitlines()] == \
        [line[:8] for line in printed[64].splitlines()]
    assert printed[8] != printed[64]


def test_check_flags_an_unresolved_quadrature(tmp_path, capsys):
    # the adiabatic check averages the particle's d1J, whose profiles carry
    # harmonics up to 2: a cap of 4 nodes leaves them unresolved, 8 resolves
    # them
    for cap, code in ((4, 1), (8, 0)):
        config = _write(tmp_path, "[fixture]\nname = charged_particle\n\n"
                                  f"[quadrature]\nnodes = {cap}\n")
        assert main(["check", "--config", config]) == code
        out, err = capsys.readouterr()
        assert out.count("PASS") == 4
        assert ("unresolved at the node cap 4" in err) == (cap == 4)


def test_cli_rejects_removed_variant_flag(tmp_path):
    good = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n")
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--config", good, "--variant", "ai3"])
    assert exc.value.code == 2


# -- drift sweeps and the F2 check -----------------------------------------------

def test_order_sweep_bytes_independent_of_workers(tmp_path):
    config = RunConfig(fixture="elastic_pendulum", eps_grid=(0.2, 0.1), samples=8,
                       rtol=1e-9, atol=1e-12, nodes=32)
    written, resolution, steps = {}, {}, {}
    for workers in (1, 2):
        report = order_sweep(config, workers)
        written[workers] = [
            Path(emit(report, fmt, tmp_path / f"drift{workers}.{fmt}")).read_bytes()
            for fmt in ("csv", "json")]
        resolution[workers] = report.resolution
        steps[workers] = report.steps
    assert written[1] == written[2]
    assert b"variant" not in written[1][1]
    assert resolution[1] == resolution[2] == {0.2: (8, True), 0.1: (8, True)}
    assert steps[1] == steps[2]
    assert list(steps[1]) == [0.2, 0.1]
    for counters in steps[1].values():
        assert counters["rhs_calls"] >= 1 + 12 * counters["accepted"] > 1
    assert b"rhs_calls" not in written[1][1]


def test_order_sweep_traces_h_gradient_once(monkeypatch):
    # the ε jobs of a one-worker sweep share one build, and so one trace of
    # H's gradient; a pool worker keeps its own
    traces = []
    trace = kernel.trace_gradient
    monkeypatch.setattr(kernel, "trace_gradient", lambda *a: traces.append(1) or trace(*a))
    monkeypatch.setattr(experiments, "_last_build", [])
    config = RunConfig(fixture="elastic_pendulum", eps_grid=(0.2, 0.1, 0.05), samples=8,
                       rtol=1e-9, atol=1e-12, nodes=32)
    order_sweep(config, 1)
    assert len(traces) == 1


def test_order_sweep_takes_eps_descending_and_serialize_keeps_their_order():
    config = RunConfig.parse("[quadrature]\nnodes = 16\n\n"
                             "[experiment]\neps = 0.1,0.2\nsamples = 8\norders = 0,1\n")
    assert "eps = 0.1,0.2\n" in config.serialize()
    report = order_sweep(config)
    assert report.eps_grid == (0.2, 0.1)
    assert [c.eps for c in report.cells] == [0.2, 0.2, 0.1, 0.1]
    assert list(report.steps) == [0.2, 0.1]


def test_particle_at_cap_8_is_flagged_unresolved(tmp_path, capsys):
    # the particle's orbit profiles need 16 nodes: at a cap of 8 each eps is
    # evaluated at 8 and flagged, on stdout, stderr and in the exit code
    report = order_sweep(RunConfig(fixture="charged_particle", eps_grid=(0.2, 0.1),
                                   samples=8, nodes=8))
    assert report.resolution == {0.2: (8, False), 0.1: (8, False)}
    assert report.unresolved_eps() == [0.2, 0.1]
    for cap, code in ((8, 1), (64, 0)):
        config = _write(tmp_path, "[fixture]\nname = charged_particle\n\n"
                                  f"[quadrature]\nnodes = {cap}\n\n"
                                  "[experiment]\neps = 0.2,0.1\nsamples = 8\norders = 0,2\n")
        assert main(["drift", "--config", config, "--out", str(tmp_path / "out"),
                     "--workers", "1"]) == code
        out, err = capsys.readouterr()
        n = min(cap, 16)
        assert f"orbit nodes  eps 0.2: {n}  eps 0.1: {n}\n" in out
        assert [line.split(":")[0] for line in out.splitlines()
                if line.startswith("integrator")] == ["integrator  eps 0.2", "integrator  eps 0.1"]
        assert ("unresolved at the node cap 8 for eps 0.2, 0.1" in err) == (cap == 8)
        assert ("unresolved at the node cap 8 for the F2 check" in err) == (cap == 8)
        assert "UnresolvedQuadrature" not in err


def test_check_f2_carries_the_unresolved_flag():
    # the particle's F2 needs 16 nodes: at a cap of 8 the check fails on its
    # flag, which comes back in the result rather than as a warning
    config = RunConfig(fixture="charged_particle", nodes=8)
    check = check_f2(config)
    assert not check["resolved"] and not check["ok"]
    assert check_f2(replace(config, nodes=64))["ok"]


@pytest.mark.parametrize("cap, code", [(8, 1), (64, 0)])
def test_simulate_flags_an_unresolved_cap(tmp_path, capsys, cap, code):
    # the series columns are still written, and the exit code says whether
    # the node cap resolved their orbit profiles
    config = _write(tmp_path, "[fixture]\nname = charged_particle\n\n"
                              f"[quadrature]\nnodes = {cap}\n\n"
                              "[experiment]\neps = 0.2\nsamples = 8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == code
    assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 9
    err = capsys.readouterr().err
    assert ("warning: orbit profiles unresolved at the node cap 8" in err) == (cap == 8)


SMALL_DRIFT = ("[fixture]\nname = elastic_pendulum\n\n[quadrature]\nnodes = 16\n\n"
               "[experiment]\neps = 0.2,0.1\nsamples = 8\n")


def test_drift_json_independent_of_output_dir(tmp_path):
    config = _write(tmp_path, SMALL_DRIFT)
    reports = []
    for out in ("first", "second"):
        main(["drift", "--config", config, "--out", str(tmp_path / out), "--workers", "1"])
        reports.append((tmp_path / out / "drift.json").read_bytes())
    assert reports[0] == reports[1]
    assert b"first" not in reports[0]


def test_drift_json_independent_of_report_format(tmp_path):
    config = _write(tmp_path, SMALL_DRIFT)
    reports = []
    for fmt in ("json", "both"):
        out = tmp_path / fmt
        main(["drift", "--config", config, "--out", str(out), "--workers", "1",
              "--format", fmt])
        reports.append((out / "drift.json").read_bytes())
    assert reports[0] == reports[1]
    assert b"[output]" not in reports[0]


def test_check_f2_on_pendulum_initial_point():
    check = check_f2(RunConfig(fixture="elastic_pendulum"))
    assert check["ok"] and check["resolved"]
    assert check["closed_diff"] <= 1e-13
    assert check["ty3_residual"] <= 1e-12


def test_check_f2_fails_on_a_residual_far_above_rounding(monkeypatch):
    # a resolved F2 that matches its closed form still fails when the defect
    # of its homological equation is 1e-6: rounding leaves it below 1e-12
    resolve_ty3 = experiments.resolve_ty3

    def off_by_1e_6(*args):
        (value, _), n, resolved = resolve_ty3(*args)
        return (value, 1e-6), n, resolved

    monkeypatch.setattr(experiments, "resolve_ty3", off_by_1e_6)
    check = check_f2(RunConfig(fixture="elastic_pendulum"))
    assert check["resolved"] and check["closed_diff"] <= 1e-13
    assert not check["ok"]
