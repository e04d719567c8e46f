"""Configuration files, CLI exit codes, drift sweeps and the F2 check."""

from dataclasses import replace
from pathlib import Path

import pytest

from adiakit import ConfigError, IntegratorConfig
from adiakit.cli import main
from adiakit.config import RunConfig
from adiakit.experiments import DriftConfig, check_f2, emit, order_sweep

NON_DEFAULT = RunConfig(fixture="charged_particle", params={"b": 1.5, "lam": 0.25},
                        initial=(0.1, 0.4, 0.2, 1.0), eps_grid=(0.3, 0.15),
                        horizon_c=0.5, samples=33, orders=(0, 2), order=1, strict=True,
                        method="rk4", rtol=1e-8, atol=1e-12, dt=0.01, max_steps=1000,
                        nodes=32, flow_mode="numeric",
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
    "[quadrature]\ninner_nodes = 32\n",
])
def test_config_rejects_unknown_sections_and_keys(text):
    with pytest.raises(ConfigError):
        RunConfig.parse(text)


@pytest.mark.parametrize("value", ["auto", "ai3", "ty3"])
def test_config_rejects_removed_variant_key(value):
    with pytest.raises(ConfigError, match="single definition"):
        RunConfig.parse(f"[experiment]\nvariant = {value}\n")


def test_config_rejects_removed_inner_nodes_key():
    with pytest.raises(ConfigError, match="one orbit"):
        RunConfig.parse("[quadrature]\nnodes = 64\ninner_nodes = 32\n")


# -- CLI exit codes ---------------------------------------------------------------

def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n")
    assert main(["check", "--config", good]) == 0
    assert main(["invariant", "--config", good, "--order", "1"]) == 0
    assert "F1" in capsys.readouterr().out

    # omega_scale != 1 breaks the momentum-map relation: a failed check
    broken = _write(tmp_path, "[fixture]\nname = elastic_pendulum\nomega_scale = 2.0\n",
                    "broken.ini")
    assert main(["check", "--config", broken]) == 1

    bad = _write(tmp_path, "[experiment]\nvariant = ai3\n", "bad.ini")
    assert main(["check", "--config", bad]) == 2
    assert main(["invariant", "--config", good, "--order", "3"]) == 2
    assert "single definition" in capsys.readouterr().err


def test_cli_rejects_removed_variant_flag(tmp_path):
    good = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n")
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--config", good, "--variant", "ai3"])
    assert exc.value.code == 2


# -- drift sweeps and the F2 check -----------------------------------------------

def test_order_sweep_bytes_independent_of_workers(tmp_path):
    config = DriftConfig(fixture="elastic_pendulum", eps_grid=(0.2, 0.1), samples=8,
                         integrator=IntegratorConfig(method="rk45", rtol=1e-9, atol=1e-12),
                         outer_nodes=32)
    written = {}
    for workers in (1, 2):
        report = order_sweep(replace(config, workers=workers))
        written[workers] = [
            Path(emit(report, fmt, tmp_path / f"drift{workers}.{fmt}")).read_bytes()
            for fmt in ("csv", "json")]
    assert written[1] == written[2]
    assert b"variant" not in written[1][1]


def test_drift_json_independent_of_output_dir(tmp_path):
    config = _write(tmp_path, "[fixture]\nname = elastic_pendulum\n\n"
                              "[quadrature]\nnodes = 16\n\n"
                              "[experiment]\neps = 0.2,0.1\nsamples = 8\n")
    reports = []
    for out in ("first", "second"):
        main(["drift", "--config", config, "--out", str(tmp_path / out), "--workers", "1"])
        reports.append((tmp_path / out / "drift.json").read_bytes())
    assert reports[0] == reports[1]
    assert b"first" not in reports[0]


def test_check_f2_on_pendulum_initial_point():
    check = check_f2(DriftConfig(fixture="elastic_pendulum"))
    assert check["ok"]
    assert check["closed_diff"] <= 1e-13
    assert check["ty3_residual"] <= 1e-4
