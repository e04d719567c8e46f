"""``tools/report_diff.py`` on synthetic trees kept as ``tools/report_digest.py
--keep`` keeps them."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LABEL = "charged_particle/analytic/drift"
CSV = "eps,order,drift,horizon,samples\n0.2,1,0.0003,5.0,400\n0.1,1,7.5e-05,10.0,400\n"


@pytest.fixture
def report_diff(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("report_diff")


def drift_json(slope):
    return {"cells": [{"eps": 0.2, "order": 1, "drift": 0.0003}],
            "slopes": {"1": {"excluded_eps": [], "n_points": 2, "order": 1,
                             "residual": 0.0, "slope": slope}}}


def keep(root: Path, label=LABEL, slope=0.0123, csv=CSV):
    """One invocation's outputs, kept under ``root/label``."""
    kept = root / label
    (kept / "files" / "out").mkdir(parents=True)
    (kept / "exit_code").write_text("0\n", encoding="utf-8")
    (kept / "stdout").write_bytes(b"order 1 slope 2.0000\nwall time <masked>\n")
    (kept / "stderr").write_bytes(b"")
    (kept / "files" / "out" / "drift.csv").write_text(csv, encoding="utf-8")
    (kept / "files" / "out" / "drift.json").write_text(
        json.dumps(drift_json(slope), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return root


def run(report_diff, capsys, a, b):
    status = report_diff.main([str(a), str(b)])
    return status, capsys.readouterr().out


def test_identical_trees_exit_0_silently(report_diff, capsys, tmp_path):
    a, b = keep(tmp_path / "a"), keep(tmp_path / "b")
    assert run(report_diff, capsys, a, b) == (0, "")


def test_a_slope_1e_16_apart_is_printed_under_slopes(report_diff, capsys, tmp_path):
    slope_a = 0.0123
    slope_b = slope_a + 1e-16
    assert slope_b - slope_a == pytest.approx(1e-16, rel=0.02)
    a, b = keep(tmp_path / "a", slope=slope_a), keep(tmp_path / "b", slope=slope_b)
    status, out = run(report_diff, capsys, a, b)
    assert status == 1
    assert out.splitlines() == [
        f"{LABEL}: exit_code same, stdout same, stderr same",
        f"    out/drift.json: slopes {slope_b - slope_a:.3g}"]


def test_a_csv_with_another_cell_count_differs_in_layout(report_diff, capsys, tmp_path):
    a = keep(tmp_path / "a")
    b = keep(tmp_path / "b", csv=CSV.replace(",400\n", "\n", 1))
    status, out = run(report_diff, capsys, a, b)
    assert status == 1
    assert "    out/drift.csv: layout differs" in out.splitlines()


def test_a_label_kept_on_one_side_only_exits_2(report_diff, capsys, tmp_path):
    a = keep(keep(tmp_path / "a"), label="elastic_pendulum/analytic/drift")
    b = keep(tmp_path / "b")
    status, out = run(report_diff, capsys, a, b)
    assert status == 2
    assert out == f"elastic_pendulum/analytic/drift: kept in {a} only\n"
