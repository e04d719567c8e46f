"""``tools/bench_pairs.py``: the order of paired runs and their summary."""

import importlib
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def run(workload, seed, side, run_s, rss=30.0, setup_s=0.1):
    return {"workload": workload, "seconds": 10.0, "seed": seed, "side": side,
            "correct": True, "attempted": 20, "failed": 0,
            "metrics": {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss}}


def test_seeds_and_the_order_of_the_sides(pairs):
    assert pairs.parse_seeds("21-30") == list(range(21, 31))
    assert pairs.parse_seeds("7") == [7]
    assert [pairs.order(seed) for seed in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_synthetic_runs(pairs):
    parent = [0.080, 0.084, 0.079, 0.090, 0.083]
    change = [0.075, 0.078, 0.081, 0.083, 0.077]  # lower at every seed but seed 3
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [run("drift_order2", seed, "parent", p, rss=30.0),
                 run("drift_order2", seed, "change", c, rss=30.0 + 0.1 * (seed % 2))]
    runs.append(run("numeric_flow", 1, "parent", 0.016))
    runs.append(dict(run("numeric_flow", 1, "change", 0.0), metrics=None))  # printed no result
    summary = pairs.summarize(runs, DECLARED)
    got = summary["drift_order2"]["run_s"]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert got["parent"] == {"median": median, "q1": q1, "q3": q3, "n": 5}
    assert got["parent"]["median"] == 0.083 and got["change"]["median"] == 0.078
    assert got["change"]["q1"] == 0.077 and got["change"]["q3"] == 0.081
    assert got["change_better_pairs"] == "4/5"
    assert got["change_over_parent_median"] == pytest.approx(0.078 / 0.083)
    # ties are no win; higher RSS at the odd seeds loses them
    assert summary["drift_order2"]["setup_s"]["change_better_pairs"] == "0/5"
    assert summary["drift_order2"]["peak_rss_mb"]["change_better_pairs"] == "0/5"
    flow = summary["numeric_flow"]["run_s"]
    assert flow["parent"]["n"] == 1 and flow["change"]["n"] == 0
    assert flow["change_better_pairs"] == "0/0" and flow["change_over_parent_median"] is None


def test_main_prints_the_summary_after_writing_the_bench_file(pairs, tmp_path, monkeypatch,
                                                              capsys):
    # one line per workload and metric, both sides' median [q1, q3], the pairs
    # the change wins and the ratio of the medians; a side without runs says so
    roots = [tmp_path / side for side in pairs.SIDES]
    for root in roots:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("", encoding="utf-8")
    (roots[1] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    run_s = {("parent", 1): 0.080, ("change", 1): 0.075, ("parent", 2): 0.084,
             ("change", 2): 0.078, ("parent", 3): 0.079, ("change", 3): 0.081}

    def fake_run(root, side, workload, seed, seconds):
        if workload == "numeric_flow" and side == "change":
            return dict(run(workload, seed, side, 0.0), metrics=None, error="no output")
        return run(workload, seed, side, run_s[side, seed])

    monkeypatch.setattr(pairs, "run_side", fake_run)
    out = tmp_path / "BENCH.json"
    assert pairs.main([str(roots[0]), str(roots[1]), "--workload", "drift_order2",
                       "--workload", "numeric_flow", "--seeds", "1-3", "--seconds", "1",
                       "--out", str(out)]) == 0
    assert out.is_file()
    lines = capsys.readouterr().out.splitlines()
    summary = lines[-2 * len(DECLARED):]
    assert summary == pairs.summary_lines(json.loads(out.read_text())["summary"])
    assert summary[1] == ("drift_order2 run_s: parent 0.08 [0.0795, 0.082], change 0.078 "
                          "[0.0765, 0.0795], change better in 2/3 pairs, change/parent 0.9750")
    assert summary[0].startswith("drift_order2 setup_s: parent 0.1 [0.1, 0.1], change 0.1 ")
    assert summary[0].endswith("change better in 0/3 pairs, change/parent 1.0000")
    assert summary[4] == ("numeric_flow run_s: parent 0.08 [0.0795, 0.082], change no runs, "
                          "change better in 0/0 pairs, change/parent n/a")
