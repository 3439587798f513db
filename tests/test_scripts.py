"""Smoke tests of the experiment scripts under ``scripts/``."""

import importlib.util
import json
from pathlib import Path

import pytest

from ballcover.harness import THM12_EMPIRICAL_CAP

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ring_ratio_sweep_prints_one_row_per_ring(capsys):
    assert _load("ring_ratio_sweep").main(["--k-list", "10,20"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header.split() == ["k", "tiny", "radius", "perimeter", "ratio"]
    table = [[float(v) for v in row.split()] for row in rows]
    assert [row[:2] for row in table] == [[10.0, 0.2], [20.0, 0.1]]
    ratios = [row[2] for row in table]
    assert all(0.0 < r <= THM12_EMPIRICAL_CAP for r in ratios)
    spread = float(summary.split()[2])
    assert spread == pytest.approx(max(ratios) / min(ratios), rel=1e-4)


def test_pair_layer_timing_prints_one_json_line_per_size(capsys):
    assert _load("pair_layer_timing").main(["--sizes", "200,300", "--repeats", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["n"] for row in rows] == [200, 300]
    for row in rows:
        assert set(row) == {"n", "pairs", "best_s", "repeats", "nproc", "commit"}
        assert row["pairs"] > 0 and row["best_s"] > 0.0
        assert row["repeats"] == 2 and row["nproc"] >= 1


def test_packing_timing_prints_one_json_line_per_eps(capsys):
    argv = ["--eps-list", "0.2,0.05", "--n-max", "60", "--repeats", "1"]
    assert _load("packing_timing").main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["eps"] for row in rows] == [0.2, 0.05]
    for row in rows:
        assert set(row) == {
            "eps", "disks", "stop", "shrinking", "pocket_solves", "rejections", "retired",
            "trials", "solves", "cap_volumes", "probes", "probe_s", "solve_s", "best_s",
            "repeats", "nproc", "commit",
        }
        assert row["disks"] == 60 and row["stop"] == "n_max"
        assert 0 < row["pocket_solves"] <= row["solves"] <= row["trials"]
        assert 0 <= row["rejections"] < row["pocket_solves"]
        assert 0 <= row["retired"] <= row["rejections"]
        assert row["cap_volumes"] >= 2 * row["solves"]
        # one probe accepts each placement; every other one is a rejection
        assert row["probes"] == row["disks"] + row["rejections"] and row["best_s"] > 0.0
        assert row["probe_s"] > 0.0 and row["solve_s"] > 0.0
        assert row["repeats"] == 1 and row["nproc"] >= 1
