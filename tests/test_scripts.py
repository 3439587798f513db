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
        assert set(row) == {
            "n", "pairs", "best_s", "vitali_s", "besicovitch_s", "perimeter_besicovitch_s",
            "perimeter_vitali_s", "repeats", "nproc", "commit",
        }
        assert row["pairs"] > 0 and row["best_s"] > 0.0
        assert all(row[key] > 0.0 for key in row if key.endswith("_s"))
        assert row["repeats"] == 2 and row["nproc"] >= 1


def test_packing_timing_prints_one_json_line_per_eps(capsys):
    argv = ["--eps-list", "0.2,0.05", "--n-max", "60", "--repeats", "1"]
    assert _load("packing_timing").main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["eps"] for row in rows] == [0.2, 0.05]
    for row in rows:
        assert set(row) == {
            "eps", "disks", "stop", "shrinking", "pocket_solves", "trials", "solves",
            "cap_volumes", "probes", "probe_s", "solve_s", "best_s", "repeats", "nproc",
            "commit",
        }
        assert row["disks"] == 60 and row["stop"] == "n_max"
        assert 0 < row["pocket_solves"] <= row["solves"] <= row["trials"]
        assert row["cap_volumes"] >= 2 * row["solves"]
        # one probe accepts each placement after the first, which sits at
        # angle 0, and no other probe is made
        assert row["probes"] == row["disks"] - 1 and row["best_s"] > 0.0
        assert row["probe_s"] > 0.0 and row["solve_s"] > 0.0
        assert row["repeats"] == 1 and row["nproc"] >= 1


def test_mc_timing_prints_one_json_line_per_dimension_and_size(capsys):
    argv = ["--dims", "2,3", "--sizes", "2,30", "--samples", "500", "--repeats", "2"]
    assert _load("mc_timing").main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["d"], row["n"]) for row in rows] == [(2, 2), (2, 30), (3, 2), (3, 30)]
    for row in rows:
        assert set(row) == {
            "d", "n", "samples", "volume_samples", "pairs_s", "perimeter_s_per_ball",
            "volume_s_per_ball", "volume_std_error", "drawing_balls", "one_neighbour_balls",
            "repeats", "nproc", "commit",
        }
        assert row["samples"] == 500 and row["volume_samples"] == 20000
        assert row["pairs_s"] > 0.0 and row["volume_s_per_ball"] > 0.0
        assert row["volume_std_error"] >= 0.0
        assert row["perimeter_s_per_ball"] > 0.0
        assert 0 <= row["one_neighbour_balls"] <= row["drawing_balls"] <= row["n"]
        assert row["repeats"] == 2 and row["nproc"] >= 1
