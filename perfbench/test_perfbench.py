"""Tests of the benchmark itself: every workload end to end at reduced
size, and every check rejecting a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ballcover import geometry, maximal1d, selection  # noqa: E402

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "packing": dict(eps=(0.05, 0.03), n_max=60),
    "montecarlo": dict(sizes=(3, 12, 25), samples=2000, thm13_count=2),
    "select": dict(n=300, side=7.0, arc_circles=10, arc_samples=4000),
    "maxfn": dict(pieces=(1, 4, 9), levels=40, long_pieces=(12,), probes=60),
}


def one_round(name, tmp_path, **size):
    wl = workloads.WORKLOADS[name](3, tmp_path, **{**SMALL[name], **size})
    wl.setup()
    ops = wl.ops()
    rounds, first, differed, _, _ = run.run_rounds(ops, 0.0)
    assert rounds == 1
    return wl, ops, first


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_its_checks(name, tmp_path):
    wl, ops, first = one_round(name, tmp_path)
    for k, output in enumerate(first):
        assert not isinstance(output, run.Raised), output.text
        assert wl.check(k, output) == [], ops[k].name
        assert wl.items(k, ops[k], output) >= 0
    json.dumps(wl.describe())


def test_rounds_repeat_byte_identical(tmp_path):
    wl = workloads.MaxFn(5, tmp_path, **SMALL["maxfn"])
    wl.setup()
    rounds, _, differed, durations, _ = run.run_rounds(wl.ops(), 0.0, tracing.Tracer())
    assert rounds == 2 and differed == [0] * len(wl.ops())
    assert all(len(ts) == 2 for ts in durations)


# ---------------------------------------------------------------------------
# corrupted outputs are rejected


def test_packing_perturbed_radius(tmp_path):
    wl, _, first = one_round("packing", tmp_path)
    packing = wl.packings[0]
    centers, radii = packing.centers.copy(), packing.radii.copy()
    assert checks.check_packing(centers, radii, wl.eps[0], wl.delta)[0] == []
    radii[5] *= 1.0 + 1e-7
    assert checks.check_packing(centers, radii, wl.eps[0], wl.delta)[0]


def test_rate_perturbed_perimeter(tmp_path):
    wl, _, first = one_round("packing", tmp_path)
    assert wl.check(0, first[0]) == []
    rate = checks.parse_rate(first[0][2].decode())
    assert checks.check_rate(rate, wl.refs) == []
    bad = dict(rate, raw_ratio=[rate["raw_ratio"][0] * (1 + 1e-7)] + rate["raw_ratio"][1:])
    assert checks.check_rate(bad, wl.refs)
    flat = dict(rate, ratio=sorted(rate["ratio"], reverse=True))
    assert checks.check_rate(flat, wl.refs)


def _mc_case(dim):
    rng = np.random.default_rng(11)
    centers = rng.uniform(-1.0, 1.0, size=(8, dim))
    radii = rng.uniform(0.3, 0.6, size=8)
    balls = workloads.collection(dim, centers.tolist(), radii.tolist())
    return balls, centers, radii


def test_mc_value_moved_by_ten_sigma_2d():
    balls, centers, radii = _mc_case(2)
    est = geometry.union_perimeter_mc(balls, 4000, 1)
    exact = geometry.union_perimeter_2d(balls).value
    assert checks.check_mc(est, centers, radii, 4000, exact) == []
    moved = dataclasses.replace(est, value=est.value + 10.0 * est.std_error)
    assert checks.check_mc(moved, centers, radii, 4000, exact)


def test_mc_value_moved_by_ten_sigma_3d():
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.0, 1.3, 0.0], [-1.1, 0.0, 0.3]])
    radii = rng.uniform(0.6, 0.7, size=4)
    assert checks.sphere_caps(centers, radii) is not None
    balls = workloads.collection(3, centers.tolist(), radii.tolist())
    est = geometry.union_perimeter_mc(balls, 4000, 2)
    assert checks.check_mc(est, centers, radii, 4000) == []
    moved = dataclasses.replace(est, value=est.value - 10.0 * est.std_error)
    assert checks.check_mc(moved, centers, radii, 4000)


def test_sphere_caps_closed_form():
    # Two unit spheres at distance 1: each loses a cap of height 1/2.
    free = checks.sphere_caps(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([1.0, 1.0]))
    assert free == pytest.approx([4 * math.pi - math.pi] * 2, rel=1e-14)
    # Three overlapping at one sphere's same side: caps meet, no closed form.
    crowded = np.array([[0.0, 0, 0], [1.0, 0.2, 0], [1.0, -0.2, 0]])
    assert checks.sphere_caps(crowded, np.ones(3)) is None


def test_thm13_failed_report(tmp_path):
    wl, _, first = one_round("montecarlo", tmp_path)
    code, err, data = first[-1]
    text = data.decode().replace("passed=True", "passed=False", 1)
    parsed = checks.parse_check_report(text)
    assert checks.check_thm13_report(parsed, wl.thm13_count)


@pytest.fixture(scope="module")
def select_outputs(tmp_path_factory):
    return one_round("select", tmp_path_factory.mktemp("select"))


def _selection(select_outputs, alg):
    wl, ops, first = select_outputs
    k = wl.ALGORITHMS.index(alg)
    return wl, checks.parse_selection(first[k][2].decode())


def _drop_chosen(sel):
    sel = copy.deepcopy(sel)
    s = sel["selected"].pop(len(sel["selected"]) // 2)
    del sel["groups"][s]
    sel["families"] = [[i for i in f if i != s] for f in sel["families"]]
    return sel


def test_vitali_dropped_chosen_ball(select_outputs):
    wl, sel = _selection(select_outputs, "vitali")
    assert checks.check_vitali(sel, wl.centers, wl.radii) == []
    assert checks.check_vitali(_drop_chosen(sel), wl.centers, wl.radii)


def test_besicovitch_dropped_chosen_ball(select_outputs):
    wl, sel = _selection(select_outputs, "besicovitch")
    assert checks.check_besicovitch(sel, wl.centers, wl.radii) == []
    assert checks.check_besicovitch(_drop_chosen(sel), wl.centers, wl.radii)


def test_perimeter_besicovitch_wrong_family(select_outputs):
    wl, sel = _selection(select_outputs, "perimeter-besicovitch")
    assert checks.check_besicovitch(sel, wl.centers, wl.radii, winner_only=True) == []
    smallest = min(sel["families"], key=lambda f: wl.radii[f].sum())
    bad = dict(sel, selected=list(smallest))
    assert checks.check_besicovitch(bad, wl.centers, wl.radii, winner_only=True)


def test_perimeter_vitali_corrupted(select_outputs):
    wl, sel = _selection(select_outputs, "perimeter-vitali")
    c, r = wl.centers, wl.radii
    assert checks.check_perimeter_vitali(sel, c, r, wl.eps) == []
    # A chosen ball's radius grown until it overlaps a neighbour too much.
    grown = r.copy()
    pairs, _ = checks.overlapping_pairs(c[sel["selected"]], r[sel["selected"]])
    a = sel["selected"][pairs[0, 0]]
    grown[a] *= 1.5
    assert checks.check_perimeter_vitali(sel, c, grown, wl.eps)
    # A far input put into a group.
    far = int(np.argmax(np.hypot(*(c - c[sel["selected"][0]]).T)))
    moved = copy.deepcopy(sel)
    moved["groups"][sel["selected"][0]].append(far)
    assert checks.check_perimeter_vitali(moved, c, r, wl.eps)


def test_free_arc_perturbed(select_outputs):
    wl, ops, first = select_outputs
    balls = workloads.collection(2, wl.centers.tolist(), wl.radii.tolist())
    lengths = np.array(geometry.free_arc_lengths_2d(balls))
    total = first[-1].value
    busy = [int(np.argmax(lengths < 2 * math.pi * wl.radii - 1e-3))]
    assert checks.check_free_arcs(lengths, total, wl.centers, wl.radii, busy, 4000) == []
    bad = lengths.copy()
    bad[busy[0]] += 0.05 * wl.radii[busy[0]]
    assert checks.check_free_arcs(bad, math.fsum(bad), wl.centers, wl.radii, busy, 4000)


def test_lens_area_against_sampling():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(400_000, 2))
    inside = (pts**2).sum(axis=1) < 1.0
    inside &= ((pts - [0.9, 0.3]) ** 2).sum(axis=1) < 0.5**2
    estimate = 4.0 * inside.mean()
    exact = float(checks.lens_area(1.0, 0.5, math.hypot(0.9, 0.3)))
    assert abs(estimate - exact) < 5 * math.sqrt(exact * 4.0 / 400_000)
    # Thin lens: agrees with the program's own closed form to 1e-12.
    thin = float(checks.lens_area(1e-3, 1.0, 1.0 + 1e-3 - 1e-9))
    assert thin == pytest.approx(geometry.lens_volume(
        geometry.Ball((0.0, 0.0), 1.0), geometry.Ball((1.0 + 1e-3 - 1e-9, 0.0), 1e-3)), rel=1e-10)


def _long(tmp_path):
    wl, ops, first = one_round("maxfn", tmp_path)
    k = len(wl.functions)
    f, level, _ = wl.long[0]
    return wl, f, level, first[k]


def test_level_report_shifted_endpoint(tmp_path):
    wl, f, level, output = _long(tmp_path)
    assert wl.check(len(wl.functions), output) == []
    intervals = [(iv.lo, iv.hi) for iv in maximal1d.maximal_intervals(f, level)]
    comps = [(iv.lo, iv.hi) for iv in maximal1d.maximal_superlevel(f, level)]
    ref = checks.StepRef(f.breakpoints, f.values)
    parsed = checks.parse_level_line(output[2].decode())
    points = wl._probe_points(f)
    assert checks.check_level_report(parsed, level, ref, intervals, comps, points) == []
    lo, hi = intervals[0]
    shifted = [(lo + 1e-3 * (hi - lo), hi)] + intervals[1:]
    assert checks.check_level_report(parsed, level, ref, shifted, comps, points)
    moved = [(lo - 0.2, hi - 0.2) for lo, hi in comps]
    assert checks.check_superlevel_membership(ref, level, moved, points)
    bad_count = dict(parsed, count_maximal=parsed["count_function"] + 2)
    assert checks.check_level_report(bad_count, level, ref, intervals, comps, points)


def test_variation_report_corrupted(tmp_path):
    wl, ops, first = one_round("maxfn", tmp_path)
    f, report = wl.functions[-1], first[len(wl.functions) - 1]
    ref = checks.StepRef(f.breakpoints, f.values)
    assert checks.check_variation_report(report, ref, wl.levels) == []
    inflated = dataclasses.replace(report, var_mf_lower_bound=report.var_f + 1e-6)
    assert checks.check_variation_report(inflated, ref, wl.levels)
    recs = list(report.levels)
    k = next(i for i, rec in enumerate(recs) if not rec.skipped)
    recs[k] = dataclasses.replace(recs[k], count_maximal=recs[k].count_function + 2)
    crossed = dataclasses.replace(report, levels=tuple(recs))
    assert checks.check_variation_report(crossed, ref, wl.levels)


def test_known_fault_fails_and_random_inputs_avoid_it():
    f = workloads.KNOWN_FAULT
    ref = checks.StepRef(f.breakpoints, f.values)
    report = maximal1d.maximal_variation_check(f, 200)
    assert checks.check_variation_report(report, ref, 200)
    assert workloads.near_piece_value(f, workloads.grid_levels(f, 200))


def test_step_reference_maximal_function():
    ref = checks.StepRef((0.0, 1.0, 3.0), (2.0, 0.5))
    assert ref.variation() == pytest.approx(4.0)
    assert ref.maximal(0.5) == pytest.approx(2.0)
    assert ref.maximal(2.0) == pytest.approx((2.0 + 0.5) / 2.0)  # interval [0, 2]
    assert ref.boundary_count(1.0) == 2 and ref.boundary_count(0.1) == 2


# ---------------------------------------------------------------------------
# tracing


def test_tracer_restores_program_and_counts():
    tracer = tracing.Tracer()
    original = selection.vitali_select
    tracer.install()
    assert selection.vitali_select is not original
    balls = workloads.collection(2, [[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]], [1.0, 1.0, 1.0])
    tracer.root("op", lambda: geometry.union_perimeter_mc(balls, 200, 0))
    tracer.uninstall()
    assert selection.vitali_select is original
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(1).items()}
    assert metrics["geometry.mc_samples"] == 600
    assert metrics["geometry.mc_useful_share"] == pytest.approx(2 / 3)
    assert metrics["geometry.mc_perimeter_s"] > 0.0
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert names == set(metrics) | {"trace.overhead_s"}


# ---------------------------------------------------------------------------
# the command line


def test_command_prints_every_metric(tmp_path):
    base = [sys.executable, str(run.HERE / "run.py"), "--workload", "maxfn", "--seed", "2"]
    base += ["--seconds", "0"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        argv = base + ["--trace", trace]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # one operation of each round of 28 is the known fault
        assert result["correct"] and result["attempted"] == 28 * result["failed"] > 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_command_fails_without_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=ignore)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maxfn", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
