"""Acceptance suite: one test per shipped guarantee.

Each test drives the public API end to end over a fixed deterministic
corpus, asserts the exact guarantee at its stated tolerance, and
enforces a wall-clock budget, so ``pytest -v`` prints one pass/fail
line per guarantee.
"""

import math
import time

import numpy as np

from ballcover import (
    Ball,
    BallCollection,
    StepFunction,
    SurroundedBallConfig,
    besicovitch_select,
    build_fig1,
    build_surrounded_ball,
    cli,
    interval_select_1d,
    lens_volume,
    maximal_variation_check,
    perimeter_vitali_select,
    union_perimeter,
    union_perimeter_2d,
    union_perimeter_mc,
    union_volume_mc,
)
from ballcover.formats import save_step_function
from ballcover.geometry import _lens_volumes, free_arc_lengths_2d
from ballcover.harness import (
    check_example14_rate,
    check_isoperimetric,
    check_thm12,
    fit_loglog,
    random_collection,
)
from oracles import lens_volume_quadrature, random_step_function


def _random_intervals(seed) -> BallCollection:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 51))
    los = rng.uniform(-10.0, 10.0, n)
    lengths = np.exp(rng.uniform(np.log(0.01), np.log(4.0), n))
    return BallCollection.from_arrays((los + lengths / 2)[:, None], lengths / 2)


def _length(balls) -> float:
    return union_volume_mc(balls, samples=1000, seed=0).value


def _boundary(balls) -> float:
    return union_perimeter(balls).value


def test_criterion_1_interval_selection_exact_five_cover():
    start = time.monotonic()
    for i in range(1000):
        intervals = _random_intervals([201, i])
        lo = intervals.centers[:, 0] - intervals.radii
        hi = intervals.centers[:, 0] + intervals.radii
        result = interval_select_1d(intervals)
        order = sorted(result.selected, key=lo.__getitem__)
        for prev, nxt in zip(order, order[1:]):
            assert hi[prev] < lo[nxt]
        chosen = intervals.subset(result.selected)
        assert _length(intervals) <= 5.0 * _length(chosen)
        assert _boundary(intervals) <= _boundary(chosen)
        for s, members in result.groups.items():
            mid = 0.5 * (lo[s] + hi[s])
            half = 2.5 * (hi[s] - lo[s])
            assert (mid - half <= lo[members]).all()
            assert (hi[members] <= mid + half).all()
            assert _boundary(intervals.subset(members)) <= 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeded the 10 s budget"


def test_criterion_2_low_overlap_selection_exact_guarantees():
    start = time.monotonic()
    eps_values = np.geomspace(1e-3, 0.063, 20)
    factor = 23.0 / 7.0
    for i in range(500):
        balls = random_collection(2, [202, i])
        eps = float(eps_values[i % 20])
        result = perimeter_vitali_select(balls, eps)
        centers, radii = balls.centers, balls.radii
        # every chosen pair s < t in one lens call
        chosen = np.asarray(result.selected)
        s, t = (chosen[k] for k in np.triu_indices(chosen.size, 1))
        lens = _lens_volumes(radii[s], radii[t], np.hypot(*(centers[s] - centers[t]).T), 2)
        cap = eps * np.minimum(math.pi * radii[s] ** 2, math.pi * radii[t] ** 2)
        ratio = lens / cap
        assert (lens <= cap * (1.0 + 1e-9)).all(), (
            f"collection {i}: chosen pair ({s[ratio.argmax()]}, {t[ratio.argmax()]}) "
            f"has lens/cap {float(ratio.max())!r}"
        )
        # every group member against its chosen ball at once
        owner, member = np.array(
            [(g, m) for g, members in result.groups.items() for m in members]
        ).T
        reach = np.hypot(*(centers[member] - centers[owner]).T) + radii[member]
        excess = reach - (factor * radii[owner] + 1e-12)
        assert (excess <= 0.0).all(), (
            f"collection {i}: member {member[excess.argmax()]} of "
            f"{owner[excess.argmax()]} reaches {float(excess.max())!r} too far"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeded the 60 s budget"


def _full_coverage_ratio(eps: float, n_max: int) -> float:
    """The ratio G of ``check_example14_rate`` for one eps of criterion 3."""
    packing = build_surrounded_ball(
        SurroundedBallConfig(eps=eps, delta=0.3, n_max=n_max, seed=7)
    )
    lengths = free_arc_lengths_2d(packing)
    bare = lengths[0]
    return (sum(lengths) - bare) / (2.0 * math.pi - bare)


def test_criterion_3_perimeter_growth_rate():
    start = time.monotonic()
    eps_sweep = (10.0**-1.5, 1e-2, 10.0**-2.5, 1e-3)
    n_max = 8000
    fit = check_example14_rate(eps_sweep, delta=0.3, n_max=n_max, seed=7)
    # The generator's first n_max placements do not depend on n_max, so a
    # packing that stopped at its radius floor below n_max is exactly the
    # one a doubled budget builds; only a packing that reached n_max is
    # built again with the doubled budget.
    for eps, disks, base in zip(fit.xs, fit.disks, fit.ys):
        if disks < n_max:
            continue
        redo = _full_coverage_ratio(eps, 2 * n_max)
        assert abs(redo - base) <= 0.05 * base, (
            f"ratio at eps={eps!r} moved from {base:.4f} to {redo:.4f} (>5%) "
            "when the ball budget doubled"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeded the 300 s budget"
    assert fit.r_squared >= 0.95, f"log-log fit r^2 {fit.r_squared:.4f} < 0.95"
    assert -0.433 <= fit.slope <= -0.233, (
        f"measured log-log slope {fit.slope:.4f} "
        f"(r^2 {fit.r_squared:.4f}, ratios "
        f"{[round(y, 4) for y in fit.ys]} at eps "
        f"{[round(x, 5) for x in fit.xs]}) lies outside the required band "
        "[-0.433, -0.233] around the target -1/3"
    )


def test_criterion_4_maximal_variation_constant_one():
    start = time.monotonic()
    rng = np.random.default_rng(204)
    for _ in range(200):
        f = random_step_function(rng)
        report = maximal_variation_check(f, 200)
        assert report.var_mf_lower_bound <= report.var_f + 1e-9
        for rec in report.levels:
            if not rec.skipped:
                assert rec.count_maximal <= rec.count_function
        assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeded the 120 s budget"


def test_criterion_4_maximal_variation_at_ten_thousand_pieces():
    # var(Mf) in closed form costs O(k^2) averages, so the check runs
    # at 10^4 pieces, where counting components per gap between the
    # k^2 critical levels would take hours
    start = time.monotonic()
    rng = np.random.default_rng([204, 10_000])
    f = random_step_function(rng, max_pieces=10_000, min_pieces=10_000)
    report = maximal_variation_check(f, 200)
    assert f.piece_count == 10_000
    assert report.var_mf_lower_bound <= report.var_f
    for rec in report.levels:
        if not rec.skipped:
            assert rec.count_maximal <= rec.count_function
    assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeded the 30 s budget"


def test_criterion_5_center_cover_bounded_families():
    start = time.monotonic()
    slack = 8.0 / 7.0
    worst = 0
    for i in range(500):
        balls = random_collection(2, [205, i])
        result = besicovitch_select(balls)
        centers, radii = balls.centers, balls.radii
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        rep_of = {m: s for s, members in result.groups.items() for m in members}
        for k in range(len(balls)):
            s = rep_of[k]
            assert dists[k, s] <= radii[s] + 1e-12
            assert radii[k] <= slack * radii[s] + 1e-12
        for family in result.families:
            for a in range(len(family)):
                for b in range(a + 1, len(family)):
                    i1, i2 = family[a], family[b]
                    assert dists[i1, i2] >= radii[i1] + radii[i2] - 1e-12
        worst = max(worst, len(result.families))
    assert worst <= 19, f"observed {worst} disjoint families, above the cap 19"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeded the 30 s budget"


def test_criterion_6_ring_family_perimeter_ratio_bounded():
    start = time.monotonic()
    ks = (10, 20, 40, 80, 160)
    ratios = []
    for k in ks:
        balls = build_fig1(k, 2.0 / k)
        report = check_thm12(balls, instance_id=f"ring-{k}")
        assert report.passed
        assert math.isfinite(report.ratio) and report.ratio > 0.0
        ratios.append(report.ratio)
    assert max(ratios) <= 3.0 * min(ratios), f"ratio spread {ratios} exceeds 3x"
    fit = fit_loglog([float(k) for k in reversed(ks)], list(reversed(ratios)))
    assert abs(fit.slope) <= 0.15, (
        f"ratio trend slope {fit.slope:.4f} vs ring count is not flat"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeded the 30 s budget"


def test_criterion_7_monte_carlo_and_quadrature_agreement():
    start = time.monotonic()
    hits = 0
    for i in range(50):
        balls = random_collection(2, [207, i])
        exact = union_perimeter_2d(balls)
        mc = union_perimeter_mc(balls, 1_000_000, seed=i)
        sigma = math.hypot(exact.std_error, mc.std_error)
        dev = abs(exact.value - mc.value)
        hits += dev <= 4.0 * sigma if sigma > 0.0 else dev == 0.0
    assert hits >= 48, f"only {hits}/50 collections agreed within 4 sigma"

    rng = np.random.default_rng(1007)
    for i in range(100):
        dim = 2 + i % 3
        r1, r2 = (float(r) for r in np.exp(rng.uniform(np.log(0.05), 0.0, 2)))
        lo_d, hi_d = abs(r1 - r2), r1 + r2
        margin = 0.05 * (hi_d - lo_d)
        rho = float(rng.uniform(lo_d + margin, hi_d - margin))
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        base = rng.uniform(-2.0, 2.0, dim)
        b1 = Ball(tuple(float(c) for c in base), r1)
        b2 = Ball(tuple(float(c) for c in base + rho * direction), r2)
        expected = lens_volume_quadrature(r1, r2, rho, dim)
        assert abs(lens_volume(b1, b2) - expected) <= 1e-8 * expected
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeded the 120 s budget"


def test_criterion_8_isoperimetric_ratio_stability():
    start = time.monotonic()
    d_list = (2, 3, 4)
    base = check_isoperimetric(d_list, grid=100, radii=(1.0,))
    scaled = check_isoperimetric(d_list, grid=100, radii=(10.0,))
    refined = check_isoperimetric(d_list, grid=200, radii=(1.0,))
    assert base.passed and scaled.passed and refined.passed
    for d in d_list:
        m = base.params["per_dimension_max"][d]
        assert math.isfinite(m) and m > 0.0
        m_scaled = scaled.params["per_dimension_max"][d]
        assert abs(m_scaled - m) <= 1e-10 * m, (
            f"d={d}: max {m} at radius 1 vs {m_scaled} at radius 10"
        )
        m_refined = refined.params["per_dimension_max"][d]
        assert abs(m_refined - m) < 0.01 * m, (
            f"d={d}: max moved {m} -> {m_refined} under grid refinement"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeded the 10 s budget"


def test_criterion_9_cli_byte_identical_reruns(tmp_path, capsys):
    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def rerun_identical(argv, out_path):
        run(argv)
        first = out_path.read_bytes()
        run(argv)
        assert out_path.read_bytes() == first
        return first

    balls_path = tmp_path / "balls.txt"
    rerun_identical(
        ["generate", "--kind", "random", "--dim", "2", "--count", "6",
         "--seed", "9", "--output", str(balls_path)],
        balls_path,
    )

    selection_path = tmp_path / "selection.txt"
    rerun_identical(
        ["select", "--algorithm", "perimeter-vitali", "--eps", "0.01",
         "--input", str(balls_path), "--output", str(selection_path)],
        selection_path,
    )

    measure_path = tmp_path / "measure.txt"
    rerun_identical(
        ["measure", "--input", str(balls_path), "--samples", "2000",
         "--seed", "4", "--output", str(measure_path)],
        measure_path,
    )

    report_path = tmp_path / "report.txt"
    serial = rerun_identical(
        ["check", "--check", "prop16", "--dim", "2", "--count", "4",
         "--seed", "3", "--jobs", "1", "--output", str(report_path)],
        report_path,
    )
    run(["check", "--check", "prop16", "--dim", "2", "--count", "4",
         "--seed", "3", "--jobs", "2", "--output", str(report_path)])
    assert report_path.read_bytes() == serial

    rate_path = tmp_path / "rate.csv"
    rerun_identical(
        ["rate", "--eps-list", "0.05,0.04", "--delta", "0.3",
         "--n-max", "40", "--seed", "2", "--output", str(rate_path)],
        rate_path,
    )

    step_path = tmp_path / "step.txt"
    save_step_function(
        str(step_path), StepFunction((0.0, 1.0, 2.0, 4.0), (2.0, 0.5, 3.0))
    )
    maxfn_path = tmp_path / "maxfn.txt"
    rerun_identical(
        ["maxfn", "--input", str(step_path), "--levels", "25",
         "--output", str(maxfn_path)],
        maxfn_path,
    )
