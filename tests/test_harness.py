"""Tests for the check harness.

Report construction, the log-log fitter, the seeded corpus driver
(including multi-process determinism), and each individual check are
exercised on hand-built instances with closed-form answers plus seeded
random corpora.
"""

import math

import numpy as np
import pytest

from ballcover import counterexample
from ballcover.counterexample import (
    SurroundedBallConfig,
    build_surrounded_ball_detailed,
)
from ballcover.geometry import Ball, BallCollection, free_arcs_2d
from ballcover.harness import (
    PROP16_EMPIRICAL_CAP,
    THM12_EMPIRICAL_CAP,
    CheckReport,
    RateFit,
    check_example14_rate,
    check_isoperimetric,
    check_prop16_ratio,
    check_thm12,
    check_thm13,
    fit_loglog,
    format_report,
    format_summary,
    halfspace_volume_fraction,
    random_collection,
    run_corpus,
)
from ballcover.harness import _iso_cap
from ballcover.selection import overlap_eps_max

from oracles import (
    cap_volume_quadrature,
    free_arc_lengths_oracle,
    unit_ball_volume_gamma,
)


# ---------------------------------------------------------------------------
# CheckReport
# ---------------------------------------------------------------------------


class TestCheckReport:
    def test_consistent_pass(self):
        rep = CheckReport("demo", "i0", 1.0, 2.0, 0.5, True, {})
        assert rep.passed

    def test_consistent_fail(self):
        rep = CheckReport("demo", "i0", 3.0, 2.0, 1.5, False, {})
        assert not rep.passed

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("demo", "i0", 3.0, 2.0, 1.5, True, {})
        with pytest.raises(ValueError):
            CheckReport("demo", "i0", 1.0, 2.0, 0.5, False, {})

    def test_tolerance_respected(self):
        # lhs exceeds rhs by less than the declared tolerance.
        rep = CheckReport("demo", "i0", 1.0 + 5e-10, 1.0, 1.0, True, {"tol": 1e-9})
        assert rep.passed
        with pytest.raises(ValueError):
            CheckReport("demo", "i0", 1.0 + 5e-10, 1.0, 1.0, True, {"tol": 0.0})


# ---------------------------------------------------------------------------
# RateFit / fit_loglog
# ---------------------------------------------------------------------------


class TestFitLoglog:
    def test_recovers_exact_power_law(self):
        xs = [0.1, 0.01, 0.001, 0.0001]
        C, s = 3.7, -1.0 / 3.0
        ys = [C * x**s for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(s, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(C), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.xs == tuple(xs)
        assert fit.ys == tuple(ys)

    def test_noise_lowers_r_squared(self):
        xs = [0.1, 0.01, 0.001, 0.0001]
        ys = [1.0, 4.0, 5.0, 30.0]
        fit = fit_loglog(xs, ys)
        assert fit.r_squared < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateFit((0.1,), (1.0,), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RateFit((0.1, 0.2), (1.0, 2.0), 0.0, 0.0, 1.0)  # increasing
        with pytest.raises(ValueError):
            RateFit((0.1, -0.2), (1.0, 2.0), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RateFit((0.1, 0.01), (1.0,), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="per-point"):
            RateFit((0.1, 0.01), (1.0, 2.0), 0.0, 0.0, 1.0, uncovered=(0.5,))
        with pytest.raises(ValueError, match="per-point"):
            RateFit((0.1, 0.01), (1.0, 2.0), 0.0, 0.0, 1.0, disks=(5, 6, 7))

    def test_constant_ys_full_r_squared(self):
        fit = fit_loglog([0.1, 0.01], [2.0, 2.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0


# ---------------------------------------------------------------------------
# random_collection
# ---------------------------------------------------------------------------


class TestRandomCollection:
    def test_deterministic(self):
        a = random_collection(2, seed=42)
        b = random_collection(2, seed=42)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)

    def test_seed_variation(self):
        a = random_collection(2, seed=1)
        b = random_collection(2, seed=2)
        assert (a.centers.tolist(), a.radii.tolist()) != (b.centers.tolist(), b.radii.tolist())

    def test_law_bounds(self):
        for seed in range(30):
            balls = random_collection(2, seed=seed)
            assert 2 <= len(balls) <= 40
            assert ((-3.0 <= balls.centers) & (balls.centers <= 3.0)).all()
            assert ((0.05 - 1e-12 <= balls.radii) & (balls.radii <= 1.0 + 1e-12)).all()

    def test_dimension(self):
        assert random_collection(3, seed=0).dimension == 3
        assert random_collection(1, seed=0).centers.shape[1] == 1

    def test_fixed_count(self):
        balls = random_collection(2, seed=5, count=7)
        assert len(balls) == 7
        # the same centre and radius law as the drawn-count instances
        assert ((0.05 - 1e-12 <= balls.radii) & (balls.radii <= 1.0 + 1e-12)).all()
        with pytest.raises(ValueError):
            random_collection(2, seed=5, count=0)

    def test_composite_seed(self):
        # Sequence seeds (master, index) are accepted and deterministic.
        a = random_collection(2, seed=[7, 3])
        b = random_collection(2, seed=[7, 3])
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)


# ---------------------------------------------------------------------------
# check_thm12
# ---------------------------------------------------------------------------


class TestCheckThm12:
    def test_disjoint_pair_ratio_one(self):
        # Two disjoint disks: the winning family keeps both, so the
        # union perimeters agree exactly.
        balls = BallCollection(2, [Ball((0.0, 0.0), 1.0), Ball((5.0, 0.0), 1.0)])
        rep = check_thm12(balls, instance_id="pair")
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(THM12_EMPIRICAL_CAP * rep.lhs, rel=1e-12)
        assert rep.params["families"] == 1
        assert rep.params["selected"] == 2

    def test_random_corpus_within_cap(self):
        for seed in range(10):
            balls = random_collection(2, seed=seed)
            rep = check_thm12(balls, instance_id=f"rand-{seed}")
            assert rep.passed
            assert rep.ratio <= THM12_EMPIRICAL_CAP

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_thm12(BallCollection(2, []))


# ---------------------------------------------------------------------------
# check_thm13
# ---------------------------------------------------------------------------


class TestCheckThm13:
    def test_random_instances_pass(self):
        for seed in range(8):
            balls = random_collection(2, seed=100 + seed)
            rep = check_thm13(balls, 0.01, instance_id=f"r{seed}", volume_samples=2000)
            assert rep.passed
            assert rep.lhs <= 1.0
            assert rep.params["eps"] == 0.01
            assert rep.params["volume_ratio"] >= 1.0 - 1e-9

    def test_eps_validation(self):
        balls = random_collection(2, seed=0)
        cap = overlap_eps_max(2)
        with pytest.raises(ValueError):
            check_thm13(balls, 0.0)
        with pytest.raises(ValueError):
            check_thm13(balls, cap * 1.01)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            check_thm13(BallCollection(2, []), 0.01)

    def test_normalized_ratio_recorded(self):
        balls = random_collection(2, seed=5)
        rep = check_thm13(balls, 0.02, volume_samples=2000)
        norm = 0.02 ** (-(2 - 1) / (2 + 1))
        assert rep.ratio == pytest.approx(
            rep.params["perimeter_ratio"] / norm, rel=1e-12
        )


# ---------------------------------------------------------------------------
# check_example14_rate
# ---------------------------------------------------------------------------


class TestCheckExample14Rate:
    def test_validation(self):
        with pytest.raises(ValueError, match="0, 0.05"):
            check_example14_rate([0.1, 0.05], 0.3, 100)
        with pytest.raises(ValueError, match="strictly decreasing"):
            check_example14_rate([0.01, 0.02], 0.3, 100)
        with pytest.raises(ValueError, match="at least two values"):
            check_example14_rate([0.01], 0.3, 100)

    def test_truncated_sweep_structure(self):
        # Tiny n_max keeps the packings small; the fit fields are wired
        # through even when the asymptotic regime is out of reach.
        fit = check_example14_rate([0.05, 0.04], 0.3, 40, seed=1)
        assert isinstance(fit, RateFit)
        assert fit.xs == (0.05, 0.04)
        assert all(y > 1.0 for y in fit.ys)

    def test_ratio_is_full_coverage_perimeter_ratio(self):
        # ys[i] = (P - L0) / (2 pi - L0): P the union perimeter, L0 the
        # bare length of the unit circle, both from one arc clipping of
        # an independently built packing.
        eps_list = [0.05, 0.04]
        fit = check_example14_rate(eps_list, 0.3, 40, seed=1)
        for i, eps in enumerate(eps_list):
            cfg = SurroundedBallConfig(eps=eps, delta=0.3, n_max=40, seed=1)
            packing, _ = build_surrounded_ball_detailed(cfg)
            circle, lo, hi = free_arcs_2d(packing)
            lengths = [
                r * sum((hi - lo)[circle == i].tolist())
                for i, r in enumerate(packing.radii.tolist())
            ]
            perimeter = math.fsum(lengths)
            bare = lengths[0]
            circle = 2.0 * math.pi
            assert 0.0 < bare < circle
            assert fit.ys[i] == pytest.approx(
                (perimeter - bare) / (circle - bare), rel=1e-12
            )
            assert fit.raw_ratios[i] == pytest.approx(perimeter / circle, rel=1e-12)
            u = fit.uncovered[i]
            assert u == pytest.approx(bare / circle, rel=1e-12)
            # the brute-force arc oracle agrees with the arc clipping
            assert u == pytest.approx(
                free_arc_lengths_oracle(packing)[0] / circle, abs=1e-11
            )
            assert fit.raw_ratios[i] == pytest.approx(
                u + (1.0 - u) * fit.ys[i], rel=1e-12
            )

    def test_disk_counts(self):
        fit = check_example14_rate([0.05, 0.04], 0.3, 40, seed=1)
        assert fit.disks == (40, 40)

    def test_builds_through_the_detailed_generator_attribute(self, monkeypatch):
        # The packing benchmark collects the packings by rebinding
        # counterexample.build_surrounded_ball_detailed; a rate run that
        # bypassed that name would leave it none to check.
        build = counterexample.build_surrounded_ball_detailed
        seen = []

        def spy(cfg):
            seen.append(cfg.eps)
            return build(cfg)

        monkeypatch.setattr(counterexample, "build_surrounded_ball_detailed", spy)
        check_example14_rate([0.05, 0.04], 0.3, 40, seed=1)
        assert seen == [0.05, 0.04]

    def test_uncovered_circle_rejected(self, monkeypatch):
        bare_disk = BallCollection(2, [Ball((0.0, 0.0), 1.0)])
        monkeypatch.setattr(
            "ballcover.harness.build_surrounded_ball", lambda cfg: bare_disk
        )
        with pytest.raises(ValueError, match="covers none of the unit circle"):
            check_example14_rate([0.05, 0.04], 0.3, 40, seed=1)


# ---------------------------------------------------------------------------
# halfspace_volume_fraction / isoperimetric check
# ---------------------------------------------------------------------------


def _fraction(ball: Ball, threshold: float = 0.0) -> float:
    """halfspace_volume_fraction of a one-ball collection."""
    (frac,) = halfspace_volume_fraction(
        BallCollection(ball.dimension, [ball]), threshold=threshold
    ).tolist()
    return frac


class TestHalfspaceVolumeFraction:
    def test_central_cut(self):
        assert _fraction(Ball((0.0, 0.0), 1.0)) == pytest.approx(0.5)

    def test_far_cases(self):
        assert _fraction(Ball((3.0, 0.0), 1.0)) == 1.0
        assert _fraction(Ball((-3.0, 0.0), 1.0)) == 0.0
        assert _fraction(Ball((1.0, 0.0), 1.0)) == 1.0

    def test_threshold_shift(self):
        ball = Ball((0.7, 0.0), 1.0)
        assert _fraction(ball, threshold=0.7) == pytest.approx(0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_against_cap_quadrature(self, dim):
        r, c1 = 1.3, 0.4
        ball = Ball((c1,) + (0.0,) * (dim - 1), r)
        # Volume on the side x_1 > 0 is the cap at signed height c1.
        expected = cap_volume_quadrature(r, -c1, dim) / (
            unit_ball_volume_gamma(dim) * r**dim
        )
        got = _fraction(ball)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_fractions_sum_to_one(self):
        ball = Ball((0.3, 0.1, -0.2), 0.9)
        left = _fraction(ball)
        mirrored = Ball((-0.3, 0.1, -0.2), 0.9)
        right = _fraction(mirrored)
        assert left + right == pytest.approx(1.0, rel=1e-12)


class TestCheckIsoperimetric:
    def test_closed_form_caps(self):
        assert _iso_cap(2) == pytest.approx(math.pi / 8.0, rel=1e-14)
        assert _iso_cap(3) == pytest.approx(4.0 / (9.0 * math.pi), rel=1e-14)
        assert _iso_cap(4) == pytest.approx(81.0 * math.pi**2 / 16384.0, rel=1e-14)

    def test_passes_and_normalizes(self):
        rep = check_isoperimetric([2, 3, 4], grid=200)
        assert rep.passed
        assert rep.lhs <= 1.0 + 1e-6
        # The scan includes the central cut, so each per-dimension max
        # reaches its cap essentially exactly.
        for d in (2, 3, 4):
            assert rep.params["per_dimension_max"][d] == pytest.approx(
                _iso_cap(d), rel=1e-6
            )

    def test_scale_invariance(self):
        small = check_isoperimetric([2, 3], grid=120, radii=(1.0,))
        large = check_isoperimetric([2, 3], grid=120, radii=(10.0,))
        for d in (2, 3):
            assert small.params["per_dimension_max"][d] == pytest.approx(
                large.params["per_dimension_max"][d], rel=1e-10
            )

    def test_grid_refinement_stable(self):
        coarse = check_isoperimetric([2, 3, 4], grid=100)
        fine = check_isoperimetric([2, 3, 4], grid=200)
        for d in (2, 3, 4):
            a = coarse.params["per_dimension_max"][d]
            b = fine.params["per_dimension_max"][d]
            assert abs(a - b) / b < 0.01

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_isoperimetric([2], grid=9)


# ---------------------------------------------------------------------------
# check_prop16_ratio
# ---------------------------------------------------------------------------


class TestCheckProp16Ratio:
    def test_single_disk_closed_form(self):
        # Disk centered (0.5, 0), radius 1: boundary in the left
        # half-plane is the arc with cos(theta) <= -1/2, length 2*pi/3;
        # the trace on the axis is the chord of half-width sqrt(3)/2.
        balls = BallCollection(2, [Ball((0.5, 0.0), 1.0)])
        rep = check_prop16_ratio(balls, 0.2, instance_id="disk")
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
        assert rep.params["trace_length"] == pytest.approx(
            math.sqrt(3.0), rel=1e-12
        )
        norm = 0.2 ** (-0.5)
        assert rep.ratio == pytest.approx(
            (2.0 * math.pi / 3.0) / math.sqrt(3.0) / norm, rel=1e-12
        )
        assert rep.rhs == pytest.approx(
            PROP16_EMPIRICAL_CAP * norm * math.sqrt(3.0), rel=1e-12
        )

    def test_low_fraction_balls_dropped(self):
        # A ball mostly left of the axis fails the lam threshold and
        # contributes nothing.
        balls = BallCollection(2, [Ball((-0.9, 0.0), 1.0)])
        rep = check_prop16_ratio(balls, 0.2)
        assert rep.params["kept"] == 0
        assert rep.lhs == 0.0
        assert rep.ratio == 0.0
        assert rep.passed

    def test_random_instances_within_cap(self):
        for seed in range(10):
            balls = random_collection(2, seed=300 + seed)
            rep = check_prop16_ratio(balls, 0.2, instance_id=f"r{seed}")
            assert rep.passed

    def test_validation(self):
        balls = random_collection(2, seed=0)
        with pytest.raises(ValueError):
            check_prop16_ratio(balls, 0.0)
        with pytest.raises(ValueError):
            check_prop16_ratio(balls, 1.0)
        with pytest.raises(ValueError):
            check_prop16_ratio(random_collection(3, seed=0), 0.2)


# ---------------------------------------------------------------------------
# run_corpus
# ---------------------------------------------------------------------------


class TestRunCorpus:
    def test_sorted_and_seeded(self):
        reports = run_corpus("prop16", 5, 2, master_seed=9)
        ids = [r.instance_id for r in reports]
        assert ids == sorted(ids)
        assert ids[0] == "prop16-2d-00000"
        again = run_corpus("prop16", 5, 2, master_seed=9)
        assert reports == again

    def test_jobs_do_not_change_results(self):
        serial = run_corpus("thm13", 6, 2, master_seed=4)
        parallel = run_corpus("thm13", 6, 2, master_seed=4, jobs=2)
        assert serial == parallel

    def test_eps_values_cycle(self):
        reports = run_corpus(
            "thm13", 4, 2, master_seed=1, eps_values=[0.02, 0.005]
        )
        assert [r.params["eps"] for r in reports] == [0.02, 0.005, 0.02, 0.005]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_corpus("prop16", 0, 2)
        with pytest.raises(ValueError):
            run_corpus("nonsense", 1, 2)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


class TestFormatting:
    def test_format_report_golden(self):
        rep = CheckReport(
            "demo",
            "demo-2d-00001",
            1.5,
            2.0,
            0.75,
            True,
            {"n": 3, "tol": 0.0, "alpha": 0.25, "tags": (1, 2)},
        )
        line = format_report(rep)
        assert line == (
            "check=demo instance=demo-2d-00001 lhs=1.5 rhs=2.0 ratio=0.75 "
            "passed=True alpha=0.25 n=3 tags=(1,2) tol=0.0"
        )
        assert "\n" not in line

    def test_format_report_sorts_nested_params(self):
        rep = CheckReport(
            "demo", "x", 0.0, 1.0, 0.0, True, {"caps": {2: 0.5, 1: 0.25}}
        )
        assert format_report(rep).endswith("caps={1:0.25,2:0.5}")

    def test_format_summary_golden(self):
        reports = [
            CheckReport("b", "b-1", 1.0, 2.0, 0.5, True, {}),
            CheckReport("a", "a-1", 3.0, 2.0, 1.5, False, {}),
            CheckReport("a", "a-2", 1.0, 4.0, 0.25, True, {}),
        ]
        text = format_summary(reports)
        assert text.splitlines() == [
            "check_id size pass_count max_ratio",
            "a 2 1 1.5",
            "b 1 1 0.5",
        ]

    def test_format_summary_infinite_ratio(self):
        reports = [
            CheckReport("c", "c-1", 0.0, 1.0, math.inf, True, {}),
        ]
        assert format_summary(reports).splitlines()[1] == "c 1 1 inf"
