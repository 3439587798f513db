"""Tests for the greedy selection routines.

Every structural guarantee a selector commits to (disjointness, group
containment, coverage, overlap thresholds) is checked directly on the
returned indices; derived constants are compared against independent
oracles built from quadrature or closed forms.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballcover.geometry import (
    DISJOINT_TOL,
    Ball,
    BallCollection,
    _lens_volumes,
    lens_volume,
    unit_ball_volume,
)
from ballcover.formats import dump_selection
from ballcover.harness import random_collection
from ballcover.selection import (
    SelectionResult,
    besicovitch_select,
    interval_select_1d,
    overlap_eps_max,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
    vitali_select,
)

from oracles import (
    besicovitch_select_per_step,
    interval_balls,
    interval_select_1d_per_step,
    lens_volume_quadrature,
    perimeter_vitali_select_per_step,
    select_law,
    union_component_count_oracle,
    union_length_oracle,
    unit_ball_volume_gamma,
    vitali_select_per_step,
)


def _pairdist(balls: BallCollection, i: int, j: int) -> float:
    return float(np.linalg.norm(balls.centers[i] - balls.centers[j]))


def _random_balls(dim: int, seed: int, n_max: int = 30) -> BallCollection:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    centers = rng.uniform(-3.0, 3.0, size=(n, dim))
    radii = np.exp(rng.uniform(math.log(0.05), math.log(1.0), size=n))
    return BallCollection(
        dim, [Ball(tuple(c), float(r)) for c, r in zip(centers, radii)]
    )


# ---------------------------------------------------------------------------
# vitali_select
# ---------------------------------------------------------------------------


class TestVitaliSelect:
    def test_empty_input(self):
        result = vitali_select(BallCollection(2, []))
        assert result.selected == []
        assert result.groups == {}
        assert result.params["enlargement"] == 5.0

    def test_single_ball(self):
        balls = BallCollection(2, [Ball((0.0, 0.0), 1.0)])
        result = vitali_select(balls)
        assert result.selected == [0]
        assert result.groups == {0: [0]}

    def _check_invariants(self, balls: BallCollection) -> SelectionResult:
        result = vitali_select(balls)
        radii = balls.radii
        sel = result.selected
        # Chosen balls are pairwise disjoint.
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                i, j = sel[a], sel[b]
                assert _pairdist(balls, i, j) >= radii[i] + radii[j] - DISJOINT_TOL
        # Selection order is by nonincreasing radius.
        for a in range(1, len(sel)):
            assert radii[sel[a]] <= radii[sel[a - 1]] + 1e-15
        # Groups partition all input indices.
        seen = sorted(j for members in result.groups.values() for j in members)
        assert seen == list(range(len(balls)))
        # Each member meets its chosen ball, is no larger, and therefore
        # sits inside the three-times enlargement (and a fortiori the
        # advertised five-times one).
        for s, members in result.groups.items():
            assert s in members
            for j in members:
                dist = _pairdist(balls, s, j)
                assert dist < radii[s] + radii[j]
                assert radii[j] <= radii[s] + 1e-15
                assert dist + radii[j] <= 3.0 * radii[s] + 1e-12
                assert dist + radii[j] <= 5.0 * radii[s] + 1e-12
        return result

    def test_invariants_random_2d(self):
        for seed in range(25):
            self._check_invariants(_random_balls(2, seed))

    def test_invariants_random_other_dims(self):
        for dim in (1, 3, 4):
            for seed in range(5):
                self._check_invariants(_random_balls(dim, 100 * dim + seed))

    def test_identical_balls_keep_first(self):
        balls = BallCollection(
            2, [Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0), Ball((5.0, 0.0), 1.0)]
        )
        result = vitali_select(balls)
        # Ties break by input order: index 0 is chosen before index 2.
        assert result.selected == [0, 2]
        assert result.groups[0] == [0, 1]

    def test_deterministic(self):
        balls = _random_balls(2, 7)
        first = vitali_select(balls)
        second = vitali_select(balls)
        assert first.selected == second.selected
        assert first.groups == second.groups

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_property_random_seeds(self, seed):
        self._check_invariants(_random_balls(2, seed, n_max=15))


# ---------------------------------------------------------------------------
# besicovitch_select
# ---------------------------------------------------------------------------


class TestBesicovitchSelect:
    def test_empty_input(self):
        result = besicovitch_select(BallCollection(2, []))
        assert result.selected == []
        assert result.families == []
        assert result.params["radius_slack"] == pytest.approx(8.0 / 7.0)

    def _check_invariants(self, balls: BallCollection) -> SelectionResult:
        result = besicovitch_select(balls)
        radii = balls.radii
        sel = result.selected
        # Groups partition all input indices and record genuine coverage:
        # each member's center lies in its chosen ball, which (greedy
        # exact maxima) is at least as large.
        seen = sorted(j for members in result.groups.values() for j in members)
        assert seen == list(range(len(balls)))
        for s, members in result.groups.items():
            for j in members:
                assert _pairdist(balls, s, j) <= radii[s]
                assert radii[j] <= radii[s] + 1e-15
                assert radii[s] >= (7.0 / 8.0) * radii[j]
        # No chosen center lies in an earlier chosen ball.
        for b in range(1, len(sel)):
            for a in range(b):
                assert _pairdist(balls, sel[b], sel[a]) > radii[sel[a]]
        # Families partition the chosen indices into disjoint classes.
        fam_members = sorted(i for fam in result.families for i in fam)
        assert fam_members == sorted(sel)
        for fam in result.families:
            assert fam, "families must be nonempty"
            for a in range(len(fam)):
                for b in range(a + 1, len(fam)):
                    i, j = fam[a], fam[b]
                    assert (
                        _pairdist(balls, i, j) >= radii[i] + radii[j] - DISJOINT_TOL
                    )
        return result

    def test_invariants_random_2d(self):
        worst = 0
        for seed in range(40):
            result = self._check_invariants(_random_balls(2, seed))
            worst = max(worst, len(result.families))
        # Planar center-covering selections admit a uniform constant
        # family bound; random inputs sit far below the 19 recorded for
        # the acceptance corpus.
        assert worst <= 19

    def test_invariants_random_1d(self):
        for seed in range(10):
            result = self._check_invariants(_random_balls(1, 500 + seed))
            # On the line two disjoint classes always suffice for
            # interval centers covered greedily; allow slack but catch
            # gross regressions.
            assert len(result.families) <= 4

    def test_concentric_stack_selects_largest(self):
        balls = BallCollection(
            2, [Ball((0.0, 0.0), r) for r in (1.0, 0.5, 0.25, 0.125)]
        )
        result = besicovitch_select(balls)
        assert result.selected == [0]
        assert result.groups == {0: [0, 1, 2, 3]}
        assert result.families == [[0]]

    def test_chain_alternates_families(self):
        # Centers 1.5 apart with unit radii: each covers its neighbors'
        # centers only after selection skips them, and adjacent chosen
        # balls overlap, forcing at least two colors.
        balls = BallCollection(
            2, [Ball((1.5 * k, 0.0), 1.0) for k in range(5)]
        )
        result = self._check_invariants(balls)
        assert len(result.selected) >= 2
        assert len(result.families) >= 2

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_property_random_seeds(self, seed):
        self._check_invariants(_random_balls(2, seed, n_max=15))


# ---------------------------------------------------------------------------
# perimeter_besicovitch_select
# ---------------------------------------------------------------------------


class TestPerimeterBesicovitchSelect:
    def test_empty_input(self):
        result = perimeter_besicovitch_select(BallCollection(2, []))
        assert result.selected == []

    def test_picks_family_of_maximal_surface(self):
        for seed in range(15):
            balls = _random_balls(2, 2000 + seed)
            base = besicovitch_select(balls)
            result = perimeter_besicovitch_select(balls)
            # circumferences 2 pi r
            surface = (2.0 * unit_ball_volume(2) * balls.radii).tolist()
            surfaces = [sum(surface[i] for i in fam) for fam in base.families]
            winner = result.params["winner_family"]
            assert result.selected == base.families[winner]
            assert surfaces[winner] == pytest.approx(max(surfaces))
            assert result.params["family_surfaces"] == pytest.approx(surfaces)
            assert result.params["family_count"] == len(base.families)
            # Pigeonhole: the winning family carries at least its share
            # of the total chosen surface.
            total = sum(surface[i] for i in base.selected)
            assert surfaces[winner] >= total / len(base.families) - 1e-12

    def test_selected_pairwise_disjoint(self):
        balls = _random_balls(2, 99)
        result = perimeter_besicovitch_select(balls)
        radii = balls.radii
        sel = result.selected
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                i, j = sel[a], sel[b]
                assert _pairdist(balls, i, j) >= radii[i] + radii[j] - DISJOINT_TOL


# ---------------------------------------------------------------------------
# overlap_eps_max
# ---------------------------------------------------------------------------


class TestOverlapEpsMax:
    def test_dimension_one_closed_form(self):
        # Equal unit intervals with centers 12/7 apart share length
        # 2 - 12/7 = 2/7 of their common length 2.
        assert overlap_eps_max(1) == pytest.approx(1.0 / 7.0, rel=0, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_quadrature_oracle(self, dim):
        expected = lens_volume_quadrature(
            1.0, 1.0, 12.0 / 7.0, dim
        ) / unit_ball_volume_gamma(dim)
        assert overlap_eps_max(dim) == pytest.approx(expected, rel=1e-10)

    def test_frozen_values(self):
        # d=3 closed form: the lens of two unit balls with centers 12/7
        # apart is two caps of height 1/7, volume 2*pi*(1/7)^2*(20/7)/3,
        # over 4*pi/3 -> exactly 10/343.  d=2 frozen from the quadrature
        # oracle.
        assert overlap_eps_max(3) == pytest.approx(10.0 / 343.0, rel=1e-12)
        assert overlap_eps_max(2) == pytest.approx(0.063409526564, rel=1e-9)

    def test_decreasing_in_dimension(self):
        values = [overlap_eps_max(d) for d in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            overlap_eps_max(0)

    def test_cached_value_stable(self):
        assert overlap_eps_max(2) == overlap_eps_max(2)


# ---------------------------------------------------------------------------
# perimeter_vitali_select
# ---------------------------------------------------------------------------


class TestPerimeterVitaliSelect:
    def test_eps_validation(self):
        balls = _random_balls(2, 1)
        cap = overlap_eps_max(2)
        with pytest.raises(ValueError):
            perimeter_vitali_select(balls, 0.0)
        with pytest.raises(ValueError):
            perimeter_vitali_select(balls, -0.01)
        with pytest.raises(ValueError):
            perimeter_vitali_select(balls, cap * 1.0001)
        # The cap itself is admissible.
        perimeter_vitali_select(balls, cap)

    def test_empty_input(self):
        result = perimeter_vitali_select(BallCollection(2, []), 0.01)
        assert result.selected == []
        assert result.params["eps"] == 0.01

    def _check_invariants(self, balls: BallCollection, eps: float):
        result = perimeter_vitali_select(balls, eps)
        d = balls.dimension
        radii = balls.radii
        volumes = unit_ball_volume(d) * radii**d
        sel = result.selected
        # Selection order is by nonincreasing radius.
        for a in range(1, len(sel)):
            assert radii[sel[a]] <= radii[sel[a - 1]] + 1e-15
        # Pairwise overlap of chosen balls stays below eps times the
        # smaller volume (the later-chosen ball is the smaller one).
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                i, j = sel[a], sel[b]
                dist = math.dist(balls.centers[i], balls.centers[j])
                lens = _lens_volumes(radii[i], radii[j], dist, d)
                bound = eps * min(volumes[i], volumes[j])
                assert lens <= bound * (1.0 + 1e-9)
        # Every input lands in at least one group; each chosen ball
        # anchors its own group.
        grouped = set()
        for s, members in result.groups.items():
            assert s in members
            grouped.update(members)
        assert grouped == set(range(len(balls)))
        # Group members stay within the advertised radius slack and the
        # (23/7) enlargement of their chosen ball.
        for s, members in result.groups.items():
            for j in members:
                assert radii[j] <= (8.0 / 7.0) * radii[s] * (1.0 + 1e-12)
                dist = _pairdist(balls, s, j)
                assert dist + radii[j] <= (23.0 / 7.0) * radii[s] + 1e-12
        return result

    def test_invariants_random_2d(self):
        cap = overlap_eps_max(2)
        eps_values = [cap, cap / 2.0, cap / 10.0, 1e-3]
        for seed in range(20):
            self._check_invariants(_random_balls(2, 3000 + seed), eps_values[seed % 4])

    def test_invariants_random_1d(self):
        for seed in range(8):
            self._check_invariants(_random_balls(1, 4000 + seed), 0.05)

    def test_invariants_random_3d(self):
        for seed in range(4):
            self._check_invariants(_random_balls(3, 5000 + seed, n_max=12), 0.02)

    def test_tiny_eps_forces_near_disjointness(self):
        # Two unit disks sharing a sliver of area: a loose tolerance
        # keeps both, a tolerance below the shared fraction conflicts
        # them and only the first survives.
        b0 = Ball((0.0, 0.0), 1.0)
        b1 = Ball((1.95, 0.0), 1.0)
        balls = BallCollection(2, [b0, b1])
        shared = lens_volume(b0, b1) / unit_ball_volume(2)
        critical = shared / (7.0 / 8.0) ** 2
        loose = min(critical * 2.0, overlap_eps_max(2))
        tight = critical / 2.0
        assert len(perimeter_vitali_select(balls, loose).selected) == 2
        assert len(perimeter_vitali_select(balls, tight).selected) == 1

    def test_params_record_commitments(self):
        result = perimeter_vitali_select(_random_balls(2, 5), 0.01)
        p = result.params
        assert p["eps"] == 0.01
        assert p["radius_slack"] == pytest.approx(8.0 / 7.0)
        assert p["enlargement"] == pytest.approx(23.0 / 7.0)
        assert p["shrink_factor"] == pytest.approx(6.0 / 7.0)
        assert p["overlap_threshold_factor"] == pytest.approx(
            (7.0 / 8.0) ** 2 * 0.01
        )

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_property_random_seeds(self, seed, eps_frac):
        eps = eps_frac * overlap_eps_max(2)
        self._check_invariants(_random_balls(2, seed, n_max=12), eps)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_step_lenses(self, dim):
        # Random families plus a coincident copy of ball 0, a ball
        # externally tangent to ball 1 and one internally tangent to it.
        cap = overlap_eps_max(dim)
        for seed in range(12):
            rng = np.random.default_rng([dim, seed])
            n = int(rng.integers(2, 150))
            centers = rng.uniform(-3.0, 3.0, (n, dim))
            radii = np.exp(rng.uniform(math.log(0.05), 0.0, n))
            step = radii[1] * np.eye(dim)[0]
            centers = np.vstack(
                [centers, centers[0], centers[1] + 1.5 * step, centers[1] + 0.5 * step]
            )
            radii = np.concatenate([radii, [radii[0], 0.5 * radii[1], 0.5 * radii[1]]])
            balls = BallCollection.from_arrays(centers, radii)
            eps = [cap, cap / 2.0, 1e-3, 1e-6][seed % 4]
            result = perimeter_vitali_select(balls, eps)
            assert (result.selected, result.groups) == perimeter_vitali_select_per_step(
                balls, eps
            )


# ---------------------------------------------------------------------------
# interval_select_1d
# ---------------------------------------------------------------------------


def _random_intervals(seed: int, n_max: int = 40) -> BallCollection:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    los = rng.uniform(-10.0, 10.0, size=n)
    lengths = np.exp(rng.uniform(math.log(0.01), math.log(3.0), size=n))
    return BallCollection.from_arrays((los + lengths / 2)[:, None], lengths / 2)


class TestIntervalSelect1d:
    def test_empty_input(self):
        result = interval_select_1d(BallCollection(1, []))
        assert result.selected == []
        assert result.params["enlargement"] == 5.0

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="requires dimension 1"):
            interval_select_1d(random_collection(2, seed=0))

    def test_larger_ball_absorbs_overlapping(self):
        result = interval_select_1d(interval_balls([(0.0, 1.0), (0.5, 2.0)]))
        assert result.selected == [1]
        assert result.groups == {1: [0, 1]}

    def test_touching_closures_grouped(self):
        # [0,1] and [1,2] share only the point 1; the closure rule still
        # merges them into one group.
        result = interval_select_1d(interval_balls([(0.0, 1.0), (1.0, 2.0)]))
        assert len(result.selected) == 1
        assert result.groups[result.selected[0]] == [0, 1]

    def test_radius_ties_scan_in_input_order(self):
        # Equal radii 0.1 whose float lengths differ: (1.1) - (0.9) is
        # one ulp above 0.2, so a scan by length would take ball 1 first.
        balls = BallCollection.from_arrays([[0.0], [1.0]], [0.1, 0.1])
        x, r = balls.centers[:, 0], balls.radii
        length = (x + r) - (x - r)
        assert length[1] > length[0]
        assert interval_select_1d(balls).selected == [0, 1]

    def _check_invariants(self, balls):
        radii = balls.radii
        lo, hi = balls.centers[:, 0] - radii, balls.centers[:, 0] + radii
        result = interval_select_1d(balls)
        sel = result.selected
        # Chosen closures are pairwise disjoint (strict gaps).
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                p, q = sel[a], sel[b]
                assert hi[p] < lo[q] or hi[q] < lo[p]
        # Selection order is by nonincreasing radius.
        for a in range(1, len(sel)):
            assert radii[sel[a]] <= radii[sel[a - 1]]
        # Groups partition the input.
        seen = sorted(j for members in result.groups.values() for j in members)
        assert seen == list(range(len(balls)))
        total = union_length_oracle(list(zip(lo, hi)))
        kept = union_length_oracle(list(zip(lo[sel], hi[sel])))
        # Five-times covering bound on total length, exactly.
        assert total <= 5.0 * kept
        # The whole union has no more boundary points than the chosen
        # disjoint subfamily: every component holds a chosen interval.
        comp_all = union_component_count_oracle(list(zip(lo, hi)), closure=True)
        assert comp_all <= len(sel)
        for s, members in result.groups.items():
            length = hi[s] - lo[s]
            group_ivs = list(zip(lo[members], hi[members]))
            # Each group union is a single interval (closures chain
            # through the chosen one) inside the 3x enlargement.
            assert union_component_count_oracle(group_ivs, closure=True) == 1
            for j in members:
                assert radii[j] <= radii[s]
                assert lo[j] >= lo[s] - length - 1e-12
                assert hi[j] <= hi[s] + length + 1e-12
        return result

    def test_invariants_random(self):
        for seed in range(30):
            self._check_invariants(_random_intervals(seed))

    def test_five_times_bound_near_tight(self):
        # A long interval with shorter ones hanging off both ends: the
        # greedy pick keeps only the long one, and the union length
        # approaches but never exceeds five times its length.
        items = [(0.0, 1.0), (-0.999, 0.001), (0.999, 1.999)]
        result = interval_select_1d(interval_balls(items))
        assert result.selected == [0]
        total = union_length_oracle(items)
        assert total <= 5.0 * 1.0
        assert total > 2.9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_property_random_seeds(self, seed):
        self._check_invariants(_random_intervals(seed, n_max=20))


# ---------------------------------------------------------------------------
# SelectionResult
# ---------------------------------------------------------------------------


class TestSelectionResult:
    def test_rejects_duplicate_selection(self):
        with pytest.raises(ValueError):
            SelectionResult([0, 1, 0], {0: [0], 1: [1]})

    def test_random_collection_integration(self):
        # The harness generator feeds every selector without error and
        # every group key is a genuine input index.
        balls = random_collection(2, seed=123)
        for result in (
            vitali_select(balls),
            besicovitch_select(balls),
            perimeter_besicovitch_select(balls),
            perimeter_vitali_select(balls, 0.01),
        ):
            assert result.selected
            assert set(result.selected) <= set(range(len(balls)))
            assert set(result.groups) <= set(range(len(balls)))


# ---------------------------------------------------------------------------
# the one largest-first scan against the per-step loops
# ---------------------------------------------------------------------------


def _scan_cases(dim: int) -> dict[str, BallCollection]:
    """Collections on which the scan and the per-step loops could part:
    the corpus law, pairs at the tangency tolerance, centres on a
    larger sphere, coincident copies, radius ties, radii over six
    decades, a single ball and, in the plane, the ``select`` benchmark's
    3000 disks."""
    axis = np.eye(dim)[0]
    cases = {
        f"corpus-{seed}": random_collection(dim, [dim, seed], count=60)
        for seed in range(8)
    }
    # unit pairs exactly at, a hair inside and just outside the
    # DISJOINT_TOL margin, and touching, each pair well away from the
    # others; the first pair's distance is the margin to the last bit
    gaps = [2.0 - DISJOINT_TOL, 2.0 - 2.0 * DISJOINT_TOL, 2.0 - 0.5 * DISJOINT_TOL, 2.0]
    tangent = [(10.0 * k + g * side) * axis for k, g in enumerate(gaps) for side in (0, 1)]
    cases["tangent"] = BallCollection.from_arrays(tangent, np.ones(len(tangent)))
    # centres exactly on the sphere of a larger ball, which contains them
    cases["on-sphere"] = BallCollection.from_arrays(
        np.outer([0.0, 1.0, -1.0, 0.5], axis), [1.0, 0.5, 0.25, 0.5]
    )
    base = random_collection(dim, [dim, 99], count=12)
    copies = [0, 0, 3, 0, 3]
    cases["coincident"] = BallCollection.from_arrays(
        np.vstack([base.centers, base.centers[copies]]),
        np.append(base.radii, base.radii[copies]),
    )
    chain = np.outer(np.arange(15) * 1.5, axis)
    cases["ties"] = BallCollection.from_arrays(chain[::-1], np.ones(15))
    rng = np.random.default_rng([dim, 7])
    cases["decades"] = BallCollection.from_arrays(
        rng.uniform(-1.0, 1.0, (80, dim)), 10.0 ** rng.uniform(-6.0, 0.0, 80)
    )
    cases["single"] = BallCollection.from_arrays(np.zeros((1, dim)), [0.5])
    if dim == 2:
        # the benchmark's collection, whose pair layer spans four trees
        cases["select-3000"] = BallCollection.from_arrays(*select_law(3000, 7))
    return cases


def _same_result(got: SelectionResult, want: SelectionResult):
    assert got.selected == want.selected
    assert list(got.groups.items()) == list(want.groups.items())
    assert got.families == want.families
    assert got.params == want.params


def _rounded_end_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (s, j) of equal radius far apart on the line, j after s and
    touching it from the left, where rounding makes lo_j fall below
    lo_s - 2 r_s, so a window without a pad would miss j."""
    rng = np.random.default_rng(17)
    centers, radii = [], []
    while len(radii) < 2 * count:
        r = float(rng.uniform(0.1, 1.0))
        c = 1e4 * (len(radii) + 1) + float(rng.uniform(0.0, 1.0)) * 1e3
        lo = c - r
        near = lo - r
        for step in range(-4, 5):
            cj = near + step * math.ulp(near)
            if cj + r >= lo and cj - r < lo - 2.0 * r:
                centers += [c, cj]
                radii += [r, r]
                break
    return np.array(centers)[:, None], np.array(radii)


def _interval_window_cases() -> dict[str, BallCollection]:
    """1D collections at the edges of the windowed closure test: closures
    touching to the last bit or missing by one ulp, nested intervals,
    and ends whose rounding makes hi - lo exceed 2 r."""
    below = math.nextafter(-0.5, -math.inf)
    touching = [(1.0, 1.0), (-0.5, 0.5), (below, 0.5), (2.25, 0.25),
                (math.nextafter(2.25, math.inf), 0.25), (1e6 + 0.3, 0.7),
                (1e6 + 0.3 - 1.4, 0.7), (1e6 + 0.3 + 1.4, 0.7)]
    rng = np.random.default_rng(18)
    nested = (rng.uniform(-20.0, 20.0, 300), 10.0 ** rng.uniform(-3.0, 0.5, 300))
    return {
        "touching": BallCollection.from_arrays([[c] for c, _ in touching],
                                               [r for _, r in touching]),
        "nested": BallCollection.from_arrays(nested[0][:, None], nested[1]),
        "rounded-ends": BallCollection.from_arrays(*_rounded_end_pairs(40)),
    }


class TestLargestFirstScan:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_vitali_matches_per_step(self, dim):
        for balls in _scan_cases(dim).values():
            _same_result(vitali_select(balls), vitali_select_per_step(balls))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_besicovitch_matches_per_step(self, dim):
        for balls in _scan_cases(dim).values():
            _same_result(besicovitch_select(balls), besicovitch_select_per_step(balls))

    def test_interval_matches_per_step(self):
        for balls in _scan_cases(1).values():
            _same_result(interval_select_1d(balls), interval_select_1d_per_step(balls))

    def test_interval_window_edges_match_per_step(self):
        cases = _interval_window_cases()
        for balls in cases.values():
            _same_result(interval_select_1d(balls), interval_select_1d_per_step(balls))
        # the touching closures merge, those one ulp apart do not, and
        # each rounded pair forms one group
        assert interval_select_1d(cases["touching"]).groups[0] == [0, 1, 3]
        groups = interval_select_1d(cases["rounded-ends"]).groups
        assert all(groups[s] == [s, s + 1] for s in range(0, 80, 2))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_perimeter_vitali_matches_per_step(self, dim):
        eps = 0.5 * overlap_eps_max(dim)
        for balls in _scan_cases(dim).values():
            result = perimeter_vitali_select(balls, eps)
            want = perimeter_vitali_select_per_step(balls, eps)
            assert (result.selected, list(result.groups.items())) == (
                want[0],
                list(want[1].items()),
            )

    def test_cases_reach_every_edge(self):
        # Only the pair overlapping by more than DISJOINT_TOL merges, the
        # ties keep input order, and a coincident copy never beats its
        # original.
        cases = _scan_cases(2)
        assert vitali_select(cases["tangent"]).selected == [0, 1, 2, 4, 5, 6, 7]
        assert besicovitch_select(cases["on-sphere"]).selected == [0]
        assert vitali_select(cases["ties"]).selected == list(range(0, 15, 2))
        chosen = vitali_select(cases["coincident"]).selected
        assert not set(chosen) & set(range(12, 17))


def test_selections_match_recorded_digest():
    # sha256 of the selection text of the four planar selectors on the
    # select benchmark's 3000 disks at two seeds, recorded before the
    # scan moved to Python ints and the pair layer's trees grew
    digest = hashlib.sha256()
    for seed in (7, 11):
        balls = BallCollection.from_arrays(*select_law(3000, seed))
        for result in (
            vitali_select(balls),
            besicovitch_select(balls),
            perimeter_besicovitch_select(balls),
            perimeter_vitali_select(balls, 0.01),
        ):
            digest.update(dump_selection(result).encode())
    assert digest.hexdigest() == (
        "d9612b8c9f9e9468e48dbafb134ca2a11094b33ba27ca9f974a88a4f5ac2ea2a"
    )


# ---------------------------------------------------------------------------
# exact symmetries
# ---------------------------------------------------------------------------

# Maps of a planar collection that floating point carries out exactly:
# each takes the centers, the radii and a permutation of the inputs.
_SYMMETRIES = {
    "mirror": lambda centers, radii, order: (centers * [-1.0, 1.0], radii),
    "swap": lambda centers, radii, order: (centers[:, ::-1], radii),
    "scale-4": lambda centers, radii, order: (4.0 * centers, 4.0 * radii),
    "permutation": lambda centers, radii, order: (centers[order], radii[order]),
}


@pytest.mark.parametrize("symmetry", sorted(_SYMMETRIES))
@pytest.mark.parametrize(
    "select",
    [vitali_select, besicovitch_select, lambda balls: perimeter_vitali_select(balls, 0.01)],
    ids=["vitali", "besicovitch", "perimeter-vitali"],
)
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_selection_commutes_with_exact_symmetries(select, symmetry, seed):
    # A guard for refactors that needs no oracle: the selections depend
    # only on distances and radii, which these maps keep or scale by a
    # power of two, and on the order of the radii, which ties would tie
    # to the input order; the permutation maps its choice back.
    balls = random_collection(2, [2, seed])
    assume(np.unique(balls.radii).size == len(balls))
    order = np.random.default_rng(seed).permutation(len(balls))
    if symmetry != "permutation":
        order = np.arange(len(balls))
    centers, radii = _SYMMETRIES[symmetry](balls.centers, balls.radii, order)
    mapped = select(BallCollection.from_arrays(centers, radii)).selected
    assert order[mapped].tolist() == select(balls).selected
