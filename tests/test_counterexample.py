"""Tests for the stress-example generators.

The ring example is checked against its closed-form layout, the greedy
surrounded-ball packing against its exact-overlap and disjointness
contracts plus an area-budget argument and, at every shrinking
placement, an independent test that no larger disk fits, and the
reverse example against a direct measurement of its tiny inner boundary.
"""

import hashlib
import math

import numpy as np
import pytest

from ballcover import geometry
from ballcover.counterexample import (
    SurroundedBallConfig,
    _Distances,
    _PackingState,
    _PocketQueue,
    build_fig1,
    build_reverse_example,
    build_surrounded_ball,
    build_surrounded_ball_detailed,
)
from ballcover.geometry import (
    _lens_volumes,
    free_arc_length_in_disk,
    union_perimeter,
    union_perimeter_2d,
    unit_ball_volume,
)
from ballcover.selection import vitali_select

from oracles import ring_family_perimeter_oracle, surrounded_disk_fits


# ---------------------------------------------------------------------------
# build_fig1
# ---------------------------------------------------------------------------


class TestBuildFig1:
    def test_layout(self):
        k, t = 12, 0.25
        balls = build_fig1(k, t)
        assert len(balls) == k + 1
        assert balls.centers[0].tolist() == [0.0, 0.0]
        assert balls.radii[0] == 1.0
        ring_radius = 1.0 + 0.5 * t
        for j, ((x, y), r) in enumerate(zip(balls.centers[1:].tolist(), balls.radii[1:])):
            assert r == t
            dist = math.hypot(x, y)
            assert dist == pytest.approx(ring_radius, abs=1e-12)
            angle = math.atan2(y, x) % (2.0 * math.pi)
            assert angle == pytest.approx(2.0 * math.pi * j / k, abs=1e-12)

    def test_overlap_width_is_half_radius(self):
        # Each small disk reaches inward to 1 - t/2, so it pokes into
        # the central disk by exactly half its radius.
        for k, t in [(8, 0.4), (40, 0.05)]:
            balls = build_fig1(k, t)
            for center, r in zip(balls.centers[1:].tolist(), balls.radii[1:]):
                inner = math.hypot(*center) - r
                assert inner == pytest.approx(1.0 - 0.5 * t, abs=1e-12)

    def test_small_disks_pairwise_disjoint(self):
        for k, t in [(6, 0.5), (10, 0.2), (160, 0.0125)]:
            balls = build_fig1(k, t)
            small = balls.centers[1:].tolist()
            for a in range(len(small)):
                for b in range(a + 1, len(small)):
                    dist = math.dist(small[a], small[b])
                    assert dist >= 2.0 * t - 1e-12

    def test_small_disks_inside_doubled_center(self):
        balls = build_fig1(20, 0.1)
        for center, r in zip(balls.centers[1:].tolist(), balls.radii[1:]):
            assert math.hypot(*center) + r <= 2.0 + 1e-12

    def test_perimeter_matches_closed_form(self):
        for k in (10, 20, 40, 80, 160):
            t = 2.0 / k
            balls = build_fig1(k, t)
            expected = ring_family_perimeter_oracle(k, t)
            got = union_perimeter_2d(balls).value
            assert got == pytest.approx(expected, rel=1e-12)

    def test_disjoint_subfamily_perimeter_stays_bounded(self):
        # The greedy disjoint selection keeps the central disk only, so
        # its perimeter stays 2*pi while the union's grows with k.
        for k in (10, 80):
            balls = build_fig1(k, 2.0 / k)
            result = vitali_select(balls)
            chosen = balls.subset(result.selected)
            assert union_perimeter_2d(chosen).value == pytest.approx(
                2.0 * math.pi * len(result.selected), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            build_fig1(0, 0.1)
        with pytest.raises(ValueError):
            build_fig1(10, 0.0)
        with pytest.raises(ValueError):
            build_fig1(10, float("nan"))
        with pytest.raises(ValueError, match="doubled central disk"):
            build_fig1(4, 0.7)
        # sin(pi/40) ~ 0.0785 < 0.5 / 1.25 = 0.4: ring too crowded.
        with pytest.raises(ValueError, match="pairwise disjoint"):
            build_fig1(40, 0.5)

    def test_packing_frontier(self):
        # k = 6, t = 1/2: sin(pi/6) = 0.5 >= 0.5/1.25 holds with room.
        build_fig1(6, 0.5)
        # A single small disk never conflicts with itself.
        build_fig1(1, 0.5)


# ---------------------------------------------------------------------------
# SurroundedBallConfig
# ---------------------------------------------------------------------------


class TestSurroundedBallConfig:
    def test_accepts_valid(self):
        cfg = SurroundedBallConfig(eps=0.1, delta=0.3, n_max=100)
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps=0.0, delta=0.3, n_max=10),
            dict(eps=0.5, delta=0.3, n_max=10),
            dict(eps=-0.1, delta=0.3, n_max=10),
            dict(eps=0.1, delta=0.0, n_max=10),
            dict(eps=0.1, delta=float("inf"), n_max=10),
            dict(eps=0.1, delta=1.5, n_max=10),
            dict(eps=0.1, delta=0.3, n_max=0),
            dict(eps=0.1, delta=0.3, n_max=2.5),
            dict(eps=0.1, delta=0.3, n_max=float("inf")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SurroundedBallConfig(**kwargs)

    def test_builder_requires_config(self):
        with pytest.raises(TypeError):
            build_surrounded_ball_detailed({"eps": 0.1})


# ---------------------------------------------------------------------------
# build_surrounded_ball
# ---------------------------------------------------------------------------


_PACK_CFG = SurroundedBallConfig(eps=0.2, delta=0.3, n_max=2000, seed=3)


@pytest.fixture(scope="module")
def packing():
    return build_surrounded_ball_detailed(_PACK_CFG)


_SHRINK_CFG = SurroundedBallConfig(eps=0.05, delta=0.3, n_max=8000, seed=7)


@pytest.fixture(scope="module")
def shrinking_packing():
    """The packing of _SHRINK_CFG and the number of full probes
    (``_PackingState.gaps`` calls) that built it."""
    calls = []
    probe = _PackingState.gaps

    def spy(self, rho, r):
        calls.append(r)
        return probe(self, rho, r)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PackingState, "gaps", spy)
        balls = build_surrounded_ball(_SHRINK_CFG)
    return balls, len(calls)


def _shrinking(balls) -> list[int]:
    """Indices among the small disks of the placements whose radius is
    below the previous one."""
    radii = balls.radii[1:].tolist()
    return [k for k in range(1, len(radii)) if radii[k] < radii[k - 1]]


def _assert_largest_fits(balls, eps: float) -> None:
    """At every shrinking placement of a packing, a disk one part in 1e9
    smaller, at its own eps-overlap distance, fits among the disks placed
    before it, and one part in 1e9 larger is blocked at every angle."""
    centers, radii = balls.centers[1:].tolist(), balls.radii[1:].tolist()
    for k in _shrinking(balls):
        r = radii[k]
        assert surrounded_disk_fits(centers[:k], radii[:k], r * (1.0 - 1e-9), eps), k
        assert not surrounded_disk_fits(centers[:k], radii[:k], r * (1.0 + 1e-9), eps), k


_THIRD_DISK_LO, _THIRD_DISK_HI = 1e-3, 0.3


def _linear_distance(r: float) -> float:
    """Center distance of a new disk of radius r in the states of
    ``_third_disk_states``."""
    return 1.0 + 0.3 * r


class _LinearDistances:
    """``_linear_distance`` in the shape of ``counterexample._Distances``:
    exact, so its estimate is too."""

    def __call__(self, r: float) -> float:
        return _linear_distance(r)

    def estimate(self, r: float) -> float:
        return _linear_distance(r)


def _probe_bisection(state, distance, lo: float, hi: float) -> float | None:
    """The largest radius in [lo, hi] that the probe of ``state`` accepts
    at center distance ``distance(r)``, by halving [lo, hi] 50 times,
    which leaves less than 3e-16 of [0, 0.3]; None when it rejects lo."""

    def fits(r: float) -> bool:
        return state.gaps(distance(r), r)[1].size > 0

    if fits(hi):
        return hi
    if not fits(lo):
        return None
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _third_disk_states():
    """Packing states of 10 to 40 random straddling disks in which radius
    ``_THIRD_DISK_LO`` fits and ``_THIRD_DISK_HI`` does not, each with the
    largest radius that fits by a bisection on the probe.  The center
    distance ``_linear_distance`` grows with the radius, so the disks'
    arcs grow at unlike rates."""
    rng = np.random.default_rng(5)
    for _ in range(600):
        state = _PackingState()
        for _ in range(int(rng.integers(10, 40))):
            r = rng.uniform(0.005, 0.3)
            state.add(1.0 + rng.uniform(-0.5, 0.5) * r, rng.uniform(0.0, 2.0 * math.pi), r)
        want = _probe_bisection(state, _linear_distance, _THIRD_DISK_LO, _THIRD_DISK_HI)
        if want is not None and want < _THIRD_DISK_HI:
            yield state, want


def _assert_fit(state, found, want: float, distance=_linear_distance) -> None:
    """A search's (radius, distance, free arcs) is the probe's own at its
    radius, which lies within 1e-13 of the bisection's ``want``."""
    r, rho, gaps = found
    assert rho == distance(r)
    assert [a.tolist() for a in gaps] == [a.tolist() for a in state.gaps(rho, r)]
    assert gaps[1].size > 0
    assert abs(r - want) <= 1e-13


class TestBuildSurroundedBall:
    CFG = _PACK_CFG

    def test_central_ball(self, packing):
        balls, _ = packing
        assert balls.centers[0].tolist() == [0.0, 0.0]
        assert balls.radii[0] == 1.0
        assert len(balls) > 10

    def test_exact_overlap_fraction(self, packing):
        balls, _ = packing
        radii = balls.radii[1:]
        lens = _lens_volumes(radii, 1.0, np.hypot(*balls.centers[1:].T), 2)
        for frac in (lens / (unit_ball_volume(2) * radii**2)).tolist():
            assert frac == pytest.approx(self.CFG.eps, rel=1e-9)

    def test_small_disks_pairwise_disjoint(self, packing):
        balls, _ = packing
        centers, radii = balls.centers[1:], balls.radii[1:]
        dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        gaps = dists - (radii[:, None] + radii[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= -1e-12

    def test_radii_nonincreasing_within_bounds(self, packing):
        balls, _ = packing
        radii = balls.radii[1:].tolist()
        floor = self.CFG.delta * 1e-3
        assert all(r <= self.CFG.delta + 1e-15 for r in radii)
        assert all(r >= floor - 1e-15 for r in radii)
        assert all(a >= b - 1e-15 for a, b in zip(radii, radii[1:]))

    def test_disks_stay_in_annulus(self, packing):
        balls, _ = packing
        delta = self.CFG.delta
        for center, r in zip(balls.centers[1:].tolist(), balls.radii[1:].tolist()):
            dist = math.hypot(*center)
            assert dist - r >= 1.0 - 2.0 * delta - 1e-12
            assert dist + r <= 1.0 + 2.0 * delta + 1e-12

    def test_total_area_fits_annulus_budget(self, packing):
        # Pairwise disjoint disks inside the annulus of width 4*delta
        # around the unit circle can never exceed its area 8*pi*delta.
        balls, _ = packing
        total = sum(math.pi * r**2 for r in balls.radii[1:].tolist())
        assert total <= 8.0 * math.pi * self.CFG.delta

    def test_deterministic(self, packing):
        balls, stop = packing
        again, again_stop = build_surrounded_ball_detailed(self.CFG)
        assert np.array_equal(balls.centers, again.centers)
        assert np.array_equal(balls.radii, again.radii)
        assert stop == again_stop

    def test_saturated_packing_ignores_n_max_doubling(self, packing):
        balls, stop = packing
        assert stop == "radius floor"
        assert len(balls) - 1 < self.CFG.n_max, "packing must stop at the floor"
        doubled = build_surrounded_ball(
            SurroundedBallConfig(
                eps=self.CFG.eps,
                delta=self.CFG.delta,
                n_max=2 * self.CFG.n_max,
                seed=self.CFG.seed,
            )
        )
        assert np.array_equal(balls.centers, doubled.centers)
        assert np.array_equal(balls.radii, doubled.radii)

    def test_benchmark_size_packing_is_byte_identical(self):
        # The goldens stop at 275 disks; this pins the packing of the
        # benchmark's first eps, recorded when each pocket's shut radius
        # was solved once, on its own two disks, and taken from a heap.
        balls = build_surrounded_ball(
            SurroundedBallConfig(eps=10.0**-1.5, delta=0.3, n_max=8000, seed=7)
        )
        assert len(balls) == 719
        digest = hashlib.sha256(balls.centers.astype("<f8").tobytes())
        digest.update(balls.radii.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "a426b04a6ce35d9b3dd98a3106127806707c3f63bd61055dd86dfff5ced6650c"
        )

    def test_each_placed_radius_is_the_largest_that_fits(self, shrinking_packing):
        # Wherever the radius shrinks, the generator has searched for the
        # largest radius that still fits; a disk one part in 1e9 larger,
        # at its own eps-overlap distance, must be blocked at every angle
        # by the disks placed before it, and one part in 1e9 smaller must
        # fit (the oracle's distance is not exact enough to decide the
        # placed radius itself).
        balls, _ = shrinking_packing
        assert len(_shrinking(balls)) > 300
        _assert_largest_fits(balls, _SHRINK_CFG.eps)

    def test_few_full_probes_per_shrinking_placement(self, shrinking_packing):
        # The radius comes from the heap of pockets, so every placement
        # costs the one probe that accepts its radius and gives its free
        # arcs; only a rejected root of a top pocket adds one more, and
        # the build stops when no pocket is left, without a probe.  A
        # bisection on the probe would make over forty per shrinking
        # placement.
        balls, probes = shrinking_packing
        assert probes / len(_shrinking(balls)) <= 2.0

    def test_warm_overlap_solves_keep_the_cap_kernel_calls_few(self):
        # Each pocket's secant runs first on interpolated distances, and
        # each overlap solve starts between the solved radii on either
        # side, which saves most Newton steps: started at the midpoint of
        # the solver's bracket, the solves of this benchmark build made
        # 95,074 cap kernel calls; started between the ends of the
        # search's bracket, 19,512.
        calls = []
        cap_volume = geometry._cap_volume

        def spy(*args):
            calls.append(args)
            return cap_volume(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_cap_volume", spy)
            build_surrounded_ball(SurroundedBallConfig(eps=1e-2, delta=0.3, n_max=8000, seed=7))
        assert len(calls) <= 30_000

    def test_packing_state_inserts_in_angle_order_past_its_capacity(self):
        # The buffer doubles several times; its filled columns must equal
        # an array grown by np.insert, including an angle placed twice.
        rng = np.random.default_rng(11)
        state, want = _PackingState(), np.empty((4, 0))
        angles = rng.uniform(0.0, 2.0 * math.pi, 150)
        angles[7] = angles[3]
        for angle in angles.tolist():
            rho, r = 1.0 + rng.uniform(-0.1, 0.1), rng.uniform(0.01, 0.1)
            state.add(rho, angle, r)
            k = int(np.searchsorted(want[0], angle))
            want = np.insert(want, k, (angle, rho, rho * rho, r), axis=1)
            assert np.array_equal(state._disks, want)

    def test_pocket_queue_matches_a_bisection_on_the_probe(self):
        # Pockets at the floor are solved each on its own two disks, so
        # where the arc of a third disk shuts the top pocket first, the
        # probe rejects its root; the pocket then learns that disk and is
        # solved again below the root.  The first radius and twenty more
        # placements, each in the middle of the first free arc, must each
        # be the largest radius that fits by a bisection on the probe.
        accepted = []
        probe = _PackingState.gaps

        def spy(state, rho, r):
            found = probe(state, rho, r)
            accepted.append(found[1].size > 0)
            return found

        lo, hi, searched, placed = _THIRD_DISK_LO, _THIRD_DISK_HI, 0, 0
        for state, want in _third_disk_states():
            queue = _PocketQueue(lo, _LinearDistances(), 1e-14)
            for disk in state._disks.T.tolist():
                queue.add(disk, hi)
            r, rho = hi, _linear_distance(hi)
            for _ in range(21):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(_PackingState, "gaps", spy)
                    found = queue.largest_fit(state, r, rho)
                if want is None:
                    assert found is None
                    break
                _assert_fit(state, found, want)
                r, rho, (starts, ends) = found
                angle = 0.5 * (starts[0] + ends[0])
                state.add(rho, angle, r)
                queue.add((angle, rho, rho * rho, r), r)
                want = _probe_bisection(state, _linear_distance, lo, r)
                placed += 1
            searched += 1
        # each search ends with the one probe that accepts its radius;
        # every other probe rejected the root of a top pocket
        rejections = accepted.count(False)
        assert searched > 100 and placed > 10 * searched, (searched, placed)
        assert 0 < rejections < 0.05 * placed, rejections

    @pytest.mark.parametrize("angle", [6.116559403584584, 0.16662590359500218])
    def test_a_floor_arc_ending_at_0_leaves_a_pocket(self, angle):
        # At eps 0.05 and delta 0.3, the floor arc of a first disk of
        # radius delta at the first angle ends at exactly 2*pi, and at the
        # second it starts at exactly 0.  The free piece on the other side
        # of 0 = 2*pi is bounded by that disk too, so it gets a pocket.
        floor = 0.3e-3
        distances = _Distances(0.05, floor, 0.3)
        rho = distances(0.3)
        state, queue = _PackingState(), _PocketQueue(floor, distances, 0.3e-14)
        state.add(rho, angle, 0.3)
        queue.add((angle, rho, rho * rho, 0.3), 0.3)
        assert any(pocket.alive for *_, pocket in queue._heap)
        found = queue.largest_fit(state, 0.3, rho)
        _assert_fit(state, found, _probe_bisection(state, distances, floor, 0.3), distances)

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.02])
    def test_radii_never_grow_and_each_shrinking_radius_is_the_largest(self, eps):
        # Pockets keep their keys across placements, and a root the probe
        # rejected must not come back above the radius solved below it.
        # Eps 0.2 runs to the radius floor; the others stop at 200 disks,
        # since the oracle takes about 2 ms per shrinking placement.
        for seed in range(1, 6):
            balls = build_surrounded_ball(
                SurroundedBallConfig(eps=eps, delta=0.3, n_max=200, seed=seed)
            )
            radii = balls.radii[1:]
            assert np.all(radii[1:] <= radii[:-1]), seed
            _assert_largest_fits(balls, eps)

    def test_n_max_truncates(self):
        cfg = SurroundedBallConfig(eps=0.2, delta=0.3, n_max=60, seed=3)
        balls, stop = build_surrounded_ball_detailed(cfg)
        assert (len(balls), stop) == (61, "n_max")

    def test_seed_changes_angles_not_radii(self):
        a = build_surrounded_ball(
            SurroundedBallConfig(eps=0.2, delta=0.3, n_max=8, seed=1)
        )
        b = build_surrounded_ball(
            SurroundedBallConfig(eps=0.2, delta=0.3, n_max=8, seed=2)
        )
        # Early disks all take the cap radius delta at the same center
        # distance; only their angles move with the seed.
        assert a.radii[1:5].tolist() == b.radii[1:5].tolist()
        assert a.centers[1:].tolist() != b.centers[1:].tolist()


# ---------------------------------------------------------------------------
# build_reverse_example
# ---------------------------------------------------------------------------


class TestBuildReverseExample:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_reverse_example(0.0)
        with pytest.raises(ValueError):
            build_reverse_example(0.25)
        with pytest.raises(ValueError):
            build_reverse_example(0.1, box_half_width=1.5)

    def test_all_unit_radii(self):
        balls = build_reverse_example(0.05)
        assert (balls.radii == 1.0).all()
        assert len(balls) > 64

    def test_ring_layer_at_exact_distance(self):
        eps = 0.03
        balls = build_reverse_example(eps)
        for center in balls.centers[:64].tolist():
            assert math.hypot(*center) == pytest.approx(1.0 + eps, abs=1e-12)

    def test_origin_left_uncovered(self):
        eps = 0.05
        balls = build_reverse_example(eps)
        for center, r in zip(balls.centers.tolist(), balls.radii.tolist()):
            assert math.hypot(*center) > r

    def test_inner_boundary_length_close_to_circle(self):
        # The union boundary inside the disk of radius 2*eps is the
        # petal curve, whose length approaches 2*pi*eps as the ring
        # gets dense; 64 petals put it within one percent.
        for eps in (0.02, 0.05, 0.1):
            balls = build_reverse_example(eps)
            inner = free_arc_length_in_disk(balls, (0.0, 0.0), 2.0 * eps)
            assert inner == pytest.approx(2.0 * math.pi * eps, rel=0.01)

    def test_box_covered_away_from_hole(self):
        # The hex rows stop within one pitch of the box edge, so full
        # coverage is only promised a margin inside the box and outside
        # the central hole.
        eps = 0.05
        w = 4.0
        balls = build_reverse_example(eps, box_half_width=w)
        centers = balls.centers
        rng = np.random.default_rng(11)
        pts = rng.uniform(-(w - 1.0), w - 1.0, size=(400, 2))
        dist_origin = np.linalg.norm(pts, axis=1)
        pts = pts[dist_origin > 0.5]
        dists = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
        assert (dists.min(axis=1) <= 1.0).all()

    def test_disjoint_subfamilies_have_large_perimeter(self):
        balls = build_reverse_example(0.05)
        result = vitali_select(balls)
        assert result.selected
        chosen = balls.subset(result.selected)
        assert union_perimeter(chosen).value >= 2.0 * math.pi - 1e-9
