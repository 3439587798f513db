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
    _arc,
    _Distances,
    _Pocket,
    _pair_opening,
    _PocketQueue,
    build_fig1,
    build_reverse_example,
    build_surrounded_ball,
    build_surrounded_ball_detailed,
)
from ballcover.geometry import (
    TWO_PI,
    _arc_ends,
    _cos_half_angle,
    _lens_volumes,
    free_arc_length_in_disk,
    union_perimeter,
    union_perimeter_2d,
    unit_ball_volume,
)
from ballcover.selection import vitali_select

from oracles import packing_probe_oracle, ring_family_perimeter_oracle, surrounded_disk_fits


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
    (``_PocketQueue.gaps`` calls) that built it."""
    calls = []
    probe = _PocketQueue.gaps

    def spy(self, rho, r):
        calls.append(r)
        return probe(self, rho, r)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PocketQueue, "gaps", spy)
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


def _probe_bisection(queue, distance, lo: float, hi: float) -> float | None:
    """The largest radius in [lo, hi] that the probe of ``queue`` accepts
    at center distance ``distance(r)``, by halving [lo, hi] 50 times,
    which leaves less than 3e-16 of [0, 0.3]; None when it rejects lo."""

    def fits(r: float) -> bool:
        return queue.gaps(distance(r), r)[1].size > 0

    if fits(hi):
        return hi
    if not fits(lo):
        return None
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _straddling_disks(rng, count: int):
    """``count`` random (center distance, angle, radius) of small disks
    that straddle the unit circle, as the packing's do."""
    for _ in range(count):
        r = rng.uniform(0.005, 0.3)
        yield 1.0 + rng.uniform(-0.5, 0.5) * r, rng.uniform(0.0, 2.0 * math.pi), r


def _third_disk_states():
    """Pocket queues at floor ``_THIRD_DISK_LO`` holding 10 to 40 random
    straddling disks, added in no order of radius under the key
    ``_THIRD_DISK_HI``, in which radius ``_THIRD_DISK_LO`` fits and
    ``_THIRD_DISK_HI`` does not, each with the largest radius that fits
    by a bisection on the probe.  The center distance
    ``_linear_distance`` grows with the radius, so the disks' arcs grow
    at unlike rates."""
    rng = np.random.default_rng(5)
    for _ in range(600):
        queue = _PocketQueue(_THIRD_DISK_LO, _LinearDistances(), 1e-14)
        for rho, angle, r in _straddling_disks(rng, int(rng.integers(10, 40))):
            queue.add(rho, angle, r, _THIRD_DISK_HI)
        want = _probe_bisection(queue, _linear_distance, _THIRD_DISK_LO, _THIRD_DISK_HI)
        if want is not None and want < _THIRD_DISK_HI:
            yield queue, want


def _assert_fit(queue, found, want: float, distance=_linear_distance) -> None:
    """A search's (radius, distance, free arcs) is the probe's own at its
    radius, which lies within 1e-13 of the bisection's ``want``."""
    r, rho, gaps = found
    assert rho == distance(r)
    assert [a.tolist() for a in gaps] == [a.tolist() for a in queue.gaps(rho, r)]
    assert gaps[1].size > 0
    assert abs(r - want) <= 1e-13


def _bits(value) -> list[int]:
    """The bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=float).reshape(-1).view(np.int64).tolist()


def _opening_oracle(left, right, rho: float, r: float) -> float:
    """The opening of the gap from the arc of ``left`` to that of
    ``right``, from the two ``_arc`` results: -pi when either is the
    whole circle, else the end of the left arc (less 2*pi past 2*pi) to
    the start of the right one, or the sum of the two pieces across
    0 = 2*pi, or the angle between the centers less both half-widths
    when the arcs overlap across 0 = 2*pi."""
    arc_left, arc_right = _arc(left, rho, r), _arc(right, rho, r)
    if arc_left is None or arc_right is None:
        return -math.pi
    (h_left, _, end), (h_right, start, _) = arc_left, arc_right
    span = right[0] - left[0]
    approx = (span if span > 0.0 else span + TWO_PI) - h_left - h_right
    if end > TWO_PI:
        end -= TWO_PI
    gap = start - end
    if gap < approx - math.pi:
        gap = (TWO_PI - end) + start
    elif gap > approx + math.pi:
        gap = approx
    return gap


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
        # The disks straddle the unit circle, as the packing's do, so
        # their floor arcs, which add also takes, are finite.
        rng = np.random.default_rng(11)
        queue = _PocketQueue(_THIRD_DISK_LO, _LinearDistances(), 1e-14)
        want = np.empty((3, 0))
        angles = rng.uniform(0.0, 2.0 * math.pi, 150)
        angles[7] = angles[3]
        for angle in angles.tolist():
            r = rng.uniform(0.01, 0.1)
            rho = 1.0 + rng.uniform(-0.5, 0.5) * r
            queue.add(rho, angle, r, r)
            k = int(np.searchsorted(want[0], angle))
            want = np.insert(want, k, (angle, rho, r), axis=1)
            assert np.array_equal(queue._disks, want)

    @pytest.mark.parametrize("r", [_THIRD_DISK_LO, 0.01, 0.1, _THIRD_DISK_HI])
    def test_scalar_arc_matches_the_vector_kernel(self, r):
        # add and _learn read each arc from _arc, as the oracle of the
        # pocket openings does, and the probe takes the vector kernel and
        # _arc_ends; the probe finds a gap exactly when the opening is
        # positive only if both give the same floats.
        # The last disk holds the whole circle of distance rho, so it
        # blocks every angle.
        rng = np.random.default_rng(13)
        rho = _linear_distance(r)
        for _ in range(20):
            disks = [(angle, dist, s) for dist, angle, s in _straddling_disks(rng, 30)]
            disks.append((rng.uniform(0.0, 2.0 * math.pi), 1.0, 2.0))
            angle, dist, radius = np.array(disks).T
            q = _cos_half_angle(dist, rho, r + radius)
            h = np.arccos(np.maximum(q, -1.0))
            lo, hi = _arc_ends(angle, h)
            vector = zip(q.tolist(), h.tolist(), lo.tolist(), hi.tolist())
            for disk, (qk, *arc) in zip(disks, vector):
                if qk <= -1.0:
                    assert _arc(disk, rho, r) is None and arc[0] == math.pi
                else:
                    assert _arc(disk, rho, r) == tuple(arc)
            assert q[-1] <= -1.0

    def test_pair_opening_matches_its_formula_on_two_arcs(self):
        # The opening binds its two disks once and takes their arcs
        # inline; it must give, float for float, the width from the end
        # of the left _arc to the start of the right one, over gaps
        # across 0 = 2*pi, left arcs that end past 2*pi, pairs whose arcs
        # overlap across 0 = 2*pi and disks that hold the whole circle.
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(60):
            (rho_l, a_l, s_l), (rho_r, a_r, s_r) = _straddling_disks(rng, 2)
            pairs.append(((a_l, rho_l, s_l), (a_r, rho_r, s_r)))
            # a left disk just below 2*pi and a right one just above 0
            a_l, a_r = TWO_PI - rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
            pairs.append(((a_l, rho_l, s_l), (a_r, rho_r, s_r)))
        whole = (rng.uniform(0.0, TWO_PI), 1.0, 2.0)
        pairs += [(whole, pairs[0][1]), (pairs[0][0], whole), (whole, whole)]
        seen = {"across 0": 0, "end past 2*pi": 0, "overlap": 0, "shut": 0}
        for r in [_THIRD_DISK_LO, 0.01, 0.1, _THIRD_DISK_HI]:
            for rho in [1.0 - 0.4 * r, 1.0, 1.0 + 0.4 * r]:
                for left, right in pairs:
                    want = _opening_oracle(left, right, rho, r)
                    got = _pair_opening(left, right)(rho, r)
                    assert _bits(got) == _bits(want), (left, right, rho, r)
                    arcs = _arc(left, rho, r), _arc(right, rho, r)
                    if None in arcs:
                        seen["shut"] += 1
                        continue
                    seen["across 0"] += right[0] < left[0]
                    seen["end past 2*pi"] += arcs[0][2] > TWO_PI
                    seen["overlap"] += want <= 0.0
        assert min(seen.values()) > 20, seen

    def test_pocket_opening_is_the_least_over_its_pairs(self):
        # A pocket with two disks on each side is as wide as its
        # narrowest pair, and shut at -pi when any arc is the whole
        # circle; with one disk on each side it is its pair's opening.
        rng = np.random.default_rng(19)
        whole = (1.0, 1.0, 2.0)
        for trial in range(40):
            disks = [(a, rho, s) for rho, a, s in _straddling_disks(rng, 4)]
            if trial % 4 == 3:
                disks[trial % 3] = whole
            pocket = _Pocket(disks[0], disks[2], 0.3)
            alone = pocket.opening()
            pocket.left.append(disks[1])
            pocket.right.append(disks[3])
            both = pocket.opening()
            for r in [_THIRD_DISK_LO, 0.01, 0.1]:
                rho = _linear_distance(r)
                pairs = [(left, right) for left in disks[:2] for right in disks[2:]]
                widths = [_opening_oracle(left, right, rho, r) for left, right in pairs]
                shut = any(_arc(disk, rho, r) is None for disk in disks)
                assert _bits(both(rho, r)) == _bits(-math.pi if shut else min(widths))
                assert _bits(alone(rho, r)) == _bits(widths[0])

    @pytest.mark.parametrize("r", [_THIRD_DISK_LO, 0.01, 0.1, _THIRD_DISK_HI])
    def test_probe_matches_the_sorted_union_of_split_arcs(self, r):
        # The probe finds its gaps in the angle order of the store, with
        # no sort; its gap ends must be, float for float, those of the
        # arcs cut at 2*pi and joined after a sort.  The states: random
        # queues, one whose arcs wrap at both ends, one with a disk that
        # blocks every angle and one with no disk.
        rng = np.random.default_rng(23)
        rho = _linear_distance(r)
        states = [[]]
        for count in range(1, 41):
            states.append([(a, d, s) for d, a, s in _straddling_disks(rng, count)])
        states.append([(0.01, 1.0, 0.05), (TWO_PI - 0.01, 1.0, 0.05), (3.0, 1.0, 0.1)])
        states.append(states[10] + [(2.0, 1.0, 2.0)])
        gapless = 0
        for disks in states:
            queue = _PocketQueue(_THIRD_DISK_LO, _LinearDistances(), 1e-14)
            for angle, dist, radius in disks:
                queue.add(dist, angle, radius, radius)
            got, want = queue.gaps(rho, r), packing_probe_oracle(queue._disks, rho, r)
            assert [_bits(a) for a in got] == [_bits(a) for a in want]
            gapless += want[0].size == 0
        assert 0 < gapless < len(states) // 2, gapless

    def test_pocket_queue_matches_a_bisection_on_the_probe(self):
        # Pockets at the floor are solved each on its own two disks, so
        # where the arc of a third disk shuts the top pocket first, the
        # probe rejects its root; the pocket then learns that disk and is
        # solved again below the root.  The first radius and twenty more
        # placements, each in the middle of the first free arc, must each
        # be the largest radius that fits by a bisection on the probe.
        accepted = []
        probe = _PocketQueue.gaps

        def spy(queue, rho, r):
            found = probe(queue, rho, r)
            accepted.append(found[1].size > 0)
            return found

        lo, hi, searched, placed = _THIRD_DISK_LO, _THIRD_DISK_HI, 0, 0
        for queue, want in _third_disk_states():
            r, rho = hi, _linear_distance(hi)
            for _ in range(21):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(_PocketQueue, "gaps", spy)
                    found = queue.largest_fit(r, rho)
                if want is None:
                    assert found is None
                    break
                _assert_fit(queue, found, want)
                r, rho, (starts, ends) = found
                queue.add(rho, 0.5 * (starts[0] + ends[0]), r, r)
                want = _probe_bisection(queue, _linear_distance, lo, r)
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
        # The probe's gaps there must be those of the sorted union.
        floor = 0.3e-3
        distances = _Distances(0.05, floor, 0.3)
        rho = distances(0.3)
        queue = _PocketQueue(floor, distances, 0.3e-14)
        queue.add(rho, angle, 0.3, 0.3)
        _, lo, hi = _arc(tuple(queue._disks[:, 0]), distances(floor), floor)
        assert hi == TWO_PI or lo == 0.0
        for r in [floor, 0.01, 0.3]:
            got = queue.gaps(distances(r), r)
            want = packing_probe_oracle(queue._disks, distances(r), r)
            assert [_bits(a) for a in got] == [_bits(a) for a in want]
        assert any(pocket.alive for *_, pocket in queue._heap)
        found = queue.largest_fit(0.3, rho)
        _assert_fit(queue, found, _probe_bisection(queue, distances, floor, 0.3), distances)

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
