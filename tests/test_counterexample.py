"""Tests for the stress-example generators.

The ring example is checked against its closed-form layout, the greedy
surrounded-ball packing against its exact-overlap and disjointness
contracts plus an area-budget argument and, at every shrinking
placement, an independent test that no larger disk fits, and the
reverse example against a direct measurement of its tiny inner boundary.
"""

import contextlib
import hashlib
import math

import numpy as np
import pytest

from ballcover import geometry
from ballcover.counterexample import (
    SurroundedBallConfig,
    _arc,
    _Distances,
    _pair_opening,
    _PocketQueue,
    _secant,
    build_fig1,
    build_reverse_example,
    build_surrounded_ball,
    build_surrounded_ball_detailed,
)
from ballcover.geometry import (
    TWO_PI,
    _arc_ends,
    _haversine,
    _lens_volumes,
    center_distance_for_overlap,
    free_arc_lengths_2d,
    union_perimeter,
    union_perimeter_2d,
    unit_ball_volume,
)
from ballcover.selection import vitali_select

from oracles import (
    packing_probe_oracle,
    ring_family_perimeter_oracle,
    secant_oracle,
    surrounded_disk_fits,
)


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


# the least and greatest new radius at which the arc tests probe
_RADIUS_LO, _RADIUS_HI = 1e-3, 0.3


def _linear_distance(r: float) -> float:
    """A center distance that grows with the radius, for the random disks
    of the arc and opening kernel tests."""
    return 1.0 + 0.3 * r


def _oracle_bisection(disks, distance, lo: float, hi: float) -> float | None:
    """The largest radius in [lo, hi] at which ``packing_probe_oracle``
    finds a gap among ``disks`` at center distance ``distance(r)``, by
    halving [lo, hi] 50 times, which leaves less than 3e-16 of [0, 0.3];
    None when it finds none at lo."""

    def fits(r: float) -> bool:
        return packing_probe_oracle(disks, distance(r), r)[1].size > 0

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


def _assert_fit(queue, found, want: float, distance) -> None:
    """A search's (radius, distance, free arcs) is the probe's own at its
    radius, which lies within 1e-13 of the bisection's ``want``."""
    r, rho, gaps = found
    assert rho == distance(r)
    assert [a.tolist() for a in gaps] == [a.tolist() for a in queue.gaps(rho, r)]
    assert gaps[1].size > 0
    assert abs(r - want) <= 1e-13


@contextlib.contextmanager
def _placed_disks(then=None):
    """Patch ``_PocketQueue`` so that each queue keeps its placed disks,
    as (angle, center distance, radius), in ``placed``, and ``then(queue)``
    runs after its first disk and after each placement."""
    init, add = _PocketQueue.__init__, _PocketQueue.add

    def init_spy(queue, *args):
        init(queue, *args)
        # the first pocket lies between the first disk and itself
        queue.placed = [queue._pieces[0].left]
        if then is not None:
            then(queue)

    def add_spy(queue, rho, angle, r, key):
        add(queue, rho, angle, r, key)
        queue.placed.append((angle, rho, r))
        if then is not None:
            then(queue)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PocketQueue, "__init__", init_spy)
        patch.setattr(_PocketQueue, "add", add_spy)
        yield


def _store(queue) -> np.ndarray:
    """The placed disks of a queue made under ``_placed_disks``, one
    column each of angle, center distance and radius."""
    return np.array(queue.placed).T


def _bits(value) -> list[int]:
    """The bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=float).reshape(-1).view(np.int64).tolist()


def _opening_oracle(left, right, rho: float, r: float) -> float:
    """The opening of the gap from the arc of ``left`` to that of
    ``right``, from the two ``_arc`` results: -pi when either is the
    whole circle, else the end of the left arc (less 2*pi past 2*pi) to
    the start of the right one, or the angle between the centers less
    both half-widths when the arcs overlap across 0 = 2*pi."""
    arc_left, arc_right = _arc(left, rho, r), _arc(right, rho, r)
    if arc_left is None or arc_right is None:
        return -math.pi
    (h_left, _, end), (h_right, start, _) = arc_left, arc_right
    span = right[0] - left[0]
    approx = (span if span > 0.0 else span + TWO_PI) - h_left - h_right
    if end > TWO_PI:
        end -= TWO_PI
    gap = start - end
    return approx if gap > approx + math.pi else gap


# sha256 of the packings of test_pocket_probe_matches_the_oracle_at_every_placement
# per eps, recorded when the arcs' half-widths came from the haversine kernel
_ORACLE_DIGESTS = {
    10.0**-1.5: "0c543256ff38d6dc51198d29056da4e96e56b751f8a0f856ad0117f8e1c7481b",
    1e-2: "c3a0ec64ed81231ee4d6612eb1a8d3f2dc64a4beaafdabe1435c1415580b158f",
    1e-3: "c715b4752c34247605c4c3086171217a5b4d3bef2497965768d49b8ce4aa04c3",
    0.05: "cbdd4a34748506662617e6f59085b206d4b7f7fc5d0a706c6f98c269c2884017",
    0.2: "96ffd65886cae57c8d8b6c8d8b6c185f5a41938612f37452aa5f8e8583fdd5be",
}


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
        # The goldens stop at 281 disks; this pins the packing of the
        # benchmark's first eps, recorded when the arcs' half-widths came
        # from the haversine kernel.
        balls = build_surrounded_ball(
            SurroundedBallConfig(eps=10.0**-1.5, delta=0.3, n_max=8000, seed=7)
        )
        assert len(balls) == 713
        digest = hashlib.sha256(balls.centers.astype("<f8").tobytes())
        digest.update(balls.radii.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "7f1c3751573c7cab2ed042f64ea283d515b987a9f2932c43f95dcd014118df74"
        )

    @pytest.mark.parametrize(
        "eps, count, expected",
        [
            # the benchmark's second packing
            (1e-2, 1353, "31d60ef22d80312b3a40a5703635a21f9799cce47920bf922de4cd2e8c8f90e3"),
            # criterion 3's deepest packing
            (1e-3, 2429, "7c05361b544b6e7c292682ca537fc32fe074dd9c5a04ae2876117a4211be9e11"),
        ],
    )
    def test_deeper_packings_are_byte_identical(self, eps, count, expected):
        # recorded when the arcs' half-widths came from the haversine
        # kernel
        balls = build_surrounded_ball(
            SurroundedBallConfig(eps=eps, delta=0.3, n_max=8000, seed=7)
        )
        assert len(balls) == count
        digest = hashlib.sha256(balls.centers.astype("<f8").tobytes())
        digest.update(balls.radii.astype("<f8").tobytes())
        assert digest.hexdigest() == expected

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
        # At delta 0.1 four of these radii missed by more than one part in
        # 1e9 while the half-widths were arccos of cosines near 1.
        cfg = SurroundedBallConfig(eps=0.15, delta=0.1, n_max=400, seed=3)
        balls = build_surrounded_ball(cfg)
        assert len(_shrinking(balls)) > 150
        _assert_largest_fits(balls, cfg.eps)

    def test_few_full_probes_per_shrinking_placement(self, shrinking_packing):
        # The radius comes from the heap of pockets, so every placement
        # costs the one probe that accepts its radius and gives its free
        # arcs, and the build stops when no pocket is left, without a
        # probe.  A bisection on the probe would make over forty per
        # shrinking placement.
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

    @pytest.mark.parametrize("r", [_RADIUS_LO, 0.01, 0.1, _RADIUS_HI])
    def test_scalar_arc_matches_the_vector_kernel(self, r):
        # The probe, the pocket openings and add read each arc from _arc,
        # and the probe's oracle takes the kernel over arrays, the scalar
        # asin and _arc_ends; they agree on the gaps float for float only
        # if both give the same floats.
        # The last disk holds the whole circle of distance rho, so it
        # blocks every angle.
        rng = np.random.default_rng(13)
        rho = _linear_distance(r)
        for _ in range(20):
            disks = [(angle, dist, s) for dist, angle, s in _straddling_disks(rng, 30)]
            disks.append((rng.uniform(0.0, 2.0 * math.pi), 1.0, 2.0))
            angle, dist, radius = np.array(disks).T
            x = _haversine(dist, rho, r + radius)
            h = np.array([2.0 * math.asin(math.sqrt(min(v, 1.0))) for v in x.tolist()])
            lo, hi = _arc_ends(angle, h)
            vector = zip(x.tolist(), h.tolist(), lo.tolist(), hi.tolist())
            for disk, (xk, *arc) in zip(disks, vector):
                if xk >= 1.0:
                    assert _arc(disk, rho, r) is None and arc[0] == math.pi
                else:
                    assert _arc(disk, rho, r) == tuple(arc)
            assert x[-1] >= 1.0

    def test_pair_opening_matches_its_formula_on_two_arcs(self):
        # The opening binds its two disks once and reads their arcs
        # from _arc; it must give, float for float, the width from the end
        # of the left _arc to the start of the right one, over gaps that
        # run from or to the first disk at angle 0, left arcs that end
        # past 2*pi, pairs whose arcs overlap, also across 0 = 2*pi, and
        # disks that hold the whole circle.  No gap runs across 0 = 2*pi.
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(60):
            (rho_l, a_l, s_l), (rho_r, a_r, s_r) = _straddling_disks(rng, 2)
            a_l, a_r = sorted((a_l, a_r))
            pairs.append(((a_l, rho_l, s_l), (a_r, rho_r, s_r)))
            pairs.append(((0.0, rho_l, s_l), (a_r, rho_r, s_r)))
            # a left disk just below 2*pi and the first disk
            pairs.append(((TWO_PI - rng.uniform(0.0, 0.3), rho_l, s_l), (0.0, rho_r, s_r)))
        whole = (rng.uniform(0.0, TWO_PI), 1.0, 2.0)
        pairs += [(whole, pairs[0][1]), (pairs[0][0], whole), (whole, whole)]
        seen = {"overlap across 0": 0, "end past 2*pi": 0, "overlap": 0, "shut": 0}
        for r in [_RADIUS_LO, 0.01, 0.1, _RADIUS_HI]:
            for rho in [1.0 - 0.4 * r, 1.0, 1.0 + 0.4 * r]:
                for left, right in pairs:
                    want = _opening_oracle(left, right, rho, r)
                    got = _pair_opening(left, right)(rho, r)
                    assert _bits(got) == _bits(want), (left, right, rho, r)
                    arcs = _arc(left, rho, r), _arc(right, rho, r)
                    if None in arcs:
                        seen["shut"] += 1
                        continue
                    (_, _, end), (_, start, _) = arcs
                    if end > TWO_PI:
                        end -= TWO_PI
                        seen["end past 2*pi"] += 1
                    # shut, though the right arc starts after the left ends
                    seen["overlap across 0"] += want <= 0.0 < start - end
                    seen["overlap"] += want <= 0.0
        assert min(seen.values()) > 20, seen

    def test_blocked_half_width_does_not_decrease_in_the_new_radius(self):
        # The lemma of _PocketQueue rests on H(a, b), the half-width of
        # the arc that a disk of radius a at its own law distance blocks
        # for a new disk of radius b at its own, not decreasing in b:
        # checked on 13 eps from 1e-6 to 0.4999, 60 radii a and 600
        # radii b from 1e-6 to 1.  Where a disk blocks every angle, H is
        # pi.
        b = np.geomspace(1e-6, 1.0, 600)
        a = b[::10]
        for eps in np.geomspace(1e-6, 0.4999, 13).tolist():
            rho = np.array([center_distance_for_overlap(s, 1.0, eps, 2) for s in b.tolist()])
            x = _haversine(rho[::10, None], rho[None, :], a[:, None] + b[None, :])
            h = 2.0 * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))
            assert (np.diff(h, axis=1) >= 0.0).all(), eps

    @pytest.mark.parametrize("r", [_RADIUS_LO, 0.01, 0.1, _RADIUS_HI])
    def test_probe_matches_the_sorted_union_of_split_arcs(self, r):
        # The probe sweeps each candidate pocket over the arcs of its own
        # two disks; on the states of a packing, where the lemma of
        # _PocketQueue holds, its gap ends must be, float for float,
        # those of all the placed arcs cut at 2*pi and joined after a
        # sort.  The states: the first disk alone, at angle 0, and each
        # placement of eighteen builds (delta 0.3) while every placed
        # radius is at least r, probed at radius r and its own distance.
        # The last such state of a build that goes below r has no gap.
        probes, gapless = 0, 0

        def check(queue):
            nonlocal probes, gapless
            if queue.placed[-1][2] >= r:
                got, want = queue.gaps(rho, r), packing_probe_oracle(_store(queue), rho, r)
                assert [_bits(a) for a in got] == [_bits(a) for a in want]
                probes += 1
                gapless += want[0].size == 0

        for eps in (0.2, 0.05, 1e-2):
            rho = center_distance_for_overlap(r, 1.0, eps, 2)
            with _placed_disks(check):
                for seed in range(1, 7):
                    build_surrounded_ball(
                        SurroundedBallConfig(eps=eps, delta=0.3, n_max=8000, seed=seed)
                    )
        assert 18 <= gapless < probes // 4, (gapless, probes)

    def test_pocket_queue_matches_a_bisection_on_the_probe(self):
        # Each radius that the search gives must be the largest that fits
        # by a bisection on packing_probe_oracle, which reads every
        # placed disk, and its free arcs the probe's own there.  The
        # queues run on the center distances of one _Distances each and
        # place each disk at a random angle of its free arcs, 150 disks
        # at most per eps and seed (delta 0.3).
        shrinking = 0
        for eps in (0.2, 0.05, 1e-2):
            for seed in (1, 2):
                rng = np.random.default_rng(seed)
                floor = 0.3e-3
                distances = _Distances(eps, floor, 0.3)
                queue = _PocketQueue(floor, distances, 0.3e-14, 0.3)
                r, rho = 0.3, distances(0.3)
                disks = [(0.0, rho, r)]
                for _ in range(150):
                    found = queue.largest_fit(r, rho)
                    want = _oracle_bisection(np.array(disks).T, distances, floor, r)
                    if want is None:
                        assert found is None
                        break
                    _assert_fit(queue, found, want, distances)
                    shrinking += found[0] < r
                    r, rho, (starts, ends) = found
                    k = int(rng.integers(starts.size))
                    angle = float(rng.uniform(starts[k], ends[k]))
                    queue.add(rho, angle, r, r)
                    disks.append((angle, rho, r))
        assert shrinking > 300, shrinking

    @pytest.mark.parametrize("eps", list(_ORACLE_DIGESTS))
    def test_pocket_probe_matches_the_oracle_at_every_placement(self, eps):
        # At every probe of nine builds (delta 0.3, 0.1 and 0.03, seeds
        # 1 to 3, 1000 disks at most), the gaps of the probe, which reads
        # only the candidate pockets' own disks, must be, float for
        # float, those of all the placed disks' arcs joined after a sort;
        # and the packings must keep their recorded sha256.
        probe, calls = _PocketQueue.gaps, []

        def spy(queue, rho, r):
            found = probe(queue, rho, r)
            want = packing_probe_oracle(_store(queue), rho, r)
            assert [_bits(a) for a in found] == [_bits(a) for a in want], (rho, r)
            calls.append(found[0].size)
            return found

        digest = hashlib.sha256()
        with _placed_disks(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PocketQueue, "gaps", spy)
            for delta in (0.3, 0.1, 0.03):
                for seed in (1, 2, 3):
                    balls = build_surrounded_ball(
                        SurroundedBallConfig(eps=eps, delta=delta, n_max=1000, seed=seed)
                    )
                    digest.update(balls.centers.astype("<f8").tobytes())
                    digest.update(balls.radii.astype("<f8").tobytes())
        assert digest.hexdigest() == _ORACLE_DIGESTS[eps]
        assert len(calls) > 2000 and max(calls) > 1

    @pytest.mark.parametrize("angle", [6.116559403584584, 0.16662590359500207])
    def test_probe_on_arc_ends_at_0(self, angle):
        # At eps 0.05 and delta 0.3, the floor arc of a disk of radius
        # delta at the first angle ends at exactly 2*pi, and at the second
        # it starts at exactly 0.  The probe's gaps there must be those of
        # the sorted union.
        floor = 0.3e-3
        distances = _Distances(0.05, floor, 0.3)
        rho = distances(0.3)
        queue = _PocketQueue(floor, distances, 0.3e-14, 0.3)
        queue.add(rho, angle, 0.3, 0.3)
        _, lo, hi = _arc((angle, rho, 0.3), distances(floor), floor)
        assert hi == TWO_PI or lo == 0.0
        disks = np.array([(0.0, rho, 0.3), (angle, rho, 0.3)]).T
        for r in [floor, 0.01, 0.3]:
            got = queue.gaps(distances(r), r)
            want = packing_probe_oracle(disks, distances(r), r)
            assert [_bits(a) for a in got] == [_bits(a) for a in want]
        found = queue.largest_fit(0.3, rho)
        _assert_fit(queue, found, _oracle_bisection(disks, distances, floor, 0.3), distances)

    def test_a_disk_tangent_to_the_first_one_shuts_their_gap(self):
        # At eps 0.2 a disk of radius delta = 0.3 drawn at the very start
        # of the first disk's arc is tangent to it, and at radius delta
        # its own arc's float end passes 2*pi by an ulp: the arcs overlap
        # across 0 = 2*pi.  The opening of their gap must be at most 0,
        # the probe must find no gap there, and the search must give
        # the largest fit of the sorted union.
        floor = 0.3e-3
        distances = _Distances(0.2, floor, 0.3)
        rho = distances(0.3)
        first = (0.0, rho, 0.3)
        tangent = (_arc(first, rho, 0.3)[1], rho, 0.3)
        assert _arc(tangent, rho, 0.3)[2] > TWO_PI
        assert _pair_opening(tangent, first)(rho, 0.3) <= 0.0
        queue = _PocketQueue(floor, distances, 0.3e-14, 0.3)
        queue.add(rho, tangent[0], 0.3, 0.3)
        disks = np.array([first, tangent]).T
        for r in [floor, 0.01, 0.3]:
            got = queue.gaps(distances(r), r)
            want = packing_probe_oracle(disks, distances(r), r)
            assert [_bits(a) for a in got] == [_bits(a) for a in want]
        found = queue.largest_fit(0.3, rho)
        _assert_fit(queue, found, _oracle_bisection(disks, distances, floor, 0.3), distances)

    def test_no_gap_or_floor_piece_touches_0_or_2pi(self):
        # The first disk sits at angle 0, so its arc holds 0 = 2*pi at
        # every radius: no gap of the probe starts at 0 or ends at 2*pi,
        # and every free piece at the floor lies inside (0, 2*pi).
        probe, add = _PocketQueue.gaps, _PocketQueue.add
        gaps, pieces = [], []

        def probe_spy(queue, rho, r):
            found = probe(queue, rho, r)
            if found[1].size:
                gaps.append((found[0].min(), found[1].max()))
            return found

        def add_spy(queue, *args):
            add(queue, *args)
            if queue._pieces:
                pieces.append((queue._pieces[0].start, queue._pieces[-1].end))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PocketQueue, "gaps", probe_spy)
            patch.setattr(_PocketQueue, "add", add_spy)
            build_surrounded_ball(_PACK_CFG)
            build_surrounded_ball(_SHRINK_CFG)
            build_surrounded_ball(SurroundedBallConfig(eps=10.0**-1.5, delta=0.3, n_max=8000, seed=7))
        assert len(gaps) > 1000 and len(pieces) > 1000
        assert all(0.0 < first and last < TWO_PI for first, last in gaps + pieces)

    def test_secant_bisects_where_the_opening_is_0_on_a_band(self):
        # The opening is exactly 0 on [0.25, 1]: every secant step lands
        # on b, where the clamp moves b down by half the tolerance and the
        # Illinois rule halves fa, until fa is 0.0 too.  The bracket must
        # still close around 0.25.
        def opening(rho, r):
            return 1.0 if r < 0.25 else 0.0

        a, a_rho, b, b_rho = _secant(opening, lambda r: 2.0 * r, 0.0, 0.0, 1.0, 1.0, 2.0, 0.0, 1e-3)
        assert a < 0.25 <= b and b - a <= 1e-3
        assert (a_rho, b_rho) == (2.0 * a, 2.0 * b)

    def test_secant_matches_its_min_max_reference_float_for_float(self):
        # Seeded monotone openings and distance maps, with first steps
        # that land below the lower clamp end, above the upper one and
        # exactly on either, and openings that give nan on a small band
        # of radii: the trials and the returned bracket must be those of
        # the clamp through min and max, bit for bit.
        rng = np.random.default_rng(33)

        def bits(values):
            return [float(v).hex() for v in values]

        def case(opening, alpha, beta, gamma, a, fa, b, fb, tol):
            runs = []
            for secant in (_secant, secant_oracle):
                trials = []

                def distance(r):
                    trials.append(r)
                    return alpha + r * (beta + gamma * r)

                ends = secant(opening, distance, a, distance(a), fa, b, distance(b), fb, tol)
                runs.append((bits(trials), bits(ends)))
            assert runs[0] == runs[1]
            return runs[0]

        def shape(kind, root, scale, weight):
            def opening(rho, r):
                x = root - r
                if kind == 0:
                    f = x
                elif kind == 1:
                    f = x * x * x + 1e-3 * scale * x
                elif kind == 2:
                    f = math.tanh(scale * x)
                elif kind == 3:
                    f = 1.0 if x > 0.0 else 0.0
                else:
                    f = math.nan if abs(x - 0.05) < 0.02 else math.tanh(scale * x)
                return f * (1.0 + weight * rho)

            return opening

        landed, nans = {"below": 0, "above": 0, "on": 0}, 0
        for k in range(400):
            kind = k % 5
            a = float(rng.uniform(0.0, 0.5))
            b = a + float(rng.uniform(0.1, 1.0))
            root = float(rng.uniform(a, b))
            fa = float(10.0 ** rng.uniform(-4, 4))
            fb = 0.0 if k % 7 == 0 else -float(10.0 ** rng.uniform(-4, 4))
            tol = (b - a) * float(10.0 ** rng.uniform(-13, -1))
            opening = shape(kind, root, float(10.0 ** rng.uniform(0, 3)), float(rng.uniform(0, 2)))
            alpha, beta, gamma = (float(v) for v in rng.uniform(0.0, 2.0, 3))
            trials, ends = case(opening, alpha, beta, gamma, a, fa, b, fb, tol)
            nans += "nan" in trials + ends
            step = b - fb * (b - a) / (fb - fa)
            landed["below"] += step < a + 0.5 * tol
            landed["above"] += step > b - 0.5 * tol
        # first steps exactly on the ends: 1 - 3 / 4 = 0.25 = 0 + 0.5 * 0.5
        # and 1 - 1 / 4 = 0.75 = 1 - 0.5 * 0.5, both exact in floats
        for fa, fb in ((1.0, -3.0), (3.0, -1.0)):
            assert 1.0 - fb / (fb - fa) in (0.25, 0.75)
            case(shape(2, 0.4, 10.0, 0.5), 0.5, 1.0, 0.0, 0.0, fa, 1.0, fb, 0.5)
            landed["on"] += 1
        assert landed["below"] >= 10 and landed["above"] >= 10 and landed["on"] == 2
        assert nans > 10

    def test_a_pocket_open_by_exactly_0_on_a_band_is_solved(self):
        # In this build a pocket's opening is exactly 0 on a band of
        # radii far wider than the bracket tolerance, so its secant halves
        # fa to 0.0 there, where a secant step would divide by zero.
        balls, stop = build_surrounded_ball_detailed(
            SurroundedBallConfig(eps=10.0**-1.5, delta=0.03, n_max=8000, seed=23)
        )
        radii = balls.radii[1:]
        assert stop == "radius floor" and np.all(radii[1:] <= radii[:-1])

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.02])
    def test_radii_never_grow_and_each_shrinking_radius_is_the_largest(self, eps):
        # Pockets keep their keys across placements, and a key solved
        # at an earlier radius must not come back above the last one.
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
        # The free arcs of the 64 ring disks are their inner arcs, the
        # petal curve around the origin, whose length approaches
        # 2*pi*eps as the ring gets dense; 64 petals put it within one
        # percent.
        for eps in (0.02, 0.05, 0.1):
            balls = build_reverse_example(eps)
            inner = sum(free_arc_lengths_2d(balls)[:64])
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
