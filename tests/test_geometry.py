"""Geometry primitives against independent oracles and exact identities."""

import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcover import geometry
from ballcover.counterexample import _arc, _Distances
from ballcover.geometry import (
    ARC_TOL,
    COINCIDENCE_TOL,
    DISJOINT_TOL,
    TWO_PI,
    Ball,
    BallCollection,
    Interval,
    PerimeterEstimate,
    center_distance_for_overlap,
    free_arc_length_halfplane,
    free_arc_lengths_2d,
    free_arcs_2d,
    lens_volume,
    union_perimeter,
    union_perimeter_2d,
    union_perimeter_mc,
    union_volume_mc,
    unit_ball_volume,
)

from ballcover.harness import check_thm12, check_thm13, random_collection
from ballcover.selection import (
    besicovitch_select,
    interval_select_1d,
    overlap_eps_max,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
)

import oracles


# --------------------------------------------------------------------------
# Volumes and caps


def test_unit_ball_volume_frozen_values():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_unit_ball_volume_gamma_formula(dim):
    assert unit_ball_volume(dim) == pytest.approx(
        oracles.unit_ball_volume_gamma(dim), rel=1e-14
    )


@pytest.mark.parametrize("r", [0.1, 0.3, 1.0, 7.0])
def test_full_interval_cap_is_the_whole_ball(r):
    full = geometry._cap_volumes(np.array([r]), np.array([-r]), 1)
    assert full[0] / (unit_ball_volume(1) * r) == 1.0


def test_unit_ball_volume_zero_dim_is_one():
    assert unit_ball_volume(0) == 1.0
    with pytest.raises(ValueError):
        unit_ball_volume(-1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_surface_is_volume_derivative(dim):
    r = 1.7
    assert geometry._surface(r, dim) == pytest.approx(
        dim * unit_ball_volume(dim) * r**dim / r, rel=1e-13
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_cap_volume_against_quadrature(dim):
    r = 1.3
    offsets = r * np.array([-0.95, -0.4, 0.0, 0.3, 0.999999, 0.999999999999])
    caps = geometry._cap_volumes(r, offsets, dim)
    for a, cap in zip(offsets, caps):
        want = oracles.cap_volume_quadrature(r, a, dim)
        assert cap == pytest.approx(want, rel=1e-10, abs=1e-300)
    # the caps on both sides of a cut fill the ball
    assert caps + geometry._cap_volumes(r, -offsets, dim) == pytest.approx(
        unit_ball_volume(dim) * r**dim, rel=1e-13
    )


def test_cap_volumes_central_cut_is_half():
    for dim in (1, 2, 3, 4):
        cap = geometry._cap_volumes(2.0, np.zeros(1), dim)[0]
        assert cap == pytest.approx(0.5 * unit_ball_volume(dim) * 2.0**dim, rel=1e-12)


def test_cap_volumes_clamp_offsets_outside_the_ball():
    # Past the radius the cap is the whole ball or nothing.
    for dim in (1, 2, 3, 4):
        caps = geometry._cap_volumes(1.0, np.array([-3.0, -1.0, 1.0, 3.0]), dim)
        full = unit_ball_volume(dim)
        assert caps.tolist() == pytest.approx([full, full, 0.0, 0.0], rel=1e-15, abs=0.0)


# --------------------------------------------------------------------------
# Lens volumes


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lens_volume_limit_cases(dim):
    b1 = Ball((0.0,) * dim, 1.0)
    far = Ball((2.5,) + (0.0,) * (dim - 1), 1.0)
    assert lens_volume(b1, far) == 0.0
    inner = Ball((0.1,) + (0.0,) * (dim - 1), 0.2)
    assert lens_volume(b1, inner) == pytest.approx(
        unit_ball_volume(dim) * inner.radius**dim, rel=1e-13
    )


def test_lens_volume_random_pairs_against_quadrature():
    rng = np.random.default_rng(2024)
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            r1 = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            r2 = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            rho = float(rng.uniform(abs(r1 - r2) * 0.2, (r1 + r2) * 1.1))
            b1 = Ball((0.0,) * dim, r1)
            b2 = Ball((rho,) + (0.0,) * (dim - 1), r2)
            got = lens_volume(b1, b2)
            want = oracles.lens_volume_quadrature(r1, r2, rho, dim)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_lens_volume_symmetric_and_tiny_overlap_stable():
    # Near-tangent configurations: the stable segment formula must not
    # produce negative or wildly inaccurate areas.
    r1, r2 = 1.0, 1e-4
    for gap in (1e-6, 1e-9, 1e-12):
        rho = r1 + r2 - gap
        b1 = Ball((0.0, 0.0), r1)
        b2 = Ball((rho, 0.0), r2)
        got = lens_volume(b1, b2)
        want = oracles.lens_volume_quadrature(r1, r2, rho, 2)
        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-6, abs=1e-18)
        # The swapped orientation rounds the radical offset differently;
        # the gap width itself is only defined to one ulp of the center
        # distance, so symmetry holds to gap-relative accuracy only.
        sym_tol = max(1e-9, 2.0 * np.finfo(float).eps / gap)
        assert lens_volume(b2, b1) == pytest.approx(got, rel=sym_tol)


@given(
    r_small=st.floats(0.05, 1.0),
    ratio=st.floats(1.0, 5.0),
    eps=st.floats(0.001, 0.45),
    dim=st.integers(1, 3),
)
def test_center_distance_for_overlap_roundtrip(r_small, ratio, eps, dim):
    r_big = r_small * ratio
    rho = center_distance_for_overlap(r_small, r_big, eps, dim)
    assert r_big - r_small < rho < r_big + r_small
    b_small = Ball((rho,) + (0.0,) * (dim - 1), r_small)
    b_big = Ball((0.0,) * dim, r_big)
    target = eps * unit_ball_volume(dim) * r_small**dim
    assert lens_volume(b_small, b_big) == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("eps", [1e-6, 0.01, 0.45])
def test_center_distance_for_overlap_high_dimensions(dim, eps):
    rho = center_distance_for_overlap(0.3, 1.0, eps, dim)
    assert isinstance(rho, float)
    lens = lens_volume(Ball((0.0,) * dim, 1.0), Ball((rho,) + (0.0,) * (dim - 1), 0.3))
    assert lens == pytest.approx(eps * unit_ball_volume(dim) * 0.3**dim, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_array_lens_kernel_matches_scalar(dim):
    # The array lens against two caps of the scalar cap kernel, cut at
    # the radical hyperplane; nested and disjoint pairs included.
    rng = np.random.default_rng(dim)
    r1 = rng.uniform(0.05, 1.0, 400)
    r2 = rng.uniform(0.05, 1.0, 400)
    rho = rng.uniform(0.0, 2.0, 400)
    got = geometry._lens_volumes(r1, r2, rho, dim)
    want = []
    for a, b, c in zip(r1, r2, rho):
        if c <= abs(a - b):
            want.append(unit_ball_volume(dim) * min(a, b) ** dim)
        else:
            a1 = ((c - b) * (c + b) + a * a) / (2.0 * c)
            want.append(
                geometry._cap_volume(a, a1, dim) + geometry._cap_volume(b, c - a1, dim)
            )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


_SOLVE_EPS = [1e-3, 1e-2, 10.0**-1.5, 0.2, 0.45]


@pytest.mark.parametrize("eps", _SOLVE_EPS)
def test_warm_overlap_solve_matches_the_midpoint_start(eps):
    # The packing search starts the solve at a trial radius between two
    # radii it has solved, a wide bracket first and one near 1e-14 wide
    # at the end; only the start moves, so the root may differ from the
    # cold one in its last bits only.
    worst = 0.0
    for r in np.geomspace(3e-4, 1.0, 40).tolist():
        cold = center_distance_for_overlap(r, 1.0, eps, 2)
        for h in (0.5, 1e-3, 1e-8, 1e-14):
            a, b = r * (1.0 - h), min(r * (1.0 + h), 1.0)
            start = _Distances(eps, a, b).estimate(r)
            warm = geometry._overlap_distance(r, 1.0, eps, 2, start)
            assert abs(warm - cold) <= 4.0 * np.spacing(cold), (r, h)
            lens = geometry._lens_volumes(r, 1.0, warm, 2)
            worst = max(worst, abs(lens / (eps * math.pi * r * r) - 1.0))
    assert worst <= 1e-9


@pytest.mark.parametrize("eps", _SOLVE_EPS)
def test_overlap_solve_without_a_usable_start_starts_at_the_midpoint(eps):
    for r in (3e-4, 0.02, 0.3, 1.0):
        cold = center_distance_for_overlap(r, 1.0, eps, 2)
        for start in (math.nan, 1.0 - r, 1.0 + r, 1.0 + 2.0 * r, -1.0, math.inf):
            assert geometry._overlap_distance(r, 1.0, eps, 2, start) == cold, start


def test_center_distance_for_overlap_validation():
    with pytest.raises(ValueError):
        center_distance_for_overlap(1.0, 2.0, 0.5, 2)
    with pytest.raises(ValueError):
        center_distance_for_overlap(2.0, 1.0, 0.1, 2)


# --------------------------------------------------------------------------
# 1D unions


_intervals = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(0.01, 5.0)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    min_size=0,
    max_size=30,
)


def _closures(balls: BallCollection) -> list[tuple[float, float]]:
    x, r = balls.centers[:, 0], balls.radii
    return list(zip((x - r).tolist(), (x + r).tolist()))


@given(_intervals)
def test_union_volume_1d_matches_oracle(ivals):
    balls = oracles.interval_balls(ivals)
    if not ivals:
        with pytest.raises(ValueError, match="nonempty"):
            union_volume_mc(balls, samples=1000, seed=0)
        return
    est = union_volume_mc(balls, samples=1000, seed=0)
    assert est.method == "exact1d"
    assert est.value == pytest.approx(
        oracles.union_length_oracle(_closures(balls)), rel=1e-12, abs=1e-12
    )


@given(_intervals)
def test_union_perimeter_1d_matches_oracle(ivals):
    balls = oracles.interval_balls(ivals)
    if not ivals:
        with pytest.raises(ValueError, match="nonempty"):
            union_perimeter(balls)
        return
    est = union_perimeter(balls)
    assert est.method == "exact1d"
    assert est.value == 2 * oracles.union_component_count_oracle(
        _closures(balls), closure=True
    )


def test_union_1d_touching_closures_join():
    balls = oracles.interval_balls([(0, 1), (1, 2), (3, 4)])
    lo, hi = geometry.union_components(*zip(*_closures(balls)))
    assert list(zip(lo.tolist(), hi.tolist())) == [(0.0, 2.0), (3.0, 4.0)]
    assert union_volume_mc(balls, samples=1000, seed=0).value == 3.0
    assert union_perimeter(balls).value == 4.0
    assert union_perimeter(balls.subset([0, 1])).value == 2.0


# --------------------------------------------------------------------------
# Which balls meet


def _pair_layer_input(n, dim, seed):
    """Centers and radii over six decades, with exact duplicates and pairs
    placed at tangency and one ulp either side of it."""
    rng = np.random.default_rng([seed, n, dim])
    radii = 10.0 ** rng.uniform(-6.0, 0.0, n)
    centers = rng.uniform(0.0, 0.6 * max(n, 1) ** (1.0 / dim), (n, dim))
    for k in range(0, n - 1, 9):
        # ball k + 1 becomes an exact copy of ball k
        centers[k + 1], radii[k + 1] = centers[k], radii[k]
    for k in range(2, n - 1, 7):
        if k % 2:
            radii[k + 1] = radii[k]
        reach = radii[k] + radii[k + 1]
        # one ulp inside, exactly at, or one ulp beyond tangency
        reach = (math.nextafter(reach, 0.0), reach, math.nextafter(reach, math.inf))[k % 3]
        direction = rng.normal(size=dim)
        centers[k + 1] = centers[k] + reach * direction / np.linalg.norm(direction)
    return centers, radii


def _brute_dists(centers):
    diff = centers[:, None, :] - centers[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _pairs(centers, radii):
    return BallCollection.from_arrays(centers, radii).pairs


def _assert_pairs_exact(centers, radii):
    """The pair layer equals the enumeration of every pair by
    ``_brute_dists``, whose row sums add the coordinates in the order the
    pair layer does."""
    n = len(radii)
    dists = _brute_dists(centers)
    reach = radii[:, None] + radii[None, :]
    owner, partner = np.nonzero((dists < reach) & ~np.eye(n, dtype=bool))
    start, *entries = _pairs(centers, radii)
    assert [a.dtype for a in [start, *entries]] == [np.intp, np.intp, np.intp, np.float64]
    assert np.array_equal(start, np.searchsorted(owner, np.arange(n + 1)))
    assert np.array_equal(entries[0], owner) and np.array_equal(entries[1], partner)
    assert np.array_equal(entries[2], dists[owner, partner])


@pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 1000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_meeting_pairs_against_brute_force(n, dim):
    _assert_pairs_exact(*_pair_layer_input(n, dim, 1))


@pytest.mark.parametrize("dim", [2, 3])
def test_meeting_pairs_keep_equal_balls_at_tangency(dim):
    # The kd-tree rounds its own squared distances: unpadded queries of
    # radius 2 r miss about one such pair in a thousand.
    rng = np.random.default_rng(dim)
    count = 5000
    radii = np.repeat(10.0 ** rng.uniform(-6.0, 0.0, count), 2)
    centers = np.repeat(rng.uniform(-100.0, 100.0, (count, dim)), 2, axis=0)
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    centers[1::2] += 2.0 * radii[1::2, None] * direction
    _, owner, partner, _ = _pairs(centers, radii)
    found = set(zip(owner.tolist(), partner.tolist()))
    diff = centers[0::2] - centers[1::2]
    meets = np.sqrt((diff * diff).sum(axis=1)) < 2.0 * radii[0::2]
    assert 0 < meets.sum() < count
    assert [(2 * k, 2 * k + 1) in found for k in range(count)] == meets.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_layer_at_radius_class_edges(dim):
    # radii at exact powers of two of the largest and one ulp either
    # side, where the binary exponent that names a class steps
    rng = np.random.default_rng([dim, 11])
    edges = 2.0 ** -np.arange(12.0)
    radii = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    radii = np.tile(radii, 8)[rng.permutation(8 * radii.size)]
    centers = rng.uniform(0.0, 4.0, (radii.size, dim))
    _assert_pairs_exact(centers, radii)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_layer_keeps_tangent_pairs_across_classes(dim):
    # pairs of radii drawn over twelve decades, placed one ulp inside,
    # exactly at or one ulp beyond tangency
    rng = np.random.default_rng([dim, 12])
    count = 300
    radii = 10.0 ** rng.uniform(-12.0, 0.0, 2 * count)
    centers = np.repeat(rng.uniform(-50.0, 50.0, (count, dim)), 2, axis=0)
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    for k in range(count):
        reach = radii[2 * k] + radii[2 * k + 1]
        reach = (math.nextafter(reach, 0.0), reach, math.nextafter(reach, math.inf))[k % 3]
        centers[2 * k + 1] += reach * direction[k]
    _assert_pairs_exact(centers, radii)
    # the rounding of the centres outweighs the ulp they were placed
    # at, so about half the pairs meet whatever the side of tangency
    assert count // 3 < _pairs(centers, radii)[1].size // 2 < 2 * count // 3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_layer_keeps_pairs_within_the_pad(dim):
    # pairs at the largest radius of their class, and so at the edge of
    # their tree's query: 1e-9 and 2e-10 inside tangency, one ulp of the
    # centre inside, exactly tangent and one ulp beyond; equal radii and
    # radii of classes far apart.  Along one axis every distance is exact.
    sizes = [(1.0, 1.0), (0.75, 0.75), (1.0, 2.0**-20), (2.0**-20, 1.0), (0.5, 0.25)]
    centers, radii, inside = [], [], []
    axis = np.eye(dim)[0]
    for k, (r1, r2) in enumerate(sizes * 5):
        x, reach = 10.0 * k, r1 + r2
        end = [
            x + reach * (1.0 - 1e-9),
            x + reach * (1.0 - 2e-10),
            math.nextafter(x + reach, 0.0),
            x + reach,
            math.nextafter(x + reach, math.inf),
        ][k // len(sizes)]
        centers += [x * axis, end * axis]
        radii += [r1, r2]
        inside.append(end - x < reach)
    centers, radii = np.array(centers), np.array(radii)
    _assert_pairs_exact(centers, radii)
    _, owner, partner, _ = _pairs(centers, radii)
    assert inside == [True] * 15 + [False] * 10
    assert (owner[owner < partner] // 2).tolist() == list(range(15))


def test_pair_layer_keeps_pairs_the_tree_sums_apart():
    # In eight dimensions the kd-tree adds the squares of a distance in
    # another order than the pair layer.  For this offset of 2^-40 steps
    # (so every centre below is exact) the tree's sum exceeds 4 while the
    # layer's distance stays below 2: only the query pad _TREE_SLACK
    # keeps such pairs of unit balls.
    offset = np.array(
        [-1437387511177, -277089772782, 1148185278647, -1004115272044,
         -482920613833, 44220758721, -209408353408, 295372835740]
    ) / 2.0**40
    centers = np.zeros((8, 8))
    centers[0::2, 0] = 16.0 * np.arange(4)
    centers[1::2] = centers[0::2] + offset
    squares = sum((centers[1::2, k] - centers[0::2, k]) ** 2 for k in range(8))
    assert np.all(np.sqrt(squares) < 2.0)
    _, owner, partner, _ = _pairs(centers, np.ones(8))
    assert owner.tolist() == list(range(8)) and partner.tolist() == [1, 0, 3, 2, 5, 4, 7, 6]


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_layer_of_one_large_ball_among_tiny_ones(dim):
    # the packing's shape: a unit ball ringed by small balls near its
    # sphere, radii over three decades
    rng = np.random.default_rng([dim, 13])
    count = 1500
    small = 10.0 ** rng.uniform(-4.0, -1.0, count)
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    shell = 1.0 + small * rng.uniform(-1.5, 1.5, count)
    centers = np.vstack([np.zeros((1, dim)), shell[:, None] * direction])
    _assert_pairs_exact(centers, np.append(1.0, small))


def _spy_trees(monkeypatch):
    """Ball counts of the kd-trees the pair layer builds, and its number
    of queries across trees, from a counting subclass of ``cKDTree``."""
    import scipy.spatial

    built, across = [], []

    class Spy(scipy.spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            super().__init__(data, *args, **kwargs)

        def sparse_distance_matrix(self, *args, **kwargs):
            across.append(1)
            return super().sparse_distance_matrix(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Spy)
    return built, across


@pytest.mark.parametrize("classes", [geometry._GROUP_CLASSES, geometry._GROUP_CLASSES + 1])
def test_pair_layer_around_the_group_size(monkeypatch, classes):
    # 300 balls, past the one-tree size and under the ball cap, spread
    # evenly over 4 or 5 binary classes: 4 classes share one tree, and a
    # fifth starts a second group, queried once against the first
    size = 300
    rng = np.random.default_rng([classes, 14])
    exponent = np.arange(size) % classes
    radii = np.ldexp(rng.uniform(0.5, 1.0, size), -exponent)
    assert np.ptp(np.frexp(radii)[1]) == classes - 1
    centers = rng.uniform(0.0, 12.0, (size, 2))
    built, across = _spy_trees(monkeypatch)
    _assert_pairs_exact(centers, radii)
    if classes > geometry._GROUP_CLASSES:
        assert built == [size - size // classes, size // classes] and len(across) == 1
    else:
        assert built == [size] and not across


@pytest.mark.parametrize("extra", [0, 1])
def test_pair_layer_at_the_one_group_size(monkeypatch, extra):
    # radii over seven binary classes: up to _GROUP_BALLS balls they share
    # one tree, one ball more splits them by the class cap
    size = geometry._GROUP_BALLS + extra
    rng = np.random.default_rng([size, 18])
    radii = 2.0 ** rng.uniform(-7.0, 0.0, size)
    assert np.ptp(np.frexp(radii)[1]) >= 6
    centers = rng.uniform(0.0, 6.0, (size, 2))
    built, across = _spy_trees(monkeypatch)
    _assert_pairs_exact(centers, radii)
    if extra:
        assert len(built) > 1 and across
    else:
        assert built == [size] and not across


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_pair_layer_around_the_group_cap(monkeypatch, offset):
    # one class of _GROUP_CAP - 1 to _GROUP_CAP + 1 balls between a
    # smaller and a larger class: the middle class shares the smaller
    # one's tree only while the two hold at most _GROUP_CAP balls
    size = geometry._GROUP_CAP + offset
    rng = np.random.default_rng([size, 19])
    radii = np.concatenate([[0.3], rng.uniform(0.5, 1.0, size), [1.2, 1.5]])
    centers = rng.uniform(0.0, 20.0, (radii.size, 2))
    built, across = _spy_trees(monkeypatch)
    _assert_pairs_exact(centers, radii)
    assert built == ([size + 1, 2] if offset < 0 else [1, size, 2])
    assert len(across) == len(built) * (len(built) - 1) // 2


def test_select_law_builds_four_trees(monkeypatch):
    # the eight binary classes of 3000 disks of the select law hold 236
    # to 418 disks each; merged up to _GROUP_CAP balls, they make four
    # trees, each queried once against each smaller one
    centers, radii = oracles.select_law(3000, 7)
    built, across = _spy_trees(monkeypatch)
    assert BallCollection.from_arrays(centers, radii).pairs[1].size > 0
    assert built == [991, 828, 767, 414] and len(across) == 6


def test_small_corpus_collection_builds_one_tree(monkeypatch):
    # 40 balls of the corpus law over five binary classes, more than the
    # class cap of a larger collection's group
    balls = random_collection(3, [40, 18], count=40)
    assert np.ptp(np.frexp(balls.radii)[1]) >= geometry._GROUP_CLASSES
    built, across = _spy_trees(monkeypatch)
    assert balls.pairs[1].size > 0
    assert built == [40] and not across


def test_pair_layer_over_six_hundred_decades():
    # radii 1e300 and 1e-300 in one collection: the huge balls all meet
    # and contain the tiny ones, which meet only their exact copies;
    # every distance and square stays a normal float
    rng = np.random.default_rng(15)
    huge = rng.uniform(-1e150, 1e150, (6, 2))
    tiny = np.repeat(rng.uniform(-1e100, 1e100, (10, 2)), 2, axis=0)
    centers = np.vstack([huge, tiny])
    radii = np.concatenate([np.full(6, 1e300), np.full(20, 1e-300)])
    _assert_pairs_exact(centers, radii)
    assert _pairs(centers, radii)[1].size == 2 * (6 * 5 // 2 + 6 * 20 + 10)


@pytest.mark.parametrize(
    "centers, radii",
    [
        ([[0.0, 0.0], [1.0, 0.0]], [1e308, 1e308]),
        ([[-1e154, 0.0], [1e154, 0.0]], [1.0, 1.0]),
        ([[0.0, -1e154, 0.0], [0.0, 1e154, 1e154]], [1.0, 1.0]),
    ],
)
def test_pair_layer_rejects_sums_and_extents_past_the_float_range(centers, radii):
    # a radius sum or a squared center distance would overflow: one
    # OverflowError, before any arithmetic warns (warnings are errors)
    balls = BallCollection.from_arrays(centers, radii)
    with pytest.raises(OverflowError, match="exceed the float range"):
        balls.pairs


@pytest.mark.parametrize(
    "measure, centers, radii",
    [
        # the 1D ends and lengths, and the 3D box's volume, overflow
        (lambda b: union_volume_mc(b, 1000, 0), [[0.0], [1.0]], [1e308, 1e308]),
        (union_perimeter, [[0.0], [1.0]], [1e308, 1e308]),
        (interval_select_1d, [[0.0], [1.0]], [1e308, 1e308]),
        (lambda b: union_volume_mc(b, 1000, 0), [[0.0, 0, 0], [1.0, 0, 0]], [1e120, 1e120]),
        # the variance of the sphere sampling squares each surface, and
        # the law of cosines of the free arcs squares radius sums
        (lambda b: union_perimeter_mc(b, 100, 0), [[0.0, 0, 0], [1.0, 0, 0]], [1e80, 1e80]),
        (union_perimeter, [[0.0, 0.0], [1.0, 0.0]], [1e160, 1e160]),
        (perimeter_besicovitch_select, [[0.0, 0, 0], [1.0, 0, 0]], [1e200, 1e200]),
        (lambda b: perimeter_vitali_select(b, 0.01), [[0.0, 0.0], [1.0, 0.0]], [1e160, 1e160]),
    ],
    ids=[
        "volume-1d",
        "perimeter-1d",
        "interval-select",
        "volume-3d",
        "perimeter-mc-3d",
        "perimeter-2d",
        "perimeter-besicovitch-3d",
        "perimeter-vitali-2d",
    ],
)
def test_measures_reject_powers_past_the_float_range(measure, centers, radii):
    # each input passes the pair layer's check, but a measure of it
    # would overflow (or, in Python floats, give inf silently): the one
    # range check rejects it first, at the measure's degree
    balls = BallCollection.from_arrays(centers, radii)
    with pytest.raises(OverflowError, match="exceed the float range"):
        measure(balls)


def _corpus_3d(n, seed):
    balls = random_collection(3, seed, count=n)
    return balls.centers, balls.radii


_ORACLE_INPUTS = {
    "select-3000": lambda: oracles.select_law(3000, 7),
    "select-100000": lambda: oracles.select_law(100_000, 8),
    "corpus-3d-1000": lambda: _corpus_3d(1000, [16, 3]),
}


@pytest.mark.parametrize("name", _ORACLE_INPUTS)
def test_pair_layer_matches_one_query_per_ball(name):
    centers, radii = _ORACLE_INPUTS[name]()
    got = _pairs(centers, radii)
    want = oracles.neighbor_lists_oracle(centers, radii)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coincidence_groups_keep_lowest_index(dim):
    centers, radii = _pair_layer_input(200, dim, 2)
    # a triple of copies and a near copy of the copy only
    centers[50:53], radii[50:53] = centers[40], radii[40]
    centers[53] = centers[52] + 0.8 * COINCIDENCE_TOL * radii[52]
    radii[53] = radii[52]
    dists = _brute_dists(centers)
    want = np.arange(len(radii))
    for a in range(len(radii)):
        if want[a] != a:
            continue
        tol = COINCIDENCE_TOL * np.maximum(radii[a + 1 :], radii[a])
        same = (dists[a, a + 1 :] <= tol) & (np.abs(radii[a + 1 :] - radii[a]) <= tol)
        idx = np.nonzero(same)[0] + a + 1
        want[idx[want[idx] == idx]] = a
    got = geometry._coincidence_groups(radii, *_pairs(centers, radii)[1:])
    assert np.array_equal(got, want)
    assert got[50] == got[51] == got[52] == 40


def test_pair_layer_is_built_on_first_use():
    centers, radii = _pair_layer_input(50, 2, 4)
    balls = BallCollection.from_arrays(centers, radii)
    copy = BallCollection(2, [Ball(tuple(c), r) for c, r in zip(centers.tolist(), radii.tolist())])
    assert "pairs" not in vars(balls) and "pairs" not in vars(copy)
    assert "pairs" not in vars(balls.subset([3, 1]))
    layer = balls.pairs
    assert "pairs" in vars(balls) and balls.pairs is layer
    assert "pairs" not in vars(balls.subset([3, 1])) and "pairs" not in vars(copy)


def test_pair_layer_is_read_only():
    balls = BallCollection.from_arrays(*_pair_layer_input(50, 2, 4))
    assert balls.pairs[1].size > 0
    for array in balls.pairs:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subset_pair_layer_equals_a_fresh_build(dim):
    # the parent's layer is built first; the subsets, in selection order
    # and at random, build their own from their own rows
    centers, radii = _pair_layer_input(400, dim, 3)
    balls = BallCollection.from_arrays(centers, radii)
    balls.pairs
    order = besicovitch_select(balls).selected
    drawn = np.random.default_rng([dim, 17]).choice(len(radii), 150, replace=False)
    for idx in (order, drawn):
        fresh = BallCollection.from_arrays(centers[idx], radii[idx]).pairs
        for a, b in zip(balls.subset(idx).pairs, fresh, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        _assert_pairs_exact(centers[idx], radii[idx])


@pytest.mark.parametrize("dim", [2, 3])
def test_checks_build_one_pair_layer_per_collection(monkeypatch, dim):
    built = []
    search = geometry._candidate_pairs

    def counted(centers, radii):
        built.append(len(radii))
        return search(centers, radii)

    monkeypatch.setattr(geometry, "_candidate_pairs", counted)
    eps = 0.5 * overlap_eps_max(dim)
    checks = [
        lambda b: check_thm12(b, samples_per_ball=200),
        lambda b: check_thm13(b, eps, volume_samples=1000),
    ]
    for check in checks:
        built.clear()
        report = check(random_collection(dim, [3, dim], count=300))
        assert built == [300, report.params["selected"]]


# --------------------------------------------------------------------------
# Arcs of the circle


def _split_arcs_modulo(centers, halfwidths):
    """``geometry._split_arcs`` with its wrap written as ``% TWO_PI``."""
    lo = (centers - halfwidths) % TWO_PI
    hi = lo + 2.0 * halfwidths
    over = hi > TWO_PI
    starts = np.concatenate([lo, np.zeros(int(over.sum()))])
    ends = np.concatenate([np.minimum(hi, TWO_PI), hi[over] - TWO_PI])
    return starts, ends


def _bits(values) -> list[int]:
    """The bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# tiny negatives whose sum with 2*pi rounds to 2*pi, the signed zeros and
# the ends of (-2*pi, 2*pi)
_WRAP_EDGES = [
    -0.0,
    0.0,
    -5e-324,
    -1e-300,
    -1e-17,
    -4e-16,
    math.nextafter(-TWO_PI, 0.0),
    math.nextafter(TWO_PI, 0.0),
]


@given(
    st.lists(
        st.floats(-TWO_PI, TWO_PI, exclude_min=True, exclude_max=True)
        | st.sampled_from(_WRAP_EDGES),
        max_size=20,
    )
)
def test_split_arcs_wrap_is_modulo_bit_for_bit(xs):
    x = np.array(xs + _WRAP_EDGES)
    starts, _ = geometry._split_arcs(*geometry._arc_ends(x, np.zeros_like(x)))
    assert _bits(starts) == _bits(x % TWO_PI)


@given(
    st.lists(
        st.tuples(
            st.floats(-math.pi, TWO_PI, exclude_max=True)
            | st.sampled_from([0.0, -0.0]),
            st.floats(0.0, 3.0) | st.just(0.0),
        ),
        max_size=20,
    )
)
def test_split_arcs_matches_modulo_form(arcs):
    centers = np.array([c for c, _ in arcs], dtype=float)
    halfwidths = np.array([h for _, h in arcs], dtype=float)
    got = geometry._split_arcs(*geometry._arc_ends(centers, halfwidths))
    want = _split_arcs_modulo(centers, halfwidths)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


def _leaves_gap(starts, ends) -> bool:
    """The verdict of the packing probe's oracle: ``uncovered_arcs``
    finds a gap."""
    return oracles.uncovered_arcs(starts, ends)[0].size > 0


def _gap_total_rule(starts, ends) -> bool:
    """Whether segments of [0, 2*pi] leave part of it uncovered, by a
    sorted walk that tracks how far the union reaches from 0; segments
    whose closures touch leave no gap."""
    reach = 0.0
    for lo, hi in sorted(zip(starts.tolist(), ends.tolist())):
        if lo > reach:
            return True
        reach = max(reach, hi)
    return reach < TWO_PI


# a few shared ends make segments touch and nest
_ARC_ENDS = st.sampled_from([0.0, 1.0, math.pi, 4.0, TWO_PI]) | st.floats(0.0, TWO_PI)


@given(
    st.lists(st.tuples(_ARC_ENDS, _ARC_ENDS), max_size=8),
    st.lists(
        st.tuples(st.floats(0.0, TWO_PI, exclude_max=True), st.floats(0.0, 3.2)),
        max_size=6,
    ),
)
def test_leaves_gap_matches_gap_total_rule(segments, arcs):
    # the arcs go through _split_arcs, so those past 2*pi wrap to 0
    wrap_starts, wrap_ends = geometry._split_arcs(*geometry._arc_ends(
        np.array([c for c, _ in arcs], dtype=float),
        np.array([h for _, h in arcs], dtype=float),
    ))
    starts = np.concatenate([[min(a, b) for a, b in segments], wrap_starts])
    ends = np.concatenate([[max(a, b) for a, b in segments], wrap_ends])
    assert _leaves_gap(starts, ends) == _gap_total_rule(starts, ends)


@pytest.mark.parametrize(
    "segments, gap",
    [
        ([], True),
        ([(0.0, TWO_PI)], False),
        ([(0.0, math.pi), (math.pi, TWO_PI)], False),
        ([(0.0, TWO_PI), (1.0, 2.0)], False),
        ([(0.0, 3.0), (3.5, TWO_PI)], True),
        ([(0.0, 1.0), (0.5, 2.0), (2.0, TWO_PI)], False),
        ([(1e-300, TWO_PI)], True),
        ([(0.0, math.nextafter(TWO_PI, 0.0))], True),
        ([(TWO_PI, TWO_PI), (0.0, 6.0)], True),
    ],
)
def test_leaves_gap_cases(segments, gap):
    starts = np.array([a for a, _ in segments], dtype=float)
    ends = np.array([b for _, b in segments], dtype=float)
    assert _leaves_gap(starts, ends) is gap
    assert _gap_total_rule(starts, ends) == gap


# --------------------------------------------------------------------------
# 2D exact perimeters


def _collection(pairs):
    return BallCollection(2, [Ball((x, y), r) for x, y, r in pairs])


def test_perimeter_single_and_disjoint():
    one = _collection([(0, 0, 1.5)])
    assert union_perimeter_2d(one).value == pytest.approx(TWO_PI * 1.5, rel=1e-14)
    two = _collection([(0, 0, 1.0), (5, 0, 2.0)])
    assert union_perimeter_2d(two).value == pytest.approx(
        TWO_PI * 3.0, rel=1e-14
    )


def test_perimeter_two_overlapping_disks_closed_form():
    r1, r2, rho = 1.0, 0.8, 1.2
    balls = _collection([(0, 0, r1), (rho, 0, r2)])
    a1 = ((rho - r2) * (rho + r2) + r1 * r1) / (2 * rho)
    alpha = math.acos(a1 / r1)
    beta = math.acos((rho - a1) / r2)
    want = r1 * (TWO_PI - 2 * alpha) + r2 * (TWO_PI - 2 * beta)
    assert union_perimeter_2d(balls).value == pytest.approx(want, rel=1e-13)


def test_perimeter_contained_ball_contributes_nothing():
    balls = _collection([(0, 0, 2.0), (0.3, 0.1, 0.5)])
    assert union_perimeter_2d(balls).value == pytest.approx(TWO_PI * 2.0, rel=1e-14)


def test_perimeter_coincident_duplicates_count_once():
    balls = _collection([(0, 0, 1.0), (0, 0, 1.0), (0, 0, 1.0)])
    assert union_perimeter_2d(balls).value == pytest.approx(TWO_PI, rel=1e-14)


def test_perimeter_ring_family_closed_form():
    from ballcover.counterexample import build_fig1

    for k, t in ((6, 0.2), (40, 0.05), (160, 0.0125)):
        balls = build_fig1(k, t)
        want = oracles.ring_family_perimeter_oracle(k, t)
        assert union_perimeter_2d(balls).value == pytest.approx(want, rel=1e-12)


def test_free_arcs_cover_angles_exactly():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-1.5, 1.5, size=(12, 2))
    radii = np.exp(rng.uniform(np.log(0.2), np.log(1.0), 12))
    balls = BallCollection(2, [Ball(tuple(c), float(r)) for c, r in zip(centers, radii)])
    circle, lo, hi = free_arcs_2d(balls)
    assert np.array_equal(np.lexsort((lo, circle)), np.arange(circle.size))
    assert np.all(hi - lo > ARC_TOL)
    # Probe the midpoint of each reported free arc: it must lie outside
    # all other open disks; probe the midpoint of each covered arc
    # between them: it must lie inside some other disk.
    probed = {True: 0, False: 0}
    for i in range(len(balls)):
        free = np.column_stack([lo[circle == i], hi[circle == i]])
        covered = np.concatenate([[0.0], free.ravel(), [TWO_PI]]).reshape(-1, 2)
        assert np.all(np.diff(covered.ravel()) >= 0.0)
        for is_free, arcs in ((True, free), (False, covered)):
            for a, b in arcs.tolist():
                if b - a <= ARC_TOL:
                    continue
                mid = 0.5 * (a + b)
                toward = np.array([math.cos(mid), math.sin(mid)])
                pt = balls.centers[i] + balls.radii[i] * toward
                dists = np.linalg.norm(balls.centers - pt, axis=1) - balls.radii
                dists[i] = np.inf
                assert dists.min() > -1e-9 if is_free else dists.min() < 1e-9
                probed[is_free] += 1
    assert probed[True] == circle.size and probed[False] > 0


@pytest.mark.parametrize("scale", [0.3, 3e-2, 3e-3, 3e-4, 3e-5])
def test_half_width_is_within_a_few_ulps_of_50_digits(scale):
    # 2000 near-tangent arcs per scale: a circle of radius r and a disk of
    # radius s at center distance d, with d and r in 1 +- scale/2 and
    # s = |d - r| + U(0.01, 2) * scale, the small angles of the packing.
    # The half-width of free_arcs_2d (the kernel over arrays and numpy's
    # arcsin) and of the packing's _arc (one float and math.asin, here
    # with s split into two exact halves) must be within four units of
    # 2**-52, relative, of the arccos of the law of cosines taken in 50
    # digits from the float inputs.  An arccos of the cosine in floats
    # is off by up to 8e-7 at scale 3e-4.
    rng = np.random.default_rng(41)
    d = 1.0 + scale * rng.uniform(-0.5, 0.5, 2000)
    r = 1.0 + scale * rng.uniform(-0.5, 0.5, 2000)
    s = np.abs(d - r) + scale * rng.uniform(0.01, 2.0, 2000)
    vector = 2.0 * np.arcsin(np.sqrt(geometry._haversine(d, r, s)))
    worst = 0.0
    with mpmath.workdps(50):
        for dk, rk, sk, hk in zip(d.tolist(), r.tolist(), s.tolist(), vector.tolist()):
            D, R, S = mpmath.mpf(dk), mpmath.mpf(rk), mpmath.mpf(sk)
            want = mpmath.acos((D * D + R * R - S * S) / (2 * D * R))
            scalar = _arc((0.0, dk, 0.5 * sk), rk, 0.5 * sk)[0]
            worst = max(worst, float(abs(hk - want) / want), float(abs(scalar - want) / want))
    assert worst <= 4 * 2.0**-52, worst


@pytest.mark.parametrize(
    "d, r, s, x",
    [
        (1.5, 0.5, 1.0, 0.0),  # outer tangency: the disk covers no angle
        (0.25, 0.5, 0.25, 0.0),  # the disk inside the circle, touching it
        (1.5, 0.5, 2.0, 1.0),  # the circle inside the disk, touching it
        (0.25, 0.5, 0.75, 1.0),  # likewise, with the disk's center inside it
    ],
)
def test_half_width_kernel_at_tangency(d, r, s, x):
    # At tangency the kernel is exactly 0 (no angle covered) or 1 (every
    # angle but one), for floats and arrays alike.
    assert geometry._haversine(d, r, s) == x
    assert geometry._haversine(np.array([d]), np.array([r]), np.array([s])).tolist() == [x]


def _lengths_against_oracle(balls, closed_forms=()):
    got = free_arc_lengths_2d(balls)
    want = oracles.free_arc_lengths_oracle(balls)
    assert len(got) == len(want) == len(balls)
    for g, w, r in zip(got, want, balls.radii.tolist()):
        assert abs(g - w) <= 1e-12 * r
    for i, length in closed_forms:
        assert got[i] == pytest.approx(length, rel=1e-14, abs=1e-14)


def test_free_arc_lengths_match_decimal_oracle_on_corpus():
    for i in range(60):
        _lengths_against_oracle(random_collection(2, [209, i]))


def test_packing_perimeter_matches_decimal_oracle():
    from ballcover.counterexample import SurroundedBallConfig, build_surrounded_ball

    cfg = SurroundedBallConfig(eps=0.05, delta=0.3, n_max=150, seed=7)
    packing = build_surrounded_ball(cfg)
    want = math.fsum(oracles.free_arc_lengths_oracle(packing))
    assert union_perimeter_2d(packing).value == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "disks, closed_forms",
    [
        pytest.param(
            [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
            [(0, 0.0)],
            id="covered-together-not-alone",
        ),
        pytest.param(
            [(0, 0, 1), (0.5, 0, 1.5)],
            [(0, 0.0), (1, 3 * math.pi)],
            id="internal-tangency",
        ),
        pytest.param(
            [(0, 0, 1), (2, 0, 1)], [(0, TWO_PI), (1, TWO_PI)], id="external-tangency"
        ),
        pytest.param(
            [(0, 0, 1), (1, 0, 1)],
            [(0, 4 * math.pi / 3), (1, 4 * math.pi / 3)],
            id="covered-arc-wraps",
        ),
        pytest.param(
            [(0, 0, 1), (1, -0.25, 0.75)], [], id="covered-arc-wraps-off-axis"
        ),
        pytest.param(
            [(0, 0, 1), (-1, 0, 1)], [(0, 4 * math.pi / 3)], id="free-arc-wraps"
        ),
        pytest.param(
            [(0, 0, 1), (0, 0, 2), (0, 0, 1), (2.5, 0, 1)],
            [(0, 0.0), (2, 0.0)],
            id="duplicate-beside-larger-coincident",
        ),
        pytest.param(
            [(0, 0, 1), (5, 5, 0.5), (0.5, 0, 1)], [(1, math.pi)], id="no-partner"
        ),
    ],
)
def test_free_arc_lengths_edge_cases(disks, closed_forms):
    _lengths_against_oracle(_collection(disks), closed_forms)


def test_union_perimeter_dispatcher_dimensions():
    b1 = BallCollection(1, [Ball((0.0,), 1.0), Ball((0.5,), 1.0)])
    est1 = union_perimeter(b1)
    assert est1.method == "exact1d"
    assert est1.value == 2.0
    b2 = _collection([(0, 0, 1.0)])
    assert union_perimeter(b2).method == "exact2d"
    b3 = BallCollection(3, [Ball((0.0, 0.0, 0.0), 1.0)])
    est3 = union_perimeter(b3, samples_per_ball=2000, seed=1)
    assert est3.method == "montecarlo"
    assert est3.value == pytest.approx(4 * math.pi, rel=0.05)


# Maps of a planar collection that keep every distance and radius, each
# on the centers and radii with a permutation of the inputs.  They change
# only the order of the sums, so the length moves by rounding alone.
_PERIMETER_ISOMETRIES = {
    "mirror": lambda centers, radii, order: (centers * [-1.0, 1.0], radii),
    "swap": lambda centers, radii, order: (centers[:, ::-1], radii),
    "permutation": lambda centers, radii, order: (centers[order], radii[order]),
}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25)
def test_union_perimeter_2d_scales_exactly_by_4(seed):
    # A factor 4 scales every center, radius and distance exactly and
    # leaves every arc angle as it was, so each arc length is 4 times
    # the old one and so is their sum, bit for bit.
    balls = random_collection(2, [2, seed])
    scaled = BallCollection.from_arrays(4.0 * balls.centers, 4.0 * balls.radii)
    assert union_perimeter_2d(scaled).value == 4.0 * union_perimeter_2d(balls).value


@pytest.mark.parametrize("isometry", sorted(_PERIMETER_ISOMETRIES))
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25)
def test_union_perimeter_2d_is_invariant_under_exact_isometries(isometry, seed):
    # A guard for refactors that needs no oracle; 1e-14 relative leaves
    # room for the summation order over up to 40 circles.
    balls = random_collection(2, [2, seed])
    order = np.random.default_rng(seed).permutation(len(balls))
    centers, radii = _PERIMETER_ISOMETRIES[isometry](balls.centers, balls.radii, order)
    mapped = union_perimeter_2d(BallCollection.from_arrays(centers, radii)).value
    assert mapped == pytest.approx(union_perimeter_2d(balls).value, rel=1e-14, abs=0.0)


# --------------------------------------------------------------------------
# Monte Carlo estimators


def test_union_perimeter_mc_deterministic_and_close():
    balls = _collection([(0, 0, 1.0), (1.2, 0.3, 0.7), (-0.5, 0.8, 0.4)])
    a = union_perimeter_mc(balls, samples_per_ball=40_000, seed=11)
    b = union_perimeter_mc(balls, samples_per_ball=40_000, seed=11)
    assert a == b
    exact = union_perimeter_2d(balls).value
    assert abs(a.value - exact) <= 4.0 * a.std_error


def test_union_volume_mc_two_disk_inclusion_exclusion():
    r1, r2, rho = 1.0, 0.8, 1.2
    b1, b2 = Ball((0.0, 0.0), r1), Ball((rho, 0.0), r2)
    balls = BallCollection(2, [b1, b2])
    exact = math.pi * r1 * r1 + math.pi * r2 * r2 - lens_volume(b1, b2)
    est = union_volume_mc(balls, samples=600_000, seed=3)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_union_volume_mc_1d_exact():
    balls = BallCollection(1, [Ball((0.0,), 1.0), Ball((1.5,), 1.0)])
    est = union_volume_mc(balls, samples=1000, seed=0)
    assert est.method == "exact1d"
    assert est.value == pytest.approx(3.5, abs=1e-14)


@pytest.mark.parametrize(
    "dim, balls",
    [
        pytest.param(
            2,
            # nested concentric, internally and externally tangent,
            # overlapping, a coincident pair and an isolated disk
            [(0, 0, 1.0), (0, 0, 0.5), (0.5, 0, 0.5), (1.5, 0, 0.5),
             (1.2, 0.3, 0.7), (1.2, 0.3, 0.7), (-0.5, 0.8, 0.4), (5, 5, 0.3)],
            id="2d-degenerate",
        ),
        pytest.param(
            3,
            [(0, 0, 0, 1.0), (0, 0, 0, 0.4), (0, 0.6, 0, 0.4), (0, 0, 1.3, 0.3),
             (0.9, 0.2, -0.1, 0.6), (0.9, 0.2, -0.1, 0.6), (-0.7, -0.5, 0.3, 0.5)],
            id="3d-degenerate",
        ),
        pytest.param(2, 11, id="2d-corpus"),
        pytest.param(3, 12, id="3d-corpus"),
        pytest.param(4, 13, id="4d-corpus"),
    ],
)
def test_mc_halfspace_test_matches_point_count(dim, balls):
    if isinstance(balls, int):
        balls = random_collection(dim, [balls, 3])
    else:
        balls = BallCollection.from_arrays(
            [b[:dim] for b in balls], [b[dim] for b in balls]
        )
    est = union_perimeter_mc(balls, samples_per_ball=20_000, seed=7)
    assert (est.value, est.std_error) == oracles.union_perimeter_mc_points(
        balls, 20_000, 7
    )


def _mc_cluster(dim, case):
    """Ball 0 with one neighbour, or with 64: small balls centred on its
    sphere, each covering a cap of it that few others reach."""
    if case == "one-neighbour":
        rows = [(0.0, 1.0), (1.5, 0.8), (6.0, 0.5)]
        centers = [[x, 0.2 * x] + [0.0] * (dim - 2) for x, _ in rows]
        return BallCollection.from_arrays(centers, [r for _, r in rows])
    g = np.random.default_rng([dim, 64]).standard_normal((64, dim))
    on_sphere = g / np.linalg.norm(g, axis=1)[:, None]
    return BallCollection.from_arrays(
        np.vstack([np.zeros(dim), on_sphere]), [1.0] + [0.04 * dim] * 64
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("case", ["one-neighbour", "dense"])
def test_mc_column_test_matches_point_count(dim, case):
    balls = _mc_cluster(dim, case)
    counts = np.diff(balls.pairs[0])
    if case == "one-neighbour":
        assert counts.tolist() == [1, 1, 0]
    else:
        assert counts[0] == 64
    est = union_perimeter_mc(balls, samples_per_ball=2_000, seed=3)
    assert (est.value, est.std_error) == oracles.union_perimeter_mc_points(
        balls, 2_000, 3
    )


def _volume_case(dim, case):
    rng = np.random.default_rng([dim, len(case)])
    if case == "offset-1e6":
        return BallCollection.from_arrays(
            rng.uniform(-2.0, 2.0, (30, dim)) + 1e6,
            np.exp(rng.uniform(math.log(0.05), 0.0, 30)),
        )
    if case == "six-decades":
        return BallCollection.from_arrays(
            rng.uniform(-3.0, 3.0, (40, dim)), 10.0 ** rng.uniform(-6.0, 0.0, 40)
        )
    e = np.eye(dim)
    if case == "tangent-coincident":
        # a coincident pair, external and internal tangency, and a chain
        # of tangent balls along the second axis
        centers = [0 * e[0], 0 * e[0], 2.0 * e[0], 0.5 * e[0], 1.5 * e[1], 2.5 * e[1]]
        return BallCollection.from_arrays(centers, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    # a ball of radius 1e-12 inside the box of two unit balls, apart
    # from both
    centers = [np.zeros(dim), np.full(dim, 3.0), 3.0 * e[0]]
    return BallCollection.from_arrays(centers, [1.0, 1.0, 1e-12])


def _ball_volumes(balls):
    return [unit_ball_volume(balls.dimension) * r**balls.dimension for r in balls.radii.tolist()]


def _agree(est, value, sigma=0.0):
    """Whether an estimate lies within 4 standard errors of a value that
    has its own standard error ``sigma``."""
    return abs(est.value - value) <= 4.0 * math.hypot(est.std_error, sigma)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_union_volume_mc_of_balls_that_do_not_meet_is_exact(monkeypatch, dim):
    # three isolated balls, and a chain of three tangent ones whose open
    # balls do not meet
    e = np.eye(dim)
    centers = [0.0 * e[0], 5.0 * e[1], -4.0 * e[1], 4.0 * e[0], 6.0 * e[0], 7.5 * e[0]]
    balls = BallCollection.from_arrays(centers, [1.0, 0.5, 2.0, 1.0, 1.0, 0.5])
    assert not balls.pairs[1].size
    drawn = _spy_on_substreams(monkeypatch)
    est = union_volume_mc(balls, samples=5_000, seed=2)
    assert drawn == []
    assert est.value == pytest.approx(math.fsum(_ball_volumes(balls)), rel=1e-15)
    assert (est.std_error, est.method, est.sample_count) == (0.0, "montecarlo", 5_000)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_union_volume_mc_of_two_balls_matches_inclusion_exclusion(dim):
    r1, r2, rho = 1.0, 0.7, 1.1
    balls = BallCollection.from_arrays([np.zeros(dim), rho * np.eye(dim)[0]], [r1, r2])
    exact = math.fsum(_ball_volumes(balls)) - float(geometry._lens_volumes(r1, r2, rho, dim))
    est = union_volume_mc(balls, samples=200_000, seed=dim)
    assert est.std_error > 0.0 and _agree(est, exact)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_union_volume_mc_of_nested_and_coincident_balls(dim):
    e = np.eye(dim)
    # a ball inside another, touching it from inside: every draw of the
    # small one lies in two balls
    nested = BallCollection.from_arrays([0.0 * e[0], 0.5 * e[0]], [1.0, 0.5])
    est = union_volume_mc(nested, samples=100_000, seed=4)
    assert _agree(est, unit_ball_volume(dim))
    # two and three copies of one ball: each draw lies in all of them
    for copies in (2, 3):
        balls = BallCollection.from_arrays([0.3 * e[0] + 0.1] * copies, [0.8] * copies)
        est = union_volume_mc(balls, samples=6_000, seed=5)
        assert est.value == pytest.approx(_ball_volumes(balls)[0], rel=1e-15)
        assert est.std_error == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize(
    "case", ["offset-1e6", "six-decades", "tangent-coincident", "tiny-ball"]
)
def test_union_volume_mc_agrees_with_the_box_estimator(dim, case):
    balls = _volume_case(dim, case)
    est = union_volume_mc(balls, samples=20_000, seed=9)
    value, sigma, _ = oracles.union_volume_mc_all_balls(balls, 20_000, 9)
    assert _agree(est, value, sigma)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize(
    "case", ["offset-1e6", "six-decades", "tangent-coincident", "tiny-ball", "corpus"]
)
def test_union_volume_mc_matches_point_count(dim, case):
    if case == "corpus":
        balls = random_collection(dim, [dim, 40, 5], 40)
    else:
        balls = _volume_case(dim, case)
    est = union_volume_mc(balls, samples=20_000, seed=9)
    value, sigma, count = oracles.union_volume_mc_points(balls, 20_000, 9)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.std_error == pytest.approx(sigma, rel=1e-9)
    assert est.sample_count == count


@pytest.mark.parametrize("dim", [2, 3])
def test_union_volume_mc_agrees_with_the_box_estimator_on_the_corpus(dim):
    # and its standard error is no larger than the box estimator's
    for seed in range(20):
        balls = random_collection(dim, [seed, 3], 40)
        est = union_volume_mc(balls, samples=20_000, seed=seed)
        value, sigma, _ = oracles.union_volume_mc_all_balls(balls, 20_000, seed)
        assert _agree(est, value, sigma), seed
        assert est.std_error <= sigma, seed


@pytest.mark.parametrize(
    "dim, k", [(dim, k) for dim in (2, 3, 4) for k in (-60, -40, -20, 20, 60)]
)
def test_union_volume_mc_scales_exactly_by_powers_of_two(dim, k):
    # 2^k X keeps every ratio the estimate reads, so the shares and the
    # counts stay, and the volumes scale by 2^(kd), bit for bit
    factor = 2.0 ** (k * dim)
    for seed in range(6):
        balls = random_collection(dim, [dim, seed, 17])
        scaled = BallCollection.from_arrays(balls.centers * 2.0**k, balls.radii * 2.0**k)
        est = union_volume_mc(balls, samples=5_000, seed=seed)
        big = union_volume_mc(scaled, samples=5_000, seed=seed)
        assert (big.value, big.std_error) == (est.value * factor, est.std_error * factor)


def test_mc_estimates_do_not_depend_on_chunk_size(monkeypatch):
    # ball 0 has two neighbours: in 3D it takes cos and sin of its
    # (height, azimuth) pairs, which a chunk must not split
    rows = [(0, 0, 1.0), (1.2, 0.3, 0.7), (-0.5, 0.8, 0.4), (5, 5, 0.3)]
    lift = [0.0, 0.2, -0.3, 0.0]
    cases = [
        BallCollection.from_arrays(
            [[x, y] + [z] * (dim - 2) for (x, y, _), z in zip(rows, lift)],
            [r for *_, r in rows],
        )
        for dim in (2, 3, 4)
    ]

    def estimates():
        return [
            (
                union_perimeter_mc(balls, samples_per_ball=3_000, seed=11),
                union_volume_mc(balls, samples=5_000, seed=3),
            )
            for balls in cases
        ]

    expected = estimates()
    # a few points per chunk, with a shorter last chunk
    monkeypatch.setattr(geometry, "MC_CHUNK_ELEMENTS", 37)
    assert estimates() == expected


def _mc_digest_corpus(dim):
    """(collection, samples per ball, volume samples) of the corpus law
    in dimension ``dim``: 2 to 40 balls; 300 balls, which the pair layer
    splits into several kd-tree groups; and a few balls drawn over
    several chunks of 2**18 elements, in both estimates."""
    for n in (2, 7, 19, 40):
        yield random_collection(dim, [dim, n, 29], count=n), 2_000, 20_000
    yield random_collection(dim, [dim, 300, 29], count=300), 200, 50_000
    yield random_collection(dim, [dim, 4, 30], count=4), 300_000, 600_000


def _mc_digests(estimate) -> dict[int, str]:
    """sha256 per dimension of the reprs of ``estimate(balls, per_ball,
    samples, seed)`` over ``_mc_digest_corpus``."""
    digests = {}
    for dim in (2, 3, 4):
        digest = hashlib.sha256()
        for k, (balls, per_ball, samples) in enumerate(_mc_digest_corpus(dim)):
            digest.update(repr(estimate(balls, per_ball, samples, k)).encode())
        digests[dim] = digest.hexdigest()
    return digests


def test_mc_perimeters_match_recorded_digest():
    # recorded when the 2D and 3D spheres drew uniform turns and
    # (height, azimuth) pairs; the 4D spheres draw Gaussian directions
    assert _mc_digests(
        lambda balls, per_ball, _, seed: union_perimeter_mc(balls, per_ball, seed)
    ) == {
        2: "eda455789f2aaa605322a045130da7750e6d796eaef4b81d228fd6092c135e3d",
        3: "010add3b0447f0e8b46b534e8d0ea97b96d4d005b5d6a5ffc0c59bec6b984a48",
        4: "de5ff7173411ca7d28fe384eaab110480ced8347dab001ed56dc82d81eafc006",
    }


def test_mc_volumes_match_recorded_digest():
    # recorded when the volume became the Karp-Luby-Madras estimator
    assert _mc_digests(
        lambda balls, _, samples, seed: union_volume_mc(balls, samples, seed)
    ) == {
        2: "716cb7bf2fdc1cebe0e17f4915ab1a00806cbf00a022419ac174c32d9dac160b",
        3: "dc9282ff63296d90467e3764e9089d16cfaa9fdce0fcaf98edf69d72795d884e",
        4: "858a39d96ffce8bcb5906f039f48208c4f630767b9be24d2c5881487809f09fc",
    }


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_squares_match_numpy_row_sum(dim):
    x = np.random.default_rng(dim).standard_normal((5000, dim)) * 10.0 ** np.arange(dim)
    assert np.array_equal(geometry._row_squares(x), (x * x).sum(axis=1))


def _spy_on_substreams(monkeypatch) -> list[int]:
    """The ball indices of the substreams ``union_perimeter_mc`` or
    ``union_volume_mc`` opens, in order."""
    drawn = []
    real = np.random.default_rng

    def spy(seed):
        drawn.append(seed[1])
        return real(seed)

    monkeypatch.setattr(geometry.np.random, "default_rng", spy)
    return drawn


def _lifted(rows, dim):
    """Balls (x, y, r) of the plane at height 0 in dimension ``dim``."""
    return BallCollection.from_arrays(
        [[x, y] + [0.0] * (dim - 2) for x, y, _ in rows], [r for *_, r in rows]
    )


def test_mc_isolated_balls_draw_no_samples(monkeypatch):
    # balls 4 and 5 are tangent, so their open balls do not meet; the
    # only neighbour of ball 6, the smaller concentric ball 7, blocks no
    # direction of it, and ball 7 lies inside ball 6
    rows = [(0, 0, 1.0), (1.2, 0.3, 0.7), (5, 5, 0.3), (5, 5, 0.3), (-4, 0, 0.5),
            (-3, 0, 0.5), (8, 0, 1.0), (8, 0, 0.5)]
    drawn = _spy_on_substreams(monkeypatch)
    for dim in (2, 3):
        balls = _lifted(rows, dim)
        drawn.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = union_perimeter_mc(balls, samples_per_ball=2_000, seed=5)
        assert drawn == [0, 1]
        assert est.sample_count == 7 * 2_000
        pair = union_perimeter_mc(balls.subset([0, 1]), samples_per_ball=2_000, seed=5)
        lone = math.fsum(geometry._surface(r, dim) for r in (0.3, 0.5, 0.5, 1.0))
        assert est.value == pytest.approx(pair.value + lone, rel=1e-15)
        assert est.std_error == pair.std_error


def test_mc_covered_balls_draw_no_samples(monkeypatch):
    # ball 1 lies inside ball 0 and blocks no direction of it; ball 3
    # lies inside the union of balls 0 and 2 but in neither, and ball 4
    # touches ball 0 from inside: those two draw, and the estimate is
    # the count of every draw's point
    rows = [(0, 0, 1.0), (0.3, 0.2, 0.5), (1.5, 0, 1.0), (0.8, 0, 0.45), (0.5, 0, 0.5)]
    cases = [_lifted(rows, dim) for dim in (2, 3)]
    drawn = _spy_on_substreams(monkeypatch)
    estimates = []
    for balls in cases:
        drawn.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates.append(union_perimeter_mc(balls, samples_per_ball=4_000, seed=6))
        assert drawn == [0, 2, 3, 4]
        assert estimates[-1].sample_count == 5 * 4_000
    monkeypatch.undo()
    for balls, est in zip(cases, estimates):
        assert (est.value, est.std_error) == oracles.union_perimeter_mc_points(balls, 4_000, 6)


@pytest.mark.parametrize(
    "dim, k", [(dim, k) for dim in (2, 3, 4) for k in (-30, -20, 20, 60)] + [(2, -40)]
)
def test_union_perimeter_mc_scales_exactly_by_powers_of_two(dim, k):
    # 2^k X keeps every ratio the estimate reads, so the same draws fall
    # outside and the surfaces scale by 2^(k(d - 1)), bit for bit
    factor = 2.0 ** (k * (dim - 1))
    for seed in range(6):
        balls = random_collection(dim, [dim, seed, 17])
        scaled = BallCollection.from_arrays(balls.centers * 2.0**k, balls.radii * 2.0**k)
        est = union_perimeter_mc(balls, samples_per_ball=2_000, seed=seed)
        big = union_perimeter_mc(scaled, samples_per_ball=2_000, seed=seed)
        assert (big.value, big.std_error) == (est.value * factor, est.std_error * factor)


def test_mc_3d_agrees_with_disjoint_caps_in_closed_form():
    # collections with at least one meeting pair whose caps on every
    # sphere are pairwise disjoint, drawn in turn from one stream
    rng = np.random.default_rng(2029)
    cases = []
    while len(cases) < 50:
        n = int(rng.integers(4, 9))
        balls = BallCollection.from_arrays(
            rng.uniform(-1.2, 1.2, (n, 3)), rng.uniform(0.4, 0.8, n)
        )
        exact = oracles.disjoint_cap_free_area(balls)
        if exact is not None and balls.pairs[1].size:
            cases.append((balls, exact))
    hits = 0
    for seed, (balls, exact) in enumerate(cases):
        est = union_perimeter_mc(balls, samples_per_ball=20_000, seed=seed)
        hits += abs(est.value - exact) <= 4.0 * est.std_error
    assert hits >= 48, f"only {hits}/50 collections agreed within 4 sigma"


def test_sphere_frame_is_orthonormal():
    e = np.eye(3)
    axes = [s * e[i] for i in range(3) for s in (1.0, -1.0)]
    axes += [np.array([1.0, 0.0, -0.0]), np.array([0.0, -1.0, -0.0])]
    # offsets as the estimate reads them, w / |w| at many scales
    rng = np.random.default_rng(8)
    for w in rng.standard_normal((2_000, 3)) * 10.0 ** rng.uniform(-8, 8, (2_000, 1)):
        axes.append(w / math.sqrt(float(w @ w)))
    for axis in axes:
        frame = geometry._sphere_frame(axis)
        assert np.array_equal(frame[0], axis)
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15


def test_mc_validation():
    balls = _collection([(0, 0, 1.0)])
    with pytest.raises(ValueError):
        union_perimeter_mc(balls, samples_per_ball=10, seed=0)
    with pytest.raises(ValueError):
        union_volume_mc(balls, samples=10, seed=0)
    # squared center distances past the largest float
    huge = _collection([(-8e307, 0, 8e307), (8e307, 0, 8e307)])
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        union_volume_mc(huge, samples=1_000, seed=0)


# --------------------------------------------------------------------------
# Windowed boundary lengths


def test_halfplane_boundary_single_disk():
    balls = _collection([(0, 0, 1.0)])
    left = free_arc_length_halfplane(balls, 0.0, side="le")
    right = free_arc_length_halfplane(balls, 0.0, side="ge")
    assert left == pytest.approx(math.pi, rel=1e-12)
    assert right == pytest.approx(math.pi, rel=1e-12)
    assert free_arc_length_halfplane(balls, 2.0, side="le") == pytest.approx(
        TWO_PI, rel=1e-12
    )
    assert free_arc_length_halfplane(balls, 2.0, side="ge") == 0.0
    with pytest.raises(ValueError):
        free_arc_length_halfplane(balls, 0.0, side="up")


def test_halfplane_boundary_splits_total():
    rng = np.random.default_rng(5)
    centers = rng.uniform(-1, 1, size=(8, 2))
    radii = np.exp(rng.uniform(np.log(0.2), np.log(0.8), 8))
    balls = BallCollection(2, [Ball(tuple(c), float(r)) for c, r in zip(centers, radii)])
    for thr in (-0.7, 0.0, 0.4):
        le = free_arc_length_halfplane(balls, thr, side="le")
        ge = free_arc_length_halfplane(balls, thr, side="ge")
        assert le + ge == pytest.approx(union_perimeter_2d(balls).value, rel=1e-10)


# --------------------------------------------------------------------------
# Types and validation


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Ball((0.0, math.inf), 1.0)
    with pytest.raises(ValueError):
        Ball((), 1.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.nan)


def test_collection_validation():
    with pytest.raises(ValueError):
        BallCollection(2, [Ball((0.0,), 1.0)])
    with pytest.raises(TypeError):
        BallCollection(2, ["ball"])
    empty = BallCollection(2, [])
    assert len(empty) == 0
    assert empty.centers.shape == (0, 2)
    assert union_perimeter_2d(empty).value == 0.0


@pytest.mark.parametrize(
    "centers, radii, message",
    [
        ([[0.0, math.nan]], [1.0], "center must be finite"),
        ([[0.0, -math.inf]], [1.0], "center must be finite"),
        ([[0.0, 0.0]], [0.0], "radius must be finite and positive"),
        ([[0.0, 0.0]], [-1.0], "radius must be finite and positive"),
        ([[0.0, 0.0]], [math.inf], "radius must be finite and positive"),
        ([[0.0, 0.0]], [math.nan], "radius must be finite and positive"),
        (np.zeros((2, 0)), [1.0, 1.0], "dimension must be at least 1"),
        ([0.0, 0.0], [1.0, 1.0], r"\(n, d\)"),
        ([[0.0, 0.0]], [1.0, 1.0], r"\(n, d\)"),
    ],
)
def test_collection_from_arrays_rejects_what_ball_rejects(centers, radii, message):
    with pytest.raises(ValueError, match=message):
        BallCollection.from_arrays(centers, radii)


def test_collection_arrays_are_its_only_state():
    centers = np.array([[0.5, -0.0], [2.0, 1e300]])
    radii = np.array([1.0, 5e-324])
    balls = BallCollection.from_arrays(centers, radii)
    assert vars(balls).keys() == {"dimension", "centers", "radii"}
    centers[0, 0] = radii[0] = 7.0  # the collection holds copies
    assert balls.centers.tolist() == [[0.5, -0.0], [2.0, 1e300]]
    with pytest.raises(ValueError):
        balls.radii[0] = 2.0  # and they are read-only
    same = BallCollection(2, [Ball((0.5, -0.0), 1.0), Ball((2.0, 1e300), 5e-324)])
    assert same.centers.tolist() == balls.centers.tolist()
    assert same.radii.tolist() == balls.radii.tolist()
    sub = balls.subset([1])
    assert (sub.dimension, sub.centers.tolist(), sub.radii.tolist()) == (
        2, [[2.0, 1e300]], [5e-324]
    )
    assert balls.subset([]).centers.shape == (0, 2)


def test_perimeter_estimate_fields():
    est = PerimeterEstimate(1.0, 0.0, "exact2d", 0)
    assert est.value == 1.0 and est.std_error == 0.0


def test_tolerance_constants():
    assert DISJOINT_TOL == 1e-12 and ARC_TOL == 1e-12 and COINCIDENCE_TOL == 1e-12
