"""Geometry primitives against independent oracles and exact identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcover import geometry
from ballcover.counterexample import _Distances
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
    free_arc_length_in_disk,
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
from ballcover.selection import besicovitch_select, overlap_eps_max

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


@pytest.mark.parametrize("size", [255, 256, 257])
def test_pair_layer_around_the_group_size(size):
    # one class of 255 to 257 balls between a smaller and a larger class:
    # the classes share a tree or not as the count crosses 256
    rng = np.random.default_rng([size, 14])
    radii = np.concatenate([[0.3], rng.uniform(0.5, 1.0, size), [1.2, 1.5]])
    centers = rng.uniform(0.0, 10.0, (radii.size, 2))
    _assert_pairs_exact(centers, radii)


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


def _select_law(n, seed):
    """Disks of the ``select`` benchmark law at its density."""
    rng = np.random.default_rng([seed, 5])
    centers = rng.uniform(0.0, 22.0 * math.sqrt(n / 3000.0), (n, 2))
    return centers, np.exp(rng.uniform(math.log(0.005), 0.0, n))


def _corpus_3d(n, seed):
    balls = random_collection(3, seed, count=n)
    return balls.centers, balls.radii


_ORACLE_INPUTS = {
    "select-3000": lambda: _select_law(3000, 7),
    "select-100000": lambda: _select_law(100_000, 8),
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
    centers[53] = centers[52] + 0.8 * COINCIDENCE_TOL
    radii[53] = radii[52]
    dists = _brute_dists(centers)
    want = np.arange(len(radii))
    for a in range(len(radii)):
        if want[a] != a:
            continue
        same = (dists[a, a + 1 :] <= COINCIDENCE_TOL) & (
            np.abs(radii[a + 1 :] - radii[a]) <= COINCIDENCE_TOL
        )
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
    # from both, catches no sample
    centers = [np.zeros(dim), np.full(dim, 3.0), 3.0 * e[0]]
    return BallCollection.from_arrays(centers, [1.0, 1.0, 1e-12])


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize(
    "case", ["offset-1e6", "six-decades", "tangent-coincident", "tiny-ball"]
)
def test_volume_slabs_match_all_balls_count(dim, case):
    balls = _volume_case(dim, case)
    est = union_volume_mc(balls, samples=20_000, seed=9)
    assert (est.value, est.std_error, est.sample_count) == (
        oracles.union_volume_mc_all_balls(balls, 20_000, 9)
    )
    if case == "tiny-ball":
        assert est == union_volume_mc(balls.subset([0, 1]), samples=20_000, seed=9)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_volume_slab_keeps_an_accepted_draw_one_ulp_outside_its_ends(dim):
    # Two frame balls fix the box at [0, 21.1] x [-11, 11]^(d-1), so a
    # draw's first coordinate x = 21.1 U keeps all its low bits.  Take
    # one of the first draws with x in [1/4, 1/2) one ulp below a
    # multiple of 2^-52, and put a ball of radius 1.5 at c_1 = that
    # multiple + 1.5, level with the draw in the other axes.  Then
    # x - c_1 rounds to -1.5, so the draw passes the predicate, though
    # it lies one ulp left of c_1 - r.
    seed, samples, r = 5, 20_000, 1.5
    frame = np.array([[1.0] + [-10.0] * (dim - 1), [20.0] + [10.0] * (dim - 1)])
    frame_radii = np.array([1.0, 1.1])
    lo = (frame - frame_radii[:, None]).min(axis=0)
    hi = (frame + frame_radii[:, None]).max(axis=0)
    pts = np.random.default_rng([seed]).uniform(lo, hi, size=(samples, dim))
    step = 2.0**-52
    draw = next(
        p for p in pts
        if 0.25 <= p[0] < 0.5 and p[0] % step == 0.75 * step and np.all(np.abs(p[1:]) < 8.0)
    )
    center = draw.copy()
    center[0] = draw[0] - draw[0] % step + step + r
    assert center[0] - r == np.nextafter(draw[0], 1.0)
    assert geometry._row_squares((draw - center)[None, :])[0] <= r * r
    balls = BallCollection.from_arrays(np.vstack([frame, center]), [*frame_radii, r])
    est = union_volume_mc(balls, samples=samples, seed=seed)
    assert (est.value, est.std_error, est.sample_count) == (
        oracles.union_volume_mc_all_balls(balls, samples, seed)
    )


def test_mc_estimates_do_not_depend_on_chunk_size(monkeypatch):
    balls = _collection([(0, 0, 1.0), (1.2, 0.3, 0.7), (-0.5, 0.8, 0.4), (5, 5, 0.3)])
    perimeter = union_perimeter_mc(balls, samples_per_ball=3_000, seed=11)
    volume = union_volume_mc(balls, samples=5_000, seed=3)
    # a few points per chunk, with a shorter last chunk
    monkeypatch.setattr(geometry, "MC_CHUNK_ELEMENTS", 37)
    assert union_perimeter_mc(balls, samples_per_ball=3_000, seed=11) == perimeter
    assert union_volume_mc(balls, samples=5_000, seed=3) == volume


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_squares_match_numpy_row_sum(dim):
    x = np.random.default_rng(dim).standard_normal((5000, dim)) * 10.0 ** np.arange(dim)
    assert np.array_equal(geometry._row_squares(x), (x * x).sum(axis=1))


def test_mc_isolated_balls_draw_no_samples(monkeypatch):
    balls = _collection(
        [(0, 0, 1.0), (1.2, 0.3, 0.7), (5, 5, 0.3), (5, 5, 0.3), (-4, 0, 0.5), (-3, 0, 0.5)]
    )
    drawn = []
    real = np.random.default_rng

    def spy(seed):
        drawn.append(seed[1])
        return real(seed)

    monkeypatch.setattr(geometry.np.random, "default_rng", spy)
    est = union_perimeter_mc(balls, samples_per_ball=2_000, seed=5)
    # balls 4 and 5 are tangent, so their open disks do not meet
    assert drawn == [0, 1]
    assert est.sample_count == 5 * 2_000
    pair = union_perimeter_mc(balls.subset([0, 1]), samples_per_ball=2_000, seed=5)
    lone = 2.0 * math.pi * (0.3 + 0.5 + 0.5)
    assert est.value == pytest.approx(pair.value + lone, rel=1e-15)
    assert est.std_error == pair.std_error


def test_mc_validation():
    balls = _collection([(0, 0, 1.0)])
    with pytest.raises(ValueError):
        union_perimeter_mc(balls, samples_per_ball=10, seed=0)
    with pytest.raises(ValueError):
        union_volume_mc(balls, samples=10, seed=0)


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


def test_disk_window_boundary():
    balls = _collection([(0, 0, 1.0)])
    assert free_arc_length_in_disk(balls, (0.0, 0.0), 2.0) == pytest.approx(
        TWO_PI, rel=1e-12
    )
    assert free_arc_length_in_disk(balls, (5.0, 0.0), 1.0) == 0.0
    # Probe disk centered on the boundary point (1, 0) with small radius
    # captures an arc of length ~ 2 * probe radius.
    probe = 1e-3
    got = free_arc_length_in_disk(balls, (1.0, 0.0), probe)
    assert got == pytest.approx(2.0 * probe, rel=1e-4)


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
