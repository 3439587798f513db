"""Balls, intervals, and measures of their unions.

Exact routines cover dimension 1 (interval sweeps) and dimension 2
(angular arc clipping); higher dimensions fall back to seeded Monte
Carlo estimates.  Pairwise quantities (lens volumes, cap volumes,
half-space cuts) are closed forms in every dimension, exact up to
rounding: ``atan2`` with a series for thin segments in 2D and the
regularized incomplete beta function from 3D on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Touching closures count as overlap only above this distance slack.
DISJOINT_TOL = 1e-12
# Angular arcs shorter than this are dropped as numerical noise.
ARC_TOL = 1e-12
# Coincident balls are merged when centers and radii agree to this
# fraction of the larger radius.
COINCIDENCE_TOL = 1e-12

TWO_PI = 2.0 * math.pi
# Elements of a Monte Carlo chunk: samples times the dimension, or times
# the neighbour count where that is larger.  At 2**16 (512 KiB of
# float64) a chunk's draws, projections and mask stay in the core's
# cache while the neighbour tests pass over them: at 2**22 (32 MiB) the
# 2D perimeters of criterion 7, a million draws per ball, ran about a
# quarter slower, and 2**17 and 2**18 were no faster than 2**16.  Each
# substream is drawn in order, so the size moves no output bit.
MC_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class Ball:
    """Closed ball given by center coordinates and a positive radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        radius = float(self.radius)
        if len(center) < 1:
            raise ValueError("ball center needs at least one coordinate")
        if not all(math.isfinite(c) for c in center):
            raise ValueError("ball center must be finite")
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError("ball radius must be finite and positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Interval:
    """Nonempty open interval (lo, hi) with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError("interval needs lo < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


class BallCollection:
    """Finite family of balls sharing one ambient dimension, held as a
    read-only (n, d) array of finite ``centers`` and n finite positive
    ``radii``, and read only through those arrays.  Producers use
    ``from_arrays``.  ``pairs``, the one pair layer that says which balls
    meet, and ``bounds`` are built once per collection on first use."""

    def __init__(self, dimension: int, balls):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        balls = list(balls)
        for b in balls:
            if not isinstance(b, Ball):
                raise TypeError("collection entries must be Ball instances")
            if b.dimension != dimension:
                raise ValueError("ball dimension does not match collection")
        made = BallCollection.from_arrays(
            np.reshape([b.center for b in balls], (-1, dimension)),
            [b.radius for b in balls],
        )
        vars(self).update(vars(made))

    @classmethod
    def from_arrays(cls, centers, radii) -> "BallCollection":
        """Collection of n balls from an (n, d) array of centers and n
        radii, copied; the dimension is the number of columns."""
        centers, radii = np.array(centers, dtype=float), np.array(radii, dtype=float)
        if centers.ndim != 2 or radii.shape != centers.shape[:1]:
            raise ValueError("need an (n, d) array of centers and n radii")
        if centers.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.isfinite(centers).all():
            raise ValueError("ball center must be finite")
        if not (np.isfinite(radii) & (radii > 0.0)).all():
            raise ValueError("ball radius must be finite and positive")
        centers.flags.writeable = False
        radii.flags.writeable = False
        balls = cls.__new__(cls)
        balls.dimension, balls.centers, balls.radii = centers.shape[1], centers, radii
        return balls

    def __len__(self) -> int:
        return len(self.radii)

    def subset(self, indices) -> "BallCollection":
        idx = np.asarray(indices, dtype=np.intp)
        return BallCollection.from_arrays(self.centers[idx], self.radii[idx])

    @cached_property
    def bounds(self) -> tuple[float, list[float], list[float]]:
        """The largest radius and each coordinate's least and greatest
        center, in Python floats, taken once per collection for
        ``_check_float_range``."""
        if not self.radii.size:
            return 0.0, [], []
        lows, highs = self.centers.min(axis=0).tolist(), self.centers.max(axis=0).tolist()
        return float(self.radii.max()), lows, highs

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per ball, the balls whose open interiors meet it, read-only.

        Returns (start, owner, partner, dist): entry k pairs ball
        owner[k] with partner[k] at center distance dist[k], below the
        sum of their radii, and the partners of ball i are
        ``partner[start[i]:start[i + 1]]`` in ascending order.  The
        distance of a candidate pair of ``_candidate_pairs`` is
        sqrt(_row_squares(c_first - c_second)), gathered a coordinate at
        a time; it decides the pair, and it does not depend on the
        order of the pair, so a superset of candidates gives the same
        arrays whatever its source.  Both directions are sorted once by
        owner and partner.

        Raises ``_check_float_range``'s OverflowError before any other
        arithmetic: every radius sum and squared center distance it takes
        is then finite.
        """
        _check_float_range(self)
        centers, radii = self.centers, self.radii
        first, second = _candidate_pairs(centers, radii)
        squares = np.zeros(first.size)
        for column in centers.T:
            diff = column[first] - column[second]
            squares += diff * diff
        dist = np.sqrt(squares)
        meet = dist < radii[first] + radii[second]
        owner = np.concatenate([first[meet], second[meet]])
        partner = np.concatenate([second[meet], first[meet]])
        order = np.argsort(owner * len(radii) + partner)
        owner = owner[order]
        start = np.searchsorted(owner, np.arange(len(radii) + 1))
        layer = start, owner, partner[order], np.tile(dist[meet], 2)[order]
        for array in layer:
            array.flags.writeable = False
        return layer


def _check_float_range(balls: BallCollection, degree: int = 0) -> None:
    """The one range check of the collections' arithmetic: raise
    OverflowError, before any array arithmetic, when twice the largest
    radius r or the squared extent of the centers is not a float, which
    bounds every radius sum and squared center distance of the pair
    layer.  With degree k >= 1, also when four times the largest
    coordinate of a ball's point, or 4 n d (s + 2r)^k, is not: s is the
    largest extent of the centers in one coordinate, n the ball count
    and d the dimension.  That bounds the coordinates a few radii past
    a ball, and the sums over the balls and coordinates of products of
    k sides of their bounding box that a measure of degree k takes.

    The floats are Python's, which overflow to inf without a warning;
    after the collection's ``bounds``, the check costs O(d)."""
    radius, lows, highs = balls.bounds
    reach, far, side = 2.0 * radius, 0.0, 0.0
    for lo, hi in zip(lows, highs):
        reach += (hi - lo) * (hi - lo)
        far, side = max(far, -lo, hi), max(side, hi - lo)
    if degree:
        bound = float(4 * len(balls) * balls.dimension)
        for _ in range(degree):
            bound *= side + 2.0 * radius
        reach += 4.0 * (far + radius) + bound
    if not math.isfinite(reach):
        raise OverflowError("ball radii or extents exceed the float range")


_EXACT_METHODS = ("exact1d", "exact2d")
_METHODS = _EXACT_METHODS + ("montecarlo",)


@dataclass(frozen=True)
class PerimeterEstimate:
    """Measure estimate with a standard error (zero for exact methods).

    A Monte Carlo estimate may also report zero standard error when all
    samples agree (for example a single isolated ball).
    """

    value: float
    std_error: float
    method: str
    sample_count: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < 0 or self.std_error < 0:
            raise ValueError("value and std_error must be nonnegative")
        if self.method in _EXACT_METHODS and self.std_error != 0.0:
            raise ValueError("exact methods must report zero std_error")


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if dim == 1:
        # the formula rounds to 1.9999999999999998
        return 2.0
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _surface(radius: float, dim: int) -> float:
    """Perimeter (surface measure) of a ball of the given radius; counts
    both endpoints for d = 1."""
    if dim == 1:
        return 2.0
    return dim * unit_ball_volume(dim) * radius ** (dim - 1)


def _seg_series(x):
    """Taylor series of x - sin(x) cos(x), accurate for x < 0.1; takes
    floats and arrays alike."""
    x2 = x * x
    return (
        x
        * x2
        * (
            2.0 / 3.0
            + x2 * (-2.0 / 15.0 + x2 * (4.0 / 315.0 - x2 * (2.0 / 2835.0)))
        )
    )


def _betainc(a, b, x):
    """scipy.special.betainc, for the caps of d >= 3.  scipy.special
    loads at the first call, not at import, and the call binds this
    name to betainc itself, so later caps skip the import statement."""
    global _betainc
    from scipy.special import betainc

    _betainc = betainc
    return betainc(a, b, x)


def _cap_volume(radius: float, offset: float, dim: int) -> float:
    """Volume of {x in B : x_1 >= offset} for a ball of given radius at 0.

    The offset is signed and may lie anywhere in [-radius, radius]; values
    outside that range clamp to the full ball or the empty set.
    """
    r = float(radius)
    a = float(offset)
    if a <= -r:
        return unit_ball_volume(dim) * r**dim
    if a >= r:
        return 0.0
    if dim == 1:
        return r - a
    if dim == 2:
        # x - sin(x) cos(x) of the half angle x, through the series for
        # x < 0.1 so tiny segments keep full relative accuracy
        square = (r - a) * (r + a)
        x = math.atan2(math.sqrt(square if square > 0.0 else 0.0), a)
        return r * r * (_seg_series(x) if x < 0.1 else x - math.sin(x) * math.cos(x))
    # Regularized incomplete beta closed form; full relative accuracy
    # even for sliver caps where direct quadrature loses digits.
    if a < 0.0:
        return unit_ball_volume(dim) * r**dim - _cap_volume(r, -a, dim)
    x = (r - a) * (r + a) / (r * r)
    frac = 0.5 * _betainc((dim + 1) / 2.0, 0.5, x)
    return unit_ball_volume(dim) * r**dim * frac


def _cap_volumes(r: np.ndarray, a: np.ndarray, dim: int) -> np.ndarray:
    """``_cap_volume`` over arrays of radii and signed offsets."""
    a = np.clip(a, -r, r)
    if dim == 1:
        return r - a
    if dim == 2:
        x = np.arctan2(np.sqrt(np.maximum((r - a) * (r + a), 0.0)), a)
        return r * r * np.where(x < 0.1, _seg_series(x), x - np.sin(x) * np.cos(x))
    full = unit_ball_volume(dim) * r**dim
    b = np.abs(a)
    cap = full * (0.5 * _betainc((dim + 1) / 2.0, 0.5, (r - b) * (r + b) / (r * r)))
    return np.where(a < 0.0, full - cap, cap)


def _lens_volumes(r1, r2, rho, dim: int) -> np.ndarray:
    """Volume shared by balls of radii r1, r2 at center distance rho,
    over broadcast arrays: two caps cut off by the radical hyperplane,
    an overlap length in d = 1, circular segments in d = 2 and
    incomplete-beta spherical caps for d >= 3 (full relative accuracy
    at every overlap width)."""
    r1, r2, rho = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (r1, r2, rho))
    )
    out = np.zeros(rho.shape)
    inside = rho <= np.abs(r1 - r2)
    out[inside] = unit_ball_volume(dim) * np.minimum(r1, r2)[inside] ** dim
    meet = ~inside & (rho < r1 + r2)
    a, b, p = r1[meet], r2[meet], rho[meet]
    # signed offset of the radical hyperplane from the first center
    a1 = ((p - b) * (p + b) + a * a) / (2.0 * p)
    out[meet] = _cap_volumes(a, a1, dim) + _cap_volumes(b, p - a1, dim)
    return out


def lens_volume(b1: Ball, b2: Ball) -> float:
    """Volume of the intersection of two balls."""
    rho = math.dist(b1.center, b2.center)
    return float(_lens_volumes(b1.radius, b2.radius, rho, b1.dimension))


def center_distance_for_overlap(
    r_small: float, r_big: float, eps: float, dim: int
) -> float:
    """Center distance at which the lens equals eps times the small volume.

    The lens volume falls monotonically from the full small ball at
    internal tangency to zero at external tangency, with slope
    -omega_{d-1} h^(d-1) in the distance, h the half-chord of the radical
    hyperplane.  Newton steps on that slope, safeguarded by bisection of
    the bracket (r_big - r_small, r_big + r_small) and started at its
    midpoint, converge to machine precision.  ``_overlap_distance`` runs
    these steps from any start; the packing's ``_Distances`` starts them
    near the root, interpolated between the distances of two radii it
    has already solved.
    """
    r_small, r_big, eps = float(r_small), float(r_big), float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if not 0.0 < r_small <= r_big:
        raise ValueError("need 0 < r_small <= r_big")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return _overlap_distance(r_small, r_big, eps, dim, math.nan)


def _overlap_distance(
    r_small: float, r_big: float, eps: float, dim: int, start: float
) -> float:
    """The Newton loop of ``center_distance_for_overlap``, from ``start``.

    A start outside the open bracket (r_big - r_small, r_big + r_small),
    nan included, starts at its midpoint as a cold solve does.  Only the
    first point moves: the bracket, its bisection safeguard and the
    stopping rule stay, so a start near the root saves steps and lands
    within a few ulps of the cold root.
    """
    unit = unit_ball_volume(dim)
    target = eps * unit * r_small**dim
    full = unit * r_small**dim
    omega = unit_ball_volume(dim - 1)
    power = (dim - 1) / 2.0
    inner, outer = r_big - r_small, r_big + r_small
    lo, hi = inner, outer
    rho = start if lo < start < hi else 0.5 * (lo + hi)
    for _ in range(100):
        # the lens of the two balls, sharing the offset a of the
        # radical hyperplane from the big center with the slope
        a = ((rho - r_small) * (rho + r_small) + r_big * r_big) / (2.0 * rho)
        if rho >= outer:
            lens = 0.0
        elif rho <= inner:
            lens = full
        else:
            lens = _cap_volume(r_big, a, dim) + _cap_volume(r_small, rho - a, dim)
        g = lens - target
        if g > 0.0:
            lo = rho
        else:
            hi = rho
        # the half-chord's square, negative ones (and nan) taken as 0
        square = (r_big - a) * (r_big + a)
        slope = omega * (square if square > 0.0 else 0.0) ** power
        nxt = rho + g / slope if slope > 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - rho) <= 5e-16 * rho:
            return nxt
        rho = nxt
    return rho


def union_components(starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a union of segments, sorted by position.

    Sorts by start and keeps a running maximum of the ends; a segment
    opens a new component only when it starts beyond that maximum, so
    segments whose closures touch merge.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    # a stable sort runs in about linear time on nearly sorted starts
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = np.maximum.accumulate(ends[order])
    # gap[i]: a component boundary lies between sorted segments i - 1
    # and i, with one before the first segment and one after the last
    gap = np.ones(s.size + 1, dtype=bool)
    np.greater(s[1:], e[:-1], out=gap[1:-1])
    return s[gap[:-1]], e[gap[1:]]


# ---------------------------------------------------------------------------
# which balls meet

# A collection of at most _GROUP_BALLS balls is one kd-tree, queried
# at twice its largest radius: one tree and one query cost less than a
# tree per radius class and the queries across them.  In larger
# collections a tree holds one radius class (radii within a factor of
# two, from the binary exponent), or adjacent classes merged while it
# keeps at most _GROUP_CAP balls over at most _GROUP_CLASSES classes.
# The class cap keeps a large ball from widening the query of many
# small ones.  The ball cap is larger than _GROUP_BALLS because it only
# merges classes at most a factor of 16 apart, where a query's fixed
# cost (60-100 us on a shared 2-vCPU machine, even when it finds
# nothing) outweighs the extra candidates; a one-tree threshold as
# large would query a 713-disk packing at twice the unit radius.
_GROUP_BALLS = 256
_GROUP_CAP = 1024
_GROUP_CLASSES = 4
# Relative slack of the tree queries: it covers the rounding of the
# trees' own distances, which need not equal those of the pair layer.
_TREE_SLACK = 1.0 + 1e-7


def _candidate_pairs(
    centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unordered ball pairs, each once, that include every pair i != j
    whose open balls meet by the distances of ``BallCollection.pairs``.

    One kd-tree per radius group answers one array query inside the
    group, at twice its largest radius, and one against each smaller
    group, at the sum of the two largest radii.
    """
    if len(radii) < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    from scipy.spatial import cKDTree

    if len(radii) <= _GROUP_BALLS:
        reach = _TREE_SLACK * 2.0 * float(radii.max())
        inside = cKDTree(centers).query_pairs(reach, output_type="ndarray")
        return inside[:, 0], inside[:, 1]
    # class k holds the radii in [2^(k + e - 1), 2^(k + e)), e the least
    # binary exponent; frexp reads it without a logarithm's overflow
    exponent = np.frexp(radii)[1]
    of_class = exponent - exponent.min()
    counts = np.bincount(of_class)
    group_of_class = np.empty(counts.size, dtype=np.intp)
    group, low, held = -1, 0, 0
    for k in np.flatnonzero(counts).tolist():
        if group < 0 or held + counts[k] > _GROUP_CAP or k - low >= _GROUP_CLASSES:
            group, low, held = group + 1, k, 0
        held += int(counts[k])
        group_of_class[k] = group
    of_group = group_of_class[of_class]
    order = np.argsort(of_group, kind="stable")
    bounds = np.cumsum(np.bincount(of_group, minlength=group + 1)).tolist()
    members = [order[a:b] for a, b in zip([0] + bounds, bounds)]
    trees = [cKDTree(centers[idx]) for idx in members]
    reach = [float(radii[idx].max()) for idx in members]
    first, second = [], []
    for g, (tree, idx) in enumerate(zip(trees, members)):
        inside = tree.query_pairs(_TREE_SLACK * 2.0 * reach[g], output_type="ndarray")
        first.append(idx[inside[:, 0]])
        second.append(idx[inside[:, 1]])
        for h in range(g):
            across = tree.sparse_distance_matrix(
                trees[h], _TREE_SLACK * (reach[g] + reach[h]), output_type="ndarray"
            )
            first.append(idx[across["i"]])
            second.append(members[h][across["j"]])
    return np.concatenate(first), np.concatenate(second)


def _coincidence_groups(
    radii: np.ndarray, owner: np.ndarray, partner: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Representative index per ball, from the (owner, partner, dist)
    entries of ``BallCollection.pairs``; coincident balls share the
    lowest one: those whose center distance and radius difference are at
    most COINCIDENCE_TOL times the larger radius."""
    rep = np.arange(len(radii))
    tol = COINCIDENCE_TOL * np.maximum(radii[owner], radii[partner])
    same = (owner < partner) & (dist <= tol)
    same &= np.abs(radii[partner] - radii[owner]) <= tol
    for i, j in zip(owner[same].tolist(), partner[same].tolist()):
        if rep[i] == i and rep[j] == j:
            rep[j] = i
    return rep


# ---------------------------------------------------------------------------
# exact 2d boundary of a union of disks


def _haversine(d, r, s):
    """sin^2(h / 2) for the half-width h of the arc of a circle of radius
    r that an open disk of radius s at center distance d covers: the law
    of cosines cos h = (d^2 + r^2 - s^2) / (2 d r) solved for
    (1 - cos h) / 2 as (s - D)(s + D) / (4 d r), with D = d - r.  The disk
    covers no angle when it is at most 0 and every angle but at most one
    when it is at least 1; between, h = 2 asin(sqrt(x)).  D is exact for d
    and r within a factor 2 of each other and each factor rounds once, so
    x keeps its digits where the cosine rounds to near 1.  Written in
    operators only, it takes floats and arrays alike."""
    gap = d - r
    return (s - gap) * (s + gap) / (4.0 * d * r)


def _arc_ends(
    centers: np.ndarray, halfwidths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start in [0, 2*pi) and end, up to 4*pi, of arcs of given centers
    and halfwidths.

    Every arc must start in (-2*pi, 2*pi).  On that range the wrap below
    equals ``% TWO_PI`` bit for bit (-0.0 included) at a third of its
    cost.
    """
    lo = centers - halfwidths
    lo = np.where(lo < 0.0, lo + TWO_PI, lo) + 0.0
    return lo, lo + 2.0 * halfwidths


def _split_arcs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arcs with the ends of ``_arc_ends`` as segments of [0, 2*pi]: an
    arc past 2*pi ends there, and its part past 2*pi is appended,
    starting from 0."""
    over = hi > TWO_PI
    wrapped = hi[over] - TWO_PI
    starts = np.concatenate([lo, np.zeros(wrapped.size)])
    ends = np.concatenate([np.minimum(hi, TWO_PI), wrapped])
    return starts, ends


def free_arcs_2d(balls: BallCollection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncovered angular arcs of every circle against all other open disks.

    Returns flat arrays (circle, lo, hi), sorted by circle and then by
    angle: circle i's free arcs are the disjoint pieces (lo, hi) of
    [0, 2pi] at the entries equal to i.  Coincident duplicates and fully
    covered circles have none, and arcs below ARC_TOL are dropped.  The
    partners and center distances come from ``balls.pairs``.
    """
    if balls.dimension != 2:
        raise ValueError("free_arcs_2d needs dimension 2")
    # the half-width kernel multiplies sums of radii and distances in pairs
    _check_float_range(balls, 2)
    n = len(balls)
    centers, radii = balls.centers, balls.radii
    _, owner, partner, rho = balls.pairs
    rep = _coincidence_groups(radii, owner, partner, rho)
    free = rep == np.arange(n)
    pair = free[owner] & free[partner]
    owner, partner, rho = owner[pair], partner[pair], rho[pair]
    r, s = radii[owner], radii[partner]
    # the partner covers the angles within phi of its direction theta; at
    # a coincident center it covers all of a smaller circle or none
    same = rho <= COINCIDENCE_TOL * np.maximum(r, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _haversine(rho, r, s)
    free[owner[np.where(same, s > r, x >= 1.0)]] = False
    arc = ~same & (x > 0.0) & free[owner]
    circle, phi = owner[arc], 2.0 * np.arcsin(np.sqrt(x[arc]))
    toward = centers[partner[arc]] - centers[circle]
    lo, hi = _arc_ends(np.arctan2(toward[:, 1], toward[:, 0]), phi)
    # owners of the parts past 2pi that _split_arcs appends
    circle = np.concatenate([circle, circle[hi > TWO_PI]])
    lo, hi = _split_arcs(lo, hi)
    # Sweep every circle at once: 0 and 2pi bracket its arcs, which step
    # the cover count up at their starts and down at their ends; the
    # stable sort keeps starts before ends at a tie.  Each circle's steps
    # sum to zero, so one running sum serves all, and a circle is free
    # between an event where the count is 0 and its next event.
    ring = np.flatnonzero(free)
    counts = [ring.size, lo.size, hi.size, ring.size]
    at = np.concatenate([np.zeros(ring.size), lo, hi, np.full(ring.size, TWO_PI)])
    who = np.concatenate([ring, circle, circle, ring])
    order = np.lexsort((at, who))
    at, who = at[order], who[order]
    depth = np.cumsum(np.repeat([0, 1, -1, 0], counts)[order])
    gap = np.flatnonzero((depth[:-1] == 0) & (who[:-1] == who[1:]))
    gap = gap[at[gap + 1] - at[gap] > ARC_TOL]
    return who[gap], at[gap], at[gap + 1]


def union_perimeter_2d(balls: BallCollection) -> PerimeterEstimate:
    """Exact boundary length of a union of disks by angular arc clipping.

    A circle contributes the arcs not covered by any other open disk;
    coincident balls count once and arcs below 1e-12 radians are dropped.
    """
    return PerimeterEstimate(sum(free_arc_lengths_2d(balls)), 0.0, "exact2d", 0)


def free_arc_lengths_2d(balls: BallCollection) -> list[float]:
    """Length of each circle's part on the union boundary, in input order.

    Entries sum to the exact union perimeter of ``union_perimeter_2d``.
    """
    circle, lo, hi = free_arcs_2d(balls)
    return (balls.radii * np.bincount(circle, hi - lo, len(balls))).tolist()


def _free_length_in_windows(balls: BallCollection, start, end) -> float:
    """Length of the union boundary inside one angular window (start, end)
    (mod 2pi) per circle."""
    circle, lo, hi = free_arcs_2d(balls)
    width = np.minimum(end[circle] - start[circle], TWO_PI)
    start = start[circle] % TWO_PI
    end = start + width
    # a window past 2pi wraps to a second piece from 0
    head = np.maximum(0.0, np.minimum(hi, end) - np.maximum(lo, start))
    tail = np.maximum(0.0, np.minimum(hi, end - TWO_PI) - lo)
    inside = np.bincount(np.tile(circle, 2), np.concatenate([head, tail]), len(balls))
    return sum((balls.radii * inside).tolist(), 0.0)


def free_arc_length_halfplane(
    balls: BallCollection, threshold: float = 0.0, side: str = "le"
) -> float:
    """Length of the union boundary within a vertical half-plane.

    side "le" keeps boundary points with x_1 <= threshold, "ge" the rest.
    """
    if side not in ("le", "ge"):
        raise ValueError("side must be 'le' or 'ge'")
    # each circle crosses the line x_1 = threshold at angles +-t
    x, r = balls.centers[:, 0], balls.radii
    t = np.arccos(np.clip((float(threshold) - x) / r, -1.0, 1.0))
    if side == "le":
        return _free_length_in_windows(balls, t, TWO_PI - t)
    return _free_length_in_windows(balls, -t, t)


# ---------------------------------------------------------------------------
# Monte Carlo estimates


def _row_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each row, coordinates added in order as numpy's
    row sum does below eight columns, but without its slow reduction."""
    out = x[:, 0] * x[:, 0]
    for k in range(1, x.shape[1]):
        out += x[:, k] * x[:, k]
    return out


def _mc_blockers(balls: BallCollection):
    """The spheres ``union_perimeter_mc`` samples and the neighbours that
    block some of their directions.

    Returns (kept, spheres, start, partner, dist, k).  ``kept`` counts
    the balls left after coincident ones are merged into the lowest
    index; ``spheres`` are those of them, ascending, that lie inside no
    other ball: k < -(1 + 1e-9) rho for none of their neighbours.  The
    blockers of ball i are the entries start[i]:start[i + 1] of the
    other arrays, ascending: merged neighbours j at center distance
    ``dist`` = rho with k < rho, where
    k = (rho^2 + r_i^2 - r_j^2) / (2 r_i) is the bound that u.w may not
    exceed for the point c_i + r_i u to lie outside ball j, u a unit
    vector and w = c_j - c_i.  A neighbour with k >= rho, or
    (rho - r_i)^2 >= r_j^2, blocks no direction, as a smaller concentric
    ball does: its open ball misses the sphere.
    """
    n = len(balls)
    radii = balls.radii
    _, owner, partner, rho = balls.pairs
    if not owner.size:
        # no ball meets another
        return n, np.arange(n), np.zeros(n + 1, dtype=np.intp), partner, rho, rho
    rep = _coincidence_groups(radii, owner, partner, rho)
    own = radii[owner]
    k = (rho * rho + own * own - radii[partner] ** 2) / (2.0 * own)
    live = rep[partner] == partner
    block = live & (k < rho)
    start = np.searchsorted(owner[block], np.arange(n + 1))
    spheres = rep == np.arange(n)
    kept = int(np.count_nonzero(spheres))
    spheres[owner[live & (k < -(1.0 + 1e-9) * rho)]] = False
    return kept, np.flatnonzero(spheres), start, partner[block], rho[block], k[block]


def _chunk_sizes(m: int, width: int) -> list[int]:
    """Draws per chunk of m draws whose work takes ``width`` floats each."""
    chunk = max(1, MC_CHUNK_ELEMENTS // width)
    return [min(chunk, m - done) for done in range(0, m, chunk)]


def _turn_arcs(balls: BallCollection, start, partner, dist) -> tuple[list, list]:
    """Start and end, in turns, of the open arc that each blocker of
    ``_mc_blockers`` covers on the circle of its sphere, in one pass over
    all of them: the entries of ``partner`` and ``dist``, ball i's at
    start[i]:start[i + 1].  An arc starts in [0, 1) and may end past 1."""
    centers, radii = balls.centers, balls.radii
    owner = np.repeat(np.arange(len(balls)), np.diff(start))
    r, s = radii[owner], radii[partner]
    # Heron's half-chord, as two square roots of degree-2 factors.  The
    # second is negative only for a circle inside the disk or within
    # rounding of an inner tangency: the arc is then all or none of it
    chord = np.sqrt((r + s + dist) * (r + s - dist))
    chord *= np.sqrt(np.maximum((dist + r - s) * (dist - r + s), 0.0))
    half = np.arctan2(chord, dist * dist + r * r - s * s)
    w = centers[partner] - centers[owner]
    lo, hi = _arc_ends(np.arctan2(w[:, 1], w[:, 0]), half)
    return (lo / TWO_PI).tolist(), (hi / TWO_PI).tolist()


def _outside_turns(rng, m, lo, hi) -> int:
    """Of m uniform turns t in [0, 1), those outside every blocked arc
    (lo, hi) of ``_turn_arcs``.  An arc past 1 wraps to 0."""
    outside = 0
    for size in _chunk_sizes(m, max(2, len(lo))):
        t = rng.random(size)
        ok = np.ones(size, dtype=bool)
        for a, b in zip(lo, hi):
            ok &= (t <= a) | (t >= b) if b <= 1.0 else (t <= a) & (t >= b - 1.0)
        outside += int(np.count_nonzero(ok))
    return outside


def _sphere_frame(axis) -> np.ndarray:
    """Orthonormal rows (e0, e1, e2) of R^3 with e0 the unit vector
    ``axis``: the branch-free basis of Duff et al., "Building an
    orthonormal basis, revisited" (JCGT 6, 2017), whose denominator
    sign + z is at least 1 in size."""
    x, y, z = (float(v) for v in axis)
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.array(
        [[x, y, z], [1.0 + sign * x * x * a, sign * b, -sign * x], [b, sign + y * y * a, -y]]
    )


def _outside_heights(rng, m, w, dist, k) -> int:
    """Of m uniform (height, azimuth) pairs, read as the unit vectors
    z e0 + sqrt(1 - z^2)(cos phi e1 + sin phi e2) of the frame of the
    first neighbour, those u with u.w <= k for every neighbour."""
    frame = _sphere_frame(w[0] / dist[0])
    top = float(k[0] / dist[0])
    # the other neighbours' offsets in the frame's coordinates
    rest, bound = w[1:] @ frame.T, k[1:]
    outside = 0
    for size in _chunk_sizes(m, max(3, k.size)):
        u = rng.random((size, 2))
        z = 2.0 * u[:, 0] - 1.0
        ok = z <= top
        if bound.size:
            ring = 1.0 - z
            ring *= 1.0 + z
            np.sqrt(ring, out=ring)
            phi = u[:, 1] - 0.5
            phi *= TWO_PI
            unit = np.empty((3, size))
            unit[0] = z
            np.cos(phi, out=unit[1])
            np.sin(phi, out=unit[2])
            unit[1:] *= ring
            proj = rest @ unit
            for j in range(bound.size):
                ok &= proj[j] <= bound[j]
        outside += int(np.count_nonzero(ok))
    return outside


def _outside_gaussian(rng, m, w, dist, k) -> int:
    """Of m standard Gaussian draws g, the directions g/|g|, those with
    g.w <= k|g| for every neighbour: one (K, m) product per chunk, then
    one contiguous neighbour row at a time into one mask."""
    d = w.shape[1]
    outside = 0
    for size in _chunk_sizes(m, max(d, k.size)):
        g = rng.standard_normal((size, d))
        norms = np.sqrt(_row_squares(g))
        proj = w @ g.T
        ok = proj[0] <= norms * k[0]
        for j in range(1, k.size):
            ok &= proj[j] <= norms * k[j]
        outside += int(np.count_nonzero(ok))
    return outside


def union_perimeter_mc(
    balls: BallCollection, samples_per_ball: int, seed: int
) -> PerimeterEstimate:
    """Monte Carlo boundary measure of a union of balls in any dimension.

    Sphere i draws from a substream seeded by (seed, i), so results do
    not depend on evaluation order, and counts the fraction p of its
    draws whose point c_i + r_i u, u a unit vector, lies outside every
    ball j that blocks some direction (boundary included): u.w <= k,
    with w, rho and k of ``_mc_blockers``.  The law of u:

    - d = 2: one uniform t in [0, 1), the angle in turns.  Neighbour j
      blocks the open arc centred on atan2(w) with half-width
      atan2(sqrt((r+s+rho)(r+s-rho)) sqrt((rho+r-s)(rho-r+s)),
      rho^2 + r^2 - s^2), r = r_i and s = r_j: Heron's half-chord, not
      the haversine kernel of ``free_arcs_2d``, so the exact perimeter
      and this estimate take their half-widths two ways.  Each factor
      is of degree 2, within ``_check_float_range``'s degree.
      ``_turn_arcs`` takes every sphere's arcs in one array pass.
    - d = 3: a uniform pair (height z in [-1, 1), azimuth phi), and
      u = z e0 + sqrt(1 - z^2)(cos phi e1 + sin phi e2) is uniform on
      the sphere by Archimedes' hat-box theorem.  The frame is
      ``_sphere_frame`` of e0 = w_a / rho_a, a the first blocker, so
      the test against a is z <= k_a / rho_a and takes no cos or sin.
      A sphere with more blockers tests the others with one (K, m)
      product of their frame coordinates by the unit rows.
    - d >= 4: u = g/|g| of a standard Gaussian draw g, tested as
      g.w <= k|g| without a division.

    A chunk's draws come from one call, pairs interleaved in 3D, so the
    chunk size moves no bit.  Coincident balls are merged first.  A
    sphere with no blocker is fully exposed and one inside another
    ball fully covered; neither draws samples, though ``sample_count``
    still charges both.  The standard error combines per-ball binomial
    variances.

    Sphere i lies inside ball j when k < -rho: every unit u has
    u.w >= -rho > k.  With a relative margin of 1e-9 the floats keep
    that order, so the test would count no draw outside and p = 0,
    which adds exactly 0 to the value and the variance.  In 3D,
    z >= -1 > k_a / rho_a, and a unit row's product with the frame
    coordinates of w_j, of length rho_j up to a few ulps, is at least
    -rho_j less a few ulps.  In 2D the factor rho + r - s is negative,
    the half-width is exactly pi and the arc a whole turn: only a draw
    at its end, at a chance of about 2**-52, would count.  Likewise a
    neighbour with k >= rho has u.w <= rho <= k for every u, so
    dropping it moves no float but for a draw within rounding of the
    direction of w.
    """
    samples_per_ball = int(samples_per_ball)
    if samples_per_ball < 100:
        raise ValueError("samples_per_ball must be at least 100")
    if len(balls) == 0:
        raise ValueError("collection must be nonempty")
    d = balls.dimension
    # the variance sums squared surfaces, each at most 10 s^(2d - 2)
    # for a sphere in a box of side s >= 1 (d omega_d / 2^(d - 1) < 3.2)
    _check_float_range(balls, 2 * d - 1)
    centers, radii = balls.centers, balls.radii
    kept, spheres, start, partner, dist, k = _mc_blockers(balls)
    if d == 2:
        lo, hi = _turn_arcs(balls, start, partner, dist)
    outside_count = _outside_heights if d == 3 else _outside_gaussian
    radius_list, start = radii.tolist(), start.tolist()
    value = 0.0
    variance = 0.0
    for i in spheres.tolist():
        r = radius_list[i]
        surf = _surface(r, d)
        near = slice(start[i], start[i + 1])
        if near.start == near.stop:
            # Nothing blocks an exposed sphere: p = 1, zero variance.
            value += surf
            continue
        rng = np.random.default_rng([seed, i])
        if d == 2:
            outside = _outside_turns(rng, samples_per_ball, lo[near], hi[near])
        else:
            w = centers[partner[near]] - centers[i]
            outside = outside_count(rng, samples_per_ball, w, dist[near], k[near])
        p = outside / samples_per_ball
        value += surf * p
        variance += surf * surf * p * (1.0 - p) / samples_per_ball
    total_samples = samples_per_ball * kept
    return PerimeterEstimate(value, math.sqrt(variance), "montecarlo", total_samples)


def _ball_points(rng, size: int, d: int) -> np.ndarray:
    """``size`` points uniform in the unit ball of R^d, each from its own
    run of one call of ``rng``, so that the draws of a chunk follow the
    substream in order.  In 2D and 3D the radius is u^(1/d), the law of
    |x| for x uniform in the ball, u uniform in [0, 1):

    - d = 2: a uniform pair (u, t), the point sqrt(u) (cos 2 pi t,
      sin 2 pi t);
    - d = 3: a uniform triple (u, v, w), the point cbrt(u) times the
      unit vector (z, sqrt(1 - z^2) cos phi, sqrt(1 - z^2) sin phi),
      z = 2v - 1 and phi = 2 pi (w - 1/2), uniform on the sphere by
      Archimedes' hat-box theorem;
    - d >= 4: the first d coordinates of g/|g|, g a standard Gaussian in
      R^(d + 2): a uniform point of the sphere in R^(d + 2) projects to a
      uniform point of the ball in R^d.
    """
    if d >= 4:
        g = rng.standard_normal((size, d + 2))
        return g[:, :d] / np.sqrt(_row_squares(g))[:, None]
    u = rng.random((size, d))
    if d == 2:
        phi = TWO_PI * u[:, 1]
        points = np.column_stack([np.cos(phi), np.sin(phi)])
        points *= np.sqrt(u[:, :1])
        return points
    z = 2.0 * u[:, 1] - 1.0
    phi = TWO_PI * (u[:, 2] - 0.5)
    ring = np.sqrt((1.0 - z) * (1.0 + z))
    points = np.column_stack([z, ring * np.cos(phi), ring * np.sin(phi)])
    points *= np.cbrt(u[:, :1])
    return points


def _holding_counts(rng, m, c, r, others, squares) -> np.ndarray:
    """Entry n: of m points x uniform in the ball of center c and radius
    r, how many lie in n balls, that ball and those of centers ``others``
    with ``_row_squares(x - c_j) <= squares[j]``.  The counts are
    integers, so the chunk size moves none of them."""
    hits = np.zeros(len(squares) + 2, dtype=np.intp)
    for size in _chunk_sizes(m, max(c.size + 2, len(squares))):
        x = _ball_points(rng, size, c.size)
        x *= r
        x += c
        held = np.ones(size, dtype=np.intp)
        for other, square in zip(others, squares):
            held += _row_squares(x - other) <= square
        hits += np.bincount(held, minlength=hits.size)
    return hits


def union_volume_mc(balls: BallCollection, samples: int, seed: int) -> PerimeterEstimate:
    """Volume of a union of balls: an exact interval sweep in d = 1, and
    from d = 2 on the Karp-Luby-Madras estimator (R. M. Karp, M. Luby
    and N. Madras, "Monte-Carlo approximation algorithms for enumeration
    problems", J. Algorithms 10, 1989)

        |U B| = sum_i |B_i| E[1 / N(x)],

    x uniform in B_i and N(x) the number of balls that hold x.

    The ``samples`` draws are split over the balls in proportion to
    |B_i|, by largest remainder with ties to the lower index.  Ball i
    draws its m_i points by ``_ball_points`` from the substream seeded by
    (seed, i), so the estimate does not depend on evaluation order, and
    N(x) is 1 plus the number of its partners j in ``balls.pairs`` with
    ``_row_squares(x - c_j) <= r_j^2``: only they meet its open interior.
    A ball without partners adds |B_i| exactly and draws nothing; it
    still takes its share of ``sample_count``, which is ``samples``.  So
    does a ball whose share is 0: its volume is then below 1/samples of
    the sum of the volumes, and |B_i| exceeds its term by less than
    that.  A drawing ball adds |B_i|^2 s_i^2 / m_i to the variance, s_i^2
    the plug-in variance of 1/N over its draws (0 when they all agree),
    summed relative to the sum of the volumes so that it stays a float
    wherever they do.  Every step scales exactly with a power-of-two
    scaling of the input.
    """
    samples = int(samples)
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    if len(balls) == 0:
        raise ValueError("collection must be nonempty")
    d = balls.dimension
    _check_float_range(balls, d)
    centers, radii = balls.centers, balls.radii
    if d == 1:
        lo, hi = union_components(centers[:, 0] - radii, centers[:, 0] + radii)
        return PerimeterEstimate(sum((hi - lo).tolist()), 0.0, "exact1d", 0)
    # r^d by products, which a power-of-two scaling keeps exact
    volumes = radii.copy()
    for _ in range(d - 1):
        volumes *= radii
    volumes *= unit_ball_volume(d)
    total = math.fsum(volumes.tolist())
    quota = volumes * (samples / total)
    share = np.floor(quota)
    # the largest remainders first, ties to the lower index
    share[np.argsort(share - quota, kind="stable")[: samples - int(share.sum())]] += 1.0
    start, _, partner, _ = balls.pairs
    start = start.tolist()
    value = 0.0
    variance = 0.0
    for i, (volume, m) in enumerate(zip(volumes.tolist(), share.astype(int).tolist())):
        near = partner[start[i] : start[i + 1]]
        if not (near.size and m):
            value += volume
            continue
        hits = _holding_counts(
            np.random.default_rng([seed, i]),
            m,
            centers[i],
            radii[i],
            centers[near],
            (radii[near] * radii[near]).tolist(),
        )
        # the share of the draws held by n balls, and 1/n, for n >= 1
        part, inverse = hits[1:] / m, 1.0 / np.arange(1, hits.size)
        mean = math.fsum((part * inverse).tolist())
        spread = math.fsum((part * (inverse - mean) ** 2).tolist())
        value += volume * mean
        variance += (volume / total) ** 2 * spread / m
    return PerimeterEstimate(value, total * math.sqrt(variance), "montecarlo", samples)


def union_perimeter(
    balls: BallCollection, samples_per_ball: int = 20_000, seed: int = 0
) -> PerimeterEstimate:
    """Boundary measure of a union: exact for d <= 2, Monte Carlo beyond."""
    if len(balls) == 0:
        raise ValueError("collection must be nonempty")
    if balls.dimension == 1:
        _check_float_range(balls, 1)
        x, r = balls.centers[:, 0], balls.radii
        lo, _ = union_components(x - r, x + r)
        return PerimeterEstimate(2.0 * lo.size, 0.0, "exact1d", 0)
    if balls.dimension == 2:
        return union_perimeter_2d(balls)
    return union_perimeter_mc(balls, samples_per_ball, seed)
