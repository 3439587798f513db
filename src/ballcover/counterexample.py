"""Constructions that stress the covering selections.

Three families of examples live here:

* ``build_fig1``: one unit disk ringed by ``k`` small disks, each
  poking into the central disk by half its radius.  As the small disks
  shrink, the union's perimeter grows like ``k`` while every disjoint
  subfamily keeps bounded perimeter.

* ``build_surrounded_ball``: a greedy generator that packs pairwise
  disjoint small disks around the unit disk, each overlapping it by an
  exact volume fraction ``eps`` of the small disk.  The packing shows
  the perimeter cost of an eps-overlap selection must blow up at the
  rate ``eps ** (-1/3)`` in the plane.

* ``build_reverse_example``: a large union of unit disks whose boundary
  contains a tiny petal curve of length about ``2 * pi * eps`` around
  the origin.  Every pairwise disjoint subfamily of the disks has total
  perimeter ``0`` or at least ``2 * pi``, so no disjoint selection can
  account for that small boundary piece.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    BallCollection,
    _haversine,
    _overlap_distance,
    center_distance_for_overlap,
)

__all__ = [
    "SurroundedBallConfig",
    "build_fig1",
    "build_reverse_example",
    "build_surrounded_ball",
    "build_surrounded_ball_detailed",
]


# --------------------------------------------------------------------------
# ring of small disks around a unit disk (fixed count)
# --------------------------------------------------------------------------


def build_fig1(k: int, tiny_radius: float) -> BallCollection:
    """Unit disk at the origin plus ``k`` disjoint disks of radius
    ``tiny_radius`` whose centers sit on the circle of radius
    ``1 + tiny_radius / 2``.

    Each small disk overlaps the central disk in a lens of width
    ``tiny_radius / 2``.  The small disks must fit side by side on
    their circle without touching each other or leaving the doubled
    central disk; both conditions are enforced up front.
    """
    k = int(k)
    t = float(tiny_radius)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("tiny_radius must be positive and finite")
    ring_radius = 1.0 + 0.5 * t
    # Keep every small disk inside the doubled central disk:
    # ring_radius + t <= 2  <=>  t <= 2/3.
    if t > 2.0 / 3.0:
        raise ValueError(
            "packing constraint violated: tiny_radius must be at most 2/3 "
            "so the small disks stay inside the doubled central disk"
        )
    # Adjacent centers are 2 * ring_radius * sin(pi / k) apart and the
    # disks are disjoint only when that chord is at least 2 * t.
    if k >= 2 and math.sin(math.pi / k) < t / ring_radius:
        raise ValueError(
            "packing constraint violated: need sin(pi / k) >= "
            "tiny_radius / (1 + tiny_radius / 2) so the small disks are "
            "pairwise disjoint"
        )
    centers = [(0.0, 0.0)]
    for j in range(k):
        angle = TWO_PI * j / k
        centers.append((ring_radius * math.cos(angle), ring_radius * math.sin(angle)))
    return BallCollection.from_arrays(centers, [1.0] + [t] * k)


# --------------------------------------------------------------------------
# greedy surrounded-ball packing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SurroundedBallConfig:
    """Parameters of the greedy surrounded-ball generator.

    eps: exact overlap fraction of each small disk with the unit disk
        (lens volume = eps times the small disk's volume).
    delta: cap on the small radii, at most the unit radius; the first
        disks placed have radius exactly delta and radii never increase
        afterwards.
    n_max: cap on the number of small disks.
    seed: seed of the angle sampler.
    """

    eps: float
    delta: float
    n_max: int
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps < 0.5):
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        # inf % 1 is nan, so an infinite cap fails here, not in int()
        if not (self.n_max >= 1 and self.n_max % 1 == 0):
            raise ValueError("n_max must be an integer >= 1")


def _secant(opening, distance, a, a_rho, fa, b, b_rho, fb, tol):
    """Bracket to width tol the radius at which ``opening(rho, r)`` turns
    from positive to at most 0, by a secant with the Illinois halving:
    the radii a < b have center distances a_rho, b_rho and openings
    fa > 0 >= fb.  Returns the two ends of the last bracket with their
    distances; each trial radius takes one ``distance(r)`` call."""
    side, half = 0, 0.5 * tol
    while b - a > tol:
        # fa halves to 0.0 on a band where the opening is exactly 0
        c = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
        # at least half the tolerance inside, so the bracket shrinks; the
        # float of min(max(c, lo), hi), nan included
        lo, hi = a + half, b - half
        if lo > c:
            c = lo
        if hi < c:
            c = hi
        c_rho = distance(c)
        fc = opening(c_rho, c)
        if fc > 0.0:
            a, a_rho, fa = c, c_rho, fc
            if side > 0:
                fb *= 0.5
            side = 1
        else:
            b, b_rho, fb = c, c_rho, fc
            if side < 0:
                fa *= 0.5
            side = -1
    return a, a_rho, b, b_rho


def _shut_radius(opening, distances, a, a_rho, fa, b, b_rho, fb, tol):
    """``_secant``'s lower end and its center distance, which
    ``distances`` (a ``_Distances``) gives for every trial radius.

    A first ``_secant`` runs on ``distances.estimate``, which costs no
    overlap solve.  The ends of its bracket are solved exactly, the lower
    first, and the exact ``_secant`` starts from them: often they still
    bracket the root, and otherwise it lies a few trials away."""
    for c in _secant(opening, distances.estimate, a, a_rho, fa, b, b_rho, fb, tol)[::2]:
        c_rho = distances(c)
        fc = opening(c_rho, c)
        if fc <= 0.0:
            b, b_rho, fb = c, c_rho, fc
            break
        a, a_rho, fa = c, c_rho, fc
    return _secant(opening, distances, a, a_rho, fa, b, b_rho, fb, tol)[:2]


class _Distances:
    """Center distances of the radii solved so far in one build, in
    descending order of radius: radii only shrink, so a new solve is
    appended near the end of the lists.  The distance depends on the
    radius alone, so each new overlap solve starts at the distance
    interpolated between the solved radii on either side, and a radius
    solved before is not solved again.  Call it with a radius between
    the least and the greatest given at construction, which are solved
    from the midpoint start."""

    def __init__(self, eps: float, *radii: float):
        self._eps = eps
        # the negated radii, ascending, so bisect finds a radius's place
        self._keys = sorted(-r for r in radii)
        self._rhos = [center_distance_for_overlap(-k, 1.0, eps, 2) for k in self._keys]

    def estimate(self, r: float) -> float:
        """The distance of r if it was solved, else the start its solve
        takes: the interpolation at r between the solved radii k (the
        smaller) and k - 1 (the larger) on either side, with
        r - (-keys[k]) taken as r + keys[k], the same float."""
        keys, rhos = self._keys, self._rhos
        k = bisect_left(keys, -r)
        key = keys[k]
        if key == -r:
            return rhos[k]
        rho = rhos[k]
        return rho + (r + key) * ((rhos[k - 1] - rho) / (key - keys[k - 1]))

    def __call__(self, r: float) -> float:
        keys, rhos = self._keys, self._rhos
        k = bisect_left(keys, -r)
        key = keys[k]
        if key == -r:
            return rhos[k]
        rho = rhos[k]
        start = rho + (r + key) * ((rhos[k - 1] - rho) / (key - keys[k - 1]))
        rho = _overlap_distance(r, 1.0, self._eps, 2, start)
        keys.insert(k, -r)
        rhos.insert(k, rho)
        return rho


def _arc(disk, rho: float, r: float) -> tuple[float, float, float] | None:
    """The arc that one placed disk, given as (angle, center distance,
    radius), blocks for a new disk of radius r at distance rho, in the
    floats of the probe: its half-width, start and end, None when it
    blocks every angle.  Every small disk straddles the unit circle, so
    the haversine is positive."""
    angle, dist, radius = disk
    x = _haversine(dist, rho, r + radius)
    if x >= 1.0:
        return None
    h = 2.0 * math.asin(math.sqrt(x))
    lo = angle - h
    lo = (lo + TWO_PI if lo < 0.0 else lo) + 0.0
    return h, lo, lo + 2.0 * h


def _pair_opening(left, right):
    """The opening of a gap between the arc of the placed disk ``left``
    and that of ``right``, each given as (angle, center distance,
    radius), as a function of a new disk's center distance rho and
    radius r: the width from the end of the left ``_arc`` (less 2*pi
    past 2*pi) to the start of the right one, at most 0 when they shut
    the gap, and -pi when either arc is the whole circle.  The probe
    takes the same floats, so it finds the gap exactly when the opening
    is positive.

    When the arcs overlap across 0 = 2*pi, the opening is the angle
    between the two centers less both half-widths.  No build has been
    seen to do so, but the lemma of ``_PocketQueue`` does not rule it
    out: a disk of radius delta drawn at the very end of a free arc is
    tangent to the first disk, and at radius delta its arc's float end
    can pass 2*pi by an ulp."""
    span = right[0] - left[0]
    if span <= 0.0:
        span += TWO_PI

    def opening(rho: float, r: float) -> float:
        arc_left, arc_right = _arc(left, rho, r), _arc(right, rho, r)
        if arc_left is None or arc_right is None:
            return -math.pi
        (h_left, _, end), (h_right, start, _) = arc_left, arc_right
        gap = start - (end - TWO_PI if end > TWO_PI else end)
        approx = span - h_left - h_right
        return approx if gap > approx + math.pi else gap

    return opening


# A pocket is a candidate of the probe at radius c when its key is at
# least c less _BAND times the packing's first radius: one part in 1e9
# of delta, four orders above the few 1e-13 * delta within which the
# probe's own verdict flips.
_BAND = 1e-9


class _Pocket:
    """A gap at the radius floor, the piece (``start``, ``end``) of
    (0, 2*pi) from the end of the arc of the placed disk ``left`` to the
    start of the arc of ``right``, each given as (angle, center distance,
    radius), and ``key``, an upper bound on the radius it can take.
    Radii never grow, so until the pocket is ``solved`` the radius of the
    placement that made it is one; then it is the radius at which
    ``_pair_opening(left, right)`` shuts the pocket, or the last radius
    while the pocket was still open there, at distance ``rho``.  A
    placement drawn in the pocket's gap retires it."""

    __slots__ = ("start", "end", "left", "right", "key", "rho", "solved", "alive")

    def __init__(self, start: float, end: float, left, right, key: float):
        self.start, self.end = start, end
        self.left, self.right, self.key = left, right, key
        self.rho, self.solved, self.alive = math.nan, False, True


class _PocketQueue:
    """The state of a packing: its pockets, in a heap by ``_Pocket.key``;
    the live ones are the free pieces at the radius floor.  It is the
    packing's only radius search, which ends when the heap is empty.

    The first disk, of radius r, sits at angle 0, so its arc holds
    0 = 2*pi at every radius and no gap or pocket runs across it.  A
    placement is drawn in the gap of one pocket and splits only that
    pocket: by the corollary below, its floor arc lies between the
    centers of the pocket's two disks, so it meets no other piece.  The
    parts of the piece left on either side become new pockets, each
    bounded by the new disk and one of the old pocket's disks.  Shut
    radii are bracketed to width ``tol`` on ``distances``, a
    ``_Distances``.

    Lemma: the gap of a floor piece at a radius c is bounded by the
    piece's own two disks.  Every placed disk j sits at the center
    distance rho(r_j) of the one eps-overlap law (``_Distances``).
    Placed disks are pairwise disjoint.  Radii never grow, so every
    radius c that a probe or a secant trial evaluates is at most every
    placed radius.  Let H(a, b) = 2 asin(sqrt(x)), with x the
    ``_haversine`` (a + b - D)(a + b + D) / (4 rho(a) rho(b)) and
    D = rho(a) - rho(b), be the half-width of the arc that a placed disk
    of radius a blocks for a new disk of radius b.  H is symmetric, and
    it does not decrease in b (a test checks this on a grid of eps and
    radii): arcs grow with the radius.  Take two placed
    disks M and L.  As they are disjoint, the angle between their
    centers is at least H(r_M, r_L), which is at least H(r_M, c).  So at
    radius c, M's arc ends at or before L's center angle, which lies
    inside L's own arc, and no third disk's arc reaches past a piece's
    disk into its gap.  In floats the margin is H(r_L, c) >= H(r_L,
    floor), against a rounding error of a few ulps.  The same argument
    shows that no placed disk blocks every angle at c once there are
    two.  That needs each disk's center inside its own arc in floats
    too, so the queue refuses with ``ValueError`` a placed disk whose
    floor arc's float ends do not hold its center angle.

    Corollary: a disk M drawn in the gap between disks L and R keeps its
    floor arc between their centers, as the angle between M's center and
    L's (or R's) is at least H(r_M, r_L) >= H(r_M, floor).  ``add``
    checks this before it changes anything and refuses a placement that
    breaks it with ``ValueError``.
    """

    def __init__(self, floor: float, distances, tol: float, r: float):
        self._band = _BAND * r
        disk = (0.0, distances(r), r)
        self._floor, self._floor_rho = floor, distances(floor)
        self._distances, self._tol = distances, tol
        self._heap, self._pushed = [], 0
        # with eps < 1/2 no disk blocks the whole circle at the floor
        _, lo, hi = self._floor_arc(disk)
        self._push(_Pocket(hi - TWO_PI, lo, disk, disk, r))

    def _floor_arc(self, disk):
        """``_arc`` of a placed disk at the floor; ValueError unless its
        float ends hold the disk's center angle strictly inside, which
        the lemma needs."""
        arc = _arc(disk, self._floor_rho, self._floor)
        if arc is not None:
            angle, (_, lo, hi) = disk[0], arc
            if angle < lo:
                angle += TWO_PI
            if not lo < angle < hi:
                raise ValueError(
                    f"radius floor {self._floor!r} too small: a disk's arc there "
                    "does not hold its center in floats, so its gaps could not "
                    "be bounded; take a larger delta"
                )
        return arc

    def _push(self, pocket: _Pocket) -> None:
        # among equal keys a solved pocket comes first
        self._pushed += 1
        heapq.heappush(self._heap, (-pocket.key, not pocket.solved, self._pushed, pocket))

    def _candidates(self, r: float) -> list[_Pocket]:
        """The live pockets whose keys are at least r less the band, in
        angle order, from a walk of the heap down from its root."""
        heap, limit, found, stack = self._heap, self._band - r, [], [0]
        size = len(heap)
        while stack:
            i = stack.pop()
            if i < size:
                entry = heap[i]
                if entry[0] <= limit:
                    if entry[3].alive:
                        found.append(entry[3])
                    stack += (2 * i + 1, 2 * i + 2)
        found.sort(key=lambda pocket: pocket.start)
        return found

    def gaps(self, rho: float, r: float) -> tuple[np.ndarray, np.ndarray, list[_Pocket]]:
        """The free arcs for a new disk of radius r at distance rho, empty
        when it fits nowhere, and the pocket of each: the probe that
        accepts every placement.

        Every gap at r lies in a free piece at the floor, as arcs grow
        with the radius, and in the piece of a pocket whose key reaches r
        less ``_BAND`` times the first radius; by the lemma only the
        pocket's two disks bound it there.  So each candidate pocket's
        gap runs from the end of its left disk's arc (less 2*pi past
        2*pi) to the start of its right disk's arc, the floats of
        ``_pair_opening``, and is kept when positive and when it meets
        the pocket's piece, which a gap across 0 = 2*pi does not: the
        gaps are, float for float, those of the sorted union of every
        placed disk's arc cut at 2*pi."""
        starts, ends, pockets = [], [], []
        for pocket in self._candidates(r):
            # by the lemma no arc is the whole circle
            end, start = _arc(pocket.left, rho, r)[2], _arc(pocket.right, rho, r)[1]
            if end > TWO_PI:
                end -= TWO_PI
            if end < start and pocket.start < start and end < pocket.end:
                starts.append(end)
                ends.append(start)
                pockets.append(pocket)
        return np.array(starts), np.array(ends), pockets

    def add(self, pocket: _Pocket, rho: float, angle: float, r: float) -> None:
        """Place a disk of radius r at distance rho and ``angle``, drawn
        from the gap of ``pocket``: the pocket retires, and the parts of
        its piece left on either side of the new disk's floor arc become
        pockets with the upper bound r.  By the corollary of the lemma
        that arc lies between the centers of the pocket's two disks, so
        it meets no other piece; ValueError, before any change, when it
        does not."""
        disk = (angle, rho, r)
        # by the lemma no placed disk blocks every angle at the floor
        _, lo, hi = self._floor_arc(disk)
        # the first disk's center is 0 on the left and 2*pi on the right
        if not (pocket.left[0] <= lo and hi <= (pocket.right[0] or TWO_PI)):
            raise ValueError(
                "a placed disk's floor arc leaves the span between the "
                "centers of the two disks of the pocket it was drawn in"
            )
        pocket.alive = False
        if lo > pocket.start:
            self._push(_Pocket(pocket.start, lo, pocket.left, disk, r))
        if pocket.end > hi:
            self._push(_Pocket(hi, pocket.end, disk, pocket.right, r))

    def _solve(self, pocket: _Pocket, r: float, rho: float) -> None:
        """Make ``pocket.key`` the radius at which its two disks shut it
        below the last radius r, at distance rho, or r itself while the
        pocket is open there.  At the floor it is open: its piece."""
        opening = _pair_opening(pocket.left, pocket.right)
        fb = opening(rho, r)
        if fb > 0.0:
            pocket.key, pocket.rho = r, rho
        else:
            floor, floor_rho = self._floor, self._floor_rho
            fa = opening(floor_rho, floor)
            pocket.key, pocket.rho = _shut_radius(
                opening, self._distances, floor, floor_rho, fa, r, rho, fb, self._tol
            )
        pocket.solved = True

    def largest_fit(self, r: float, rho: float):
        """The largest radius at most r, up to the tolerance, that fits
        among the placed disks, with its center distance and the
        ``gaps`` there; None when no pocket is left.  r is the last radius placed, at
        distance rho.

        Pockets come off the heap until the top one is solved; its key,
        capped at r, is the radius c.  Its own two disks leave its gap
        open at c, and by the lemma no other disk's arc reaches into it,
        so the probe accepts c."""
        heap = self._heap
        while heap:
            pocket = heap[0][3]
            if pocket.alive and pocket.solved:
                c, c_rho = (pocket.key, pocket.rho) if pocket.key < r else (r, rho)
                return c, c_rho, self.gaps(c_rho, c)
            heapq.heappop(heap)
            if pocket.alive:
                self._solve(pocket, r, rho)
                self._push(pocket)
        return None


def build_surrounded_ball_detailed(cfg: SurroundedBallConfig) -> tuple[BallCollection, str]:
    """Greedy packing of small disks around the unit disk, and why it
    stopped: ``"n_max"`` after ``n_max`` small disks, ``"radius floor"``
    when even radius ``delta * 1e-3`` no longer fits anywhere.

    Disk 0 is the closed unit disk at the origin.  Each small disk is
    placed at the largest admissible radius ``r`` (at most ``delta``,
    never above the previous radius): its center distance is tuned so
    the lens with the unit disk is exactly ``eps`` times its own area.
    The first sits at angle 0, which keeps every gap off 0 = 2*pi and
    leaves the law unchanged, as it is the same under rotation; each
    further angle is drawn uniformly from the set of angles where the
    disk stays disjoint from all previously placed small disks.

    The radius comes from ``_PocketQueue``.  Each gap between two disks'
    arcs at the radius floor is a pocket; a placement splits only the
    pocket whose gap its angle was drawn from, since its floor arc lies
    between the centers of that pocket's two disks.  The pocket with the
    largest bound is solved when it reaches the top of the heap:
    ``_shut_radius`` brackets the radius at which its two disks shut it
    below the last radius to ``1e-14 * delta``, unless it is still open
    there; no other disk can shut it first.  The probe accepts the top's
    radius and gives the free arcs for the angle, each with its pocket.
    The build stops at the radius floor when no pocket is left.
    The probe's own verdict flips back and forth within a few
    ``1e-13 * delta`` above the shut radius, from the rounding of the
    center distance and of the arc ends; a disk larger by one part in
    1e9 is blocked at every angle.  So the probe at radius c reads
    only the pockets whose keys are at least c - 1e-9 * delta, and in
    each only the arcs of its two disks; its gaps, and so the packing,
    are those of a probe that reads every placed disk.  The cost of a
    placement then hardly grows with the number of disks placed.
    ValueError when delta is so small that a disk's arc at the floor
    does not hold its center angle in floats.
    """
    if not isinstance(cfg, SurroundedBallConfig):
        raise TypeError("cfg must be a SurroundedBallConfig")
    rng = np.random.default_rng(cfg.seed % 2**63)
    floor = cfg.delta * 1e-3
    distances = _Distances(cfg.eps, floor, cfg.delta)
    pockets = _PocketQueue(floor, distances, 1e-14 * cfg.delta, cfg.delta)
    r, rho = cfg.delta, distances(cfg.delta)
    centers, radii = [(0.0, 0.0), (rho, 0.0)], [1.0, r]
    stop = "n_max"
    for _ in range(int(cfg.n_max) - 1):
        fit = pockets.largest_fit(r, rho)
        if fit is None:
            stop = "radius floor"
            break
        r, rho, (gap_starts, gap_ends, drawn) = fit
        widths = gap_ends - gap_starts
        # widths.sum() without its Python wrapper: the same reduction
        total = float(np.add.reduce(widths))
        # total * u of Generator.random is the float Generator.uniform(0,
        # total) returns for the same stream, without its argument checks
        u = min(total * rng.random(), math.nextafter(total, 0.0))
        # the sums in order, as np.cumsum adds them
        offsets = list(itertools.accumulate(widths.tolist(), initial=0.0))
        slot = min(bisect_right(offsets, u), widths.size) - 1
        angle = (float(gap_starts[slot]) + (u - offsets[slot])) % TWO_PI
        pockets.add(drawn[slot], rho, angle, r)
        centers.append((rho * math.cos(angle), rho * math.sin(angle)))
        radii.append(r)
    return BallCollection.from_arrays(centers, radii), stop


def build_surrounded_ball(cfg: SurroundedBallConfig) -> BallCollection:
    """The packing of ``build_surrounded_ball_detailed`` without its stop
    reason."""
    return build_surrounded_ball_detailed(cfg)[0]


# --------------------------------------------------------------------------
# reverse example: tiny boundary piece, no small disjoint subfamily
# --------------------------------------------------------------------------

_RING_COUNT = 64
_BRIDGE_RADIUS = 1.9
_HEX_PITCH = 1.7


def build_reverse_example(eps: float, box_half_width: float = 4.0) -> BallCollection:
    """Union of unit disks whose boundary near the origin is a petal
    curve of length about ``2 * pi * eps``.

    The disks come in three layers: a ring of 64 unit disks with
    centers at distance ``1 + eps`` from the origin (their inner arcs
    form the petal curve), a bridge ring at distance 1.9, and a
    hexagonal grid of pitch 1.7 filling the box of half-width
    ``box_half_width`` outside the central region.  The grid pitch is
    below ``sqrt(3)``, so the grid disks cover the box wherever their
    centers are allowed; the two rings patch the excluded middle.

    Every disk has radius 1, so any pairwise disjoint subfamily has
    total perimeter 0 or at least ``2 * pi``, while the union's
    boundary inside the disk of radius ``2 * eps`` has length about
    ``2 * pi * eps``.
    """
    eps = float(eps)
    w = float(box_half_width)
    if not (0.0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 0.25)")
    if w < 2.0:
        raise ValueError("box_half_width must be at least 2")
    centers: list[tuple[float, float]] = []
    for j in range(_RING_COUNT):
        angle = TWO_PI * j / _RING_COUNT
        centers.append(((1.0 + eps) * math.cos(angle), (1.0 + eps) * math.sin(angle)))
    bridge_count = 12
    for j in range(bridge_count):
        angle = TWO_PI * (j + 0.5) / bridge_count
        centers.append(
            (_BRIDGE_RADIUS * math.cos(angle), _BRIDGE_RADIUS * math.sin(angle))
        )
    # hexagonal grid over the box, keeping centers away from the petals
    row_step = _HEX_PITCH * math.sqrt(3.0) / 2.0
    j_span = int(math.ceil(w / row_step)) + 1
    i_span = int(math.ceil(w / _HEX_PITCH)) + 1
    exclusion = 1.0 + 2.0 * eps
    for j in range(-j_span, j_span + 1):
        y = j * row_step
        if abs(y) > w:
            continue
        shift = 0.5 * _HEX_PITCH if j % 2 else 0.0
        for i in range(-i_span, i_span + 1):
            x = i * _HEX_PITCH + shift
            if abs(x) > w:
                continue
            if math.hypot(x, y) < exclusion:
                continue
            centers.append((x, y))
    return BallCollection.from_arrays(centers, np.ones(len(centers)))
