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
    _cos_half_angle,
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
    blocks every angle."""
    angle, dist, radius = disk
    q = _cos_half_angle(dist, rho, r + radius)
    if q <= -1.0:
        return None
    h = float(np.arccos(q))
    lo = angle - h
    lo = (lo + TWO_PI if lo < 0.0 else lo) + 0.0
    return h, lo, lo + 2.0 * h


def _pair_opening(left, right):
    """The opening of a gap between the arc of the placed disk ``left``
    and that of ``right``, each given as (angle, center distance,
    radius), as a function of a new disk's center
    distance rho and radius r: the width from the end of the left arc to
    the start of the right one, at most 0 when they shut the gap, and
    -pi when either arc is the whole circle.

    The width is taken in the floats of the probe, from the end of
    the left arc (less 2*pi past 2*pi) to the start of the right one, or
    as the angle between the two centers less both half-widths when the
    arcs overlap across 0 = 2*pi.  So the probe finds the gap exactly
    when the opening is positive, unless the arc of a disk the pocket
    does not know reaches into it."""
    left_angle, left_dist, left_radius = left
    right_angle, right_dist, right_radius = right
    span = right_angle - left_angle
    if span <= 0.0:
        span += TWO_PI
    # the terms of _cos_half_angle that hold the disk alone, bound once,
    # and the globals the trials read, bound as locals of the closure
    left_square, left_double = left_dist * left_dist, 2.0 * left_dist
    right_square, right_double = right_dist * right_dist, 2.0 * right_dist
    arccos, pi, two_pi = np.arccos, math.pi, TWO_PI

    # each arc inline: through _arc the packing's build is 4-7% slower
    def opening(rho: float, r: float) -> float:
        rho_square = rho * rho
        s = r + left_radius
        q = (left_square + rho_square - s * s) / (left_double * rho)
        if q <= -1.0:
            return -pi
        h_left = float(arccos(q))
        s = r + right_radius
        q = (right_square + rho_square - s * s) / (right_double * rho)
        if q <= -1.0:
            return -pi
        h_right = float(arccos(q))
        end = left_angle - h_left
        if end < 0.0:
            end += two_pi
        end += 2.0 * h_left
        if end > two_pi:
            end -= two_pi
        start = right_angle - h_right
        if start < 0.0:
            start += two_pi
        approx = span - h_left - h_right
        gap = start - end
        if gap > approx + pi:
            # the arcs overlap across 0 = 2*pi
            gap = approx
        return gap

    return opening


# A pocket is a candidate of the probe at radius c when its key is at
# least c less _BAND times the packing's first radius: one part in 1e9
# of delta, four orders above the few 1e-13 * delta within which the
# probe's own verdict flips.
_BAND = 1e-9
# Pad, in radians, of each radius class's half-width bound in the
# probe's windows: it covers the rounding of the bound and of the ends
# of the floor pieces.
_WINDOW_PAD = 1e-9


class _Pocket:
    """A gap at the radius floor, the piece (``start``, ``end``) of
    (0, 2*pi), and ``key``, an upper bound on the radius it can take.

    ``left`` lists the placed disks (``(angle, center distance,
    radius)``) whose arcs close the gap from its start, ``right`` those
    that close it from its end.  Each starts with the disk whose arc
    bounds the gap at the floor on that side, and ``_PocketQueue`` adds
    the disks whose arcs the probe finds in the gap at a radius it
    rejects.
    Radii never grow, so until the pocket is ``solved`` the radius of the
    placement that made it, or the rejected radius at center distance
    ``rho``, is one; then it is the radius at which ``opening`` shuts the
    pocket, or the last radius while the pocket was still open there, at
    distance ``rho``.  A placement that cuts the gap retires the
    pocket."""

    __slots__ = ("start", "end", "left", "right", "key", "rho", "solved", "alive")

    def __init__(self, start: float, end: float, left, right, key: float):
        self.start, self.end = start, end
        self.left, self.right, self.key = [left], [right], key
        self.rho, self.solved, self.alive = math.nan, False, True

    def opening(self):
        """The width of the gap as a function of a new disk's center
        distance rho and radius r, at most 0 when it is shut: the least
        over the (left, right) pairs of disks of ``_pair_opening``, and
        -pi when any arc is the whole circle.  Its disks are bound once,
        so take it anew after the pocket learns a disk."""
        pairs = [_pair_opening(left, right) for left in self.left for right in self.right]
        if len(pairs) == 1:
            return pairs[0]

        def opening(rho: float, r: float) -> float:
            widths = [pair(rho, r) for pair in pairs]
            # -pi marks a pair with an arc of the whole circle (bar a
            # width of exactly -pi, a tie of measure zero), and then the
            # pocket gives -pi even where another pair is narrower
            return -math.pi if -math.pi in widths else min(widths)

        return opening


class _RadiusClass:
    """The placed disks of one binary radius class, radii in
    [2^(e - 1), 2^e), sorted by angle, and the bounds of the probe's
    windows over them: the largest radius, the least center distance and
    the greatest square of one.  Each disk is a row (angle, d*d, 2*d,
    radius, disk) with the terms of ``_cos_half_angle`` that hold it
    alone, d its center distance."""

    __slots__ = ("angles", "rows", "radius", "near", "far_square")

    def __init__(self):
        self.angles, self.rows = [], []
        self.radius, self.near, self.far_square = 0.0, math.inf, 0.0

    def insert(self, disk) -> None:
        angle, dist, radius = disk
        k = bisect_left(self.angles, angle)
        self.angles.insert(k, angle)
        self.rows.insert(k, (angle, dist * dist, 2.0 * dist, radius, disk))
        if radius > self.radius:
            self.radius = radius
        if dist < self.near:
            self.near = dist
        if dist * dist > self.far_square:
            self.far_square = dist * dist


class _PocketQueue:
    """The state of a packing: its placed small disks, the free arcs at
    the radius floor and the pockets they make, in a heap by
    ``_Pocket.key``.  It is the packing's only radius search, which ends
    when the heap is empty.

    The disks are kept by binary radius class, the classes of the pair
    layer, each sorted by angle.  Every gap at a radius lies in a free
    piece at the floor, as arcs grow with the radius, and in the piece
    of a pocket whose key reaches that radius less ``_BAND`` times the
    first radius.  So the probe reads, around each such piece, only the
    disks of each class whose angle lies within the class's half-width
    bound of it.

    The first disk, of radius r, sits at angle 0, so its arc holds
    0 = 2*pi at every radius and no gap or pocket runs across it.  The
    pockets in angle order are the free pieces at the floor, kept as
    sorted disjoint pieces of (0, 2*pi) in the floats of ``_arc``: each
    placement takes its own arc out of them, and only the pieces it cuts
    get new pockets; each knows the disks whose arcs bound it.  Shut
    radii are bracketed to width ``tol`` on ``distances``, a
    ``_Distances``.
    """

    def __init__(self, floor: float, distances, tol: float, r: float):
        self._classes = {}
        self._band = _BAND * r
        disk = (0.0, distances(r), r)
        self._insert(disk)
        self._floor, self._floor_rho = floor, distances(floor)
        self._distances, self._tol = distances, tol
        self._heap, self._pushed = [], 0
        # with eps < 1/2 no disk blocks the whole circle at the floor
        _, lo, hi = _arc(disk, self._floor_rho, floor)
        pocket = _Pocket(hi - TWO_PI, lo, disk, disk, r)
        self._starts, self._pieces = [pocket.start], [pocket]
        self._push(pocket)

    def _insert(self, disk) -> None:
        exponent = math.frexp(disk[2])[1]
        if exponent not in self._classes:
            self._classes[exponent] = _RadiusClass()
        self._classes[exponent].insert(disk)

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

    def _reaches(self, rho: float, r: float) -> list:
        """Each radius class with a bound, padded by ``_WINDOW_PAD``, on
        the half-width of the float arc of every disk of the class for a
        new disk of radius r at distance rho; inf when a disk of the class
        may block every angle or the bound reaches pi.

        With s = r + r_j, 1 - cos h = (s^2 - (d - rho)^2) / (2 d rho),
        at most s^2 / (2 d rho), so sin(h / 2) is at most the square root
        of half that.  The float cosine is off by at most ``err`` / (2 d
        rho), 1e-15 times (d^2 + rho^2 + s^2) / (2 d rho) + 1, which is
        added.  A disk blocks every angle only when d + rho <= s."""
        reaches, rho_square = [], rho * rho
        asin, sqrt, pad = math.asin, math.sqrt, _WINDOW_PAD
        for group in self._classes.values():
            near, s = group.near, r + group.radius
            square, scale = s * s, 2.0 * near * rho
            err = 1e-15 * (group.far_square + rho_square + square + scale)
            sine_square = 0.5 * (square + err) / scale
            if (near + rho) * (1.0 - 1e-9) <= s or sine_square >= 1.0:
                reaches.append((group, math.inf))
            else:
                reaches.append((group, 2.0 * asin(sqrt(sine_square)) * (1.0 + 1e-9) + pad))
        return reaches

    @staticmethod
    def _window(reaches, pocket: _Pocket) -> list:
        """The rows of the disks whose arcs can reach the pocket's piece:
        per class, those whose angles lie within its reach of the piece,
        taken around 0 = 2*pi."""
        start, end, rows, two_pi = pocket.start, pocket.end, [], TWO_PI
        for group, h in reaches:
            lo, hi = start - h, end + h
            angles = group.angles
            if 0.0 <= lo and hi < two_pi:
                # most windows miss most classes: one bisection for those
                i = bisect_left(angles, lo)
                if i < len(angles) and angles[i] <= hi:
                    rows += group.rows[i : bisect_right(angles, hi, i)]
            elif hi - lo >= two_pi:
                rows += group.rows
            elif lo < 0.0:
                rows += group.rows[: bisect_right(angles, hi)]
                rows += group.rows[bisect_left(angles, lo + two_pi) :]
            else:
                rows += group.rows[: bisect_right(angles, hi - two_pi)]
                rows += group.rows[bisect_left(angles, lo) :]
        return rows

    def gaps(self, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
        """The free arcs for a new disk of radius r at distance rho, empty
        when it fits nowhere: the probe that accepts every placement.

        Its gaps are those of the sorted union of every arc cut at
        2*pi, as ``geometry._arc_ends`` and ``geometry._split_arcs`` give
        them, in the same floats: each runs from the greatest end of the
        arcs before it to the least start of the arcs after.  A disk that
        blocks every angle is sought only in the classes whose bounds
        allow one; then each candidate pocket's piece is swept over the
        arcs of its window."""
        rho_square, inf = rho * rho, math.inf
        reaches = self._reaches(rho, r)
        for group, h in reaches:
            if h == inf:
                for _, square, double, radius, _ in group.rows:
                    s = r + radius
                    if (square + rho_square - s * s) / (double * rho) <= -1.0:
                        return np.empty(0), np.empty(0)
        pockets = self._candidates(r)
        windows = [self._window(reaches, pocket) for pocket in pockets]
        cosines = [
            (square + rho_square - (r + radius) * (r + radius)) / (double * rho)
            for rows in windows
            for _, square, double, radius, _ in rows
        ]
        # Every small disk straddles the unit circle, so
        # |rho - dist_j| < r + r_j, which is q < 1: arccos needs no clip,
        # and each half-width is at least arccos(1 - 2**-53) > 1.4e-8.
        halves, two_pi = np.arccos(cosines).tolist(), TWO_PI
        starts, ends, first = [], [], 0
        for pocket, rows in zip(pockets, windows):
            segments, last = [], first + len(rows)
            for row, h in zip(rows, halves[first:last]):
                lo = row[0] - h
                lo = (lo + two_pi if lo < 0.0 else lo) + 0.0
                hi = lo + 2.0 * h
                if hi > two_pi:
                    segments += ((lo, two_pi), (0.0, hi - two_pi))
                else:
                    segments.append((lo, hi))
            first = last
            segments.sort()
            reach = segments[0][1]
            for lo, hi in segments:
                if lo > reach:
                    if pocket.start < lo and reach < pocket.end:
                        starts.append(reach)
                        ends.append(lo)
                    reach = hi
                elif hi > reach:
                    reach = hi
        return np.array(starts), np.array(ends)

    def add(self, rho: float, angle: float, r: float, key: float) -> None:
        """Place a disk of radius r at distance rho and ``angle``: insert
        it into its radius class, and take its floor arc out of the
        pieces; the pockets of the pieces it cuts get the upper bound
        ``key``."""
        disk = (angle, rho, r)
        self._insert(disk)
        arc = _arc(disk, self._floor_rho, self._floor)
        if arc is None:
            segments = [(0.0, TWO_PI)]
        else:
            # the segments of _split_arcs
            _, lo, hi = arc
            segments = [(lo, TWO_PI), (0.0, hi - TWO_PI)] if hi > TWO_PI else [(lo, hi)]
        starts, pieces, new = self._starts, self._pieces, []
        for s, e in segments:
            i = bisect_right(starts, s) - 1
            if i < 0 or pieces[i].end <= s:
                i += 1
            j, kept = i, []
            while j < len(pieces) and pieces[j].start < e:
                piece = pieces[j]
                # a cut piece's pocket retires, and so does a new one
                # that a second segment cuts again
                piece.alive = False
                if s > piece.start:
                    kept.append(_Pocket(piece.start, s, piece.left[0], disk, key))
                if piece.end > e:
                    kept.append(_Pocket(e, piece.end, disk, piece.right[0], key))
                j += 1
            pieces[i:j] = kept
            starts[i:j] = [pocket.start for pocket in kept]
            new += kept
        for pocket in new:
            if pocket.alive:
                self._push(pocket)

    def _learn(self, pocket: _Pocket, r: float, rho: float) -> bool:
        """Add to the pocket the placed disks it does not know whose
        arcs, for a new disk of radius r at distance rho, reach its gap at
        the floor: to ``left`` when the disk's center lies before the
        gap's midpoint, to ``right`` when after.  False when there is
        none.  The disks come from the probe's window of the pocket."""
        floor, floor_rho = self._floor, self._floor_rho
        start = _arc(pocket.left[0], floor_rho, floor)[2]
        width = (_arc(pocket.right[0], floor_rho, floor)[1] - start) % TWO_PI
        rows = self._window(self._reaches(rho, r), pocket)
        angle, square, double, radius, disks = (np.array(v) for v in zip(*rows))
        s = r + radius
        # at q <= -1 the arc is the whole circle
        h = np.arccos(np.maximum((square + rho * rho - s * s) / (double * rho), -1.0))
        # each arc's start, measured from the start of the gap
        lo = (angle - h - start) % TWO_PI
        reach = (lo < width) | (lo + 2.0 * h > TWO_PI)
        known = set(pocket.left + pocket.right)
        learned = False
        for disk in map(tuple, disks[reach].tolist()):
            if disk not in known:
                after = (disk[0] - start - 0.5 * width) % TWO_PI < math.pi
                (pocket.right if after else pocket.left).append(disk)
                learned = True
        return learned

    def _solve(self, pocket: _Pocket, r: float, rho: float) -> bool:
        """Make ``pocket.key`` the radius at which the pocket shuts below
        an upper end, or that end itself while the pocket is open there.
        The end is the last radius r, at distance rho, or the pocket's
        key when smaller: a radius the probe rejected, at distance
        ``pocket.rho``.  False, and the pocket retired, when it is shut
        at the floor too, which only a disk learned on the wrong side can do."""
        if pocket.key < r:
            r, rho = pocket.key, pocket.rho
        opening = pocket.opening()
        fb = opening(rho, r)
        if fb > 0.0:
            pocket.key, pocket.rho = r, rho
        else:
            floor, floor_rho = self._floor, self._floor_rho
            fa = opening(floor_rho, floor)
            if fa <= 0.0:
                pocket.alive = False
                return False
            pocket.key, pocket.rho = _shut_radius(
                opening, self._distances, floor, floor_rho, fa, r, rho, fb, self._tol
            )
        pocket.solved = True
        return True

    def largest_fit(self, r: float, rho: float):
        """The largest radius at most r, up to the tolerance, that fits
        among the placed disks, with its center distance and free arcs;
        None when no pocket is left.  r is the last radius placed, at
        distance rho.

        Pockets come off the heap until the top one is solved; its key,
        capped at r, is the radius c, which the probe must accept.  The
        probe reads only the pieces of the pockets whose keys are at
        least c less the band, and around each only the disks of each
        radius class whose arcs can reach it; its gaps are, float for
        float, those of every placed disk's arc.  When the probe
        rejects c, the arc of a disk the pocket does not know has
        reached its gap first: the pocket learns those disks, from the
        same windows, and goes back unsolved under the rejected radius,
        to be solved below it.  A pocket with nothing to learn is
        retired, so each pocket is rejected at most once per placed
        disk."""
        heap = self._heap
        while heap:
            pocket = heap[0][3]
            if not pocket.alive:
                heapq.heappop(heap)
                continue
            if not pocket.solved:
                heapq.heappop(heap)
                if self._solve(pocket, r, rho):
                    self._push(pocket)
                continue
            c, c_rho = (pocket.key, pocket.rho) if pocket.key < r else (r, rho)
            found = self.gaps(c_rho, c)
            if found[1].size:
                return c, c_rho, found
            heapq.heappop(heap)
            pocket.alive = self._learn(pocket, c, c_rho)
            pocket.key, pocket.rho, pocket.solved = c, c_rho, False
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
    arcs at the radius floor is a pocket; a placement makes new pockets
    only from the gaps it cuts.  The pocket with the largest bound is
    solved when it reaches the top of the heap: ``_shut_radius``
    brackets the radius at which its disks shut it below the last
    radius to ``1e-14 * delta``, unless it is still open there.  The
    probe must accept the top's radius and gives the free arcs for the
    angle; when it rejects it, the pocket learns the disks whose arcs
    reached its gap and is solved again below that radius.  The build
    stops at the radius floor when no pocket is left.
    The probe's own verdict flips back and forth within a few
    ``1e-13 * delta`` above the shut radius, from the rounding of the
    center distance and of the arc ends; a disk larger by one part in
    1e9 is blocked at every angle.  So the probe at radius c reads
    only the pockets whose keys are at least c - 1e-9 * delta, and in
    each radius class only the disks within a bound on the class's
    half-width of their pieces; its gaps, and so the packing, are those
    of a probe that reads every placed disk.  The cost of a placement
    then hardly grows with the number of disks placed.
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
        r, rho, (gap_starts, gap_ends) = fit
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
        pockets.add(rho, angle, r, r)
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
