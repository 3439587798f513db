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

import bisect
import heapq
import itertools
import math
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
    side = 0
    while b - a > tol:
        c = b - fb * (b - a) / (fb - fa)
        # at least half the tolerance inside, so the bracket shrinks
        c = min(max(c, a + 0.5 * tol), b - 0.5 * tol)
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
    """Center distances of the radii solved so far in one build, sorted
    by radius.  The distance depends on the radius alone, so each new
    overlap solve starts at the distance interpolated between the solved
    radii on either side, and a radius solved before is not solved
    again.  Call it with a radius between the least and the greatest
    given at construction, which are solved from the midpoint start."""

    def __init__(self, eps: float, *radii: float):
        self._eps = eps
        self._radii = sorted(radii)
        self._rhos = [center_distance_for_overlap(r, 1.0, eps, 2) for r in self._radii]

    def _between(self, k: int, r: float) -> float:
        """The distance interpolated at r between the solved radii k - 1
        and k."""
        radii, rhos = self._radii, self._rhos
        a, b, rho_a, rho_b = radii[k - 1], radii[k], rhos[k - 1], rhos[k]
        return rho_a + (r - a) * ((rho_b - rho_a) / (b - a))

    def estimate(self, r: float) -> float:
        """The distance of r if it was solved, else the start its solve
        takes: the interpolation between the solved radii on either side."""
        k = bisect.bisect_left(self._radii, r)
        return self._rhos[k] if self._radii[k] == r else self._between(k, r)

    def __call__(self, r: float) -> float:
        k = bisect.bisect_left(self._radii, r)
        if self._radii[k] == r:
            return self._rhos[k]
        rho = _overlap_distance(r, 1.0, self._eps, 2, self._between(k, r))
        self._radii.insert(k, r)
        self._rhos.insert(k, rho)
        return rho


def _arc(disk, rho: float, r: float) -> tuple[float, float, float] | None:
    """The arc that one placed disk, given as its column of
    ``_PocketQueue`` (angle, center distance, radius), blocks for a new
    disk of radius r at distance rho, in the floats of the full probe:
    its half-width, start and end, None when it blocks every angle."""
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
    and that of ``right``, each its column of ``_PocketQueue`` (angle,
    center distance, radius), as a function of a new disk's center
    distance rho and radius r: the width from the end of the left arc to
    the start of the right one, at most 0 when they shut the gap, and
    -pi when either arc is the whole circle.

    The width is taken in the floats of the full probe, from the end of
    the left arc (less 2*pi past 2*pi) to the start of the right one, or
    as the sum of the probe's two pieces when the gap runs across
    0 = 2*pi.  So the probe finds the gap exactly when the opening is
    positive, unless the arc of a disk the pocket does not know reaches
    into it.  The angle between the two centers less both half-widths
    tells the cases apart."""
    left_angle, left_dist, left_radius = left
    right_angle, right_dist, right_radius = right
    span = right_angle - left_angle
    if span <= 0.0:
        span += TWO_PI

    def opening(rho: float, r: float) -> float:
        q = _cos_half_angle(left_dist, rho, r + left_radius)
        if q <= -1.0:
            return -math.pi
        h_left = float(np.arccos(q))
        q = _cos_half_angle(right_dist, rho, r + right_radius)
        if q <= -1.0:
            return -math.pi
        h_right = float(np.arccos(q))
        end = left_angle - h_left
        if end < 0.0:
            end += TWO_PI
        end += 2.0 * h_left
        if end > TWO_PI:
            end -= TWO_PI
        start = right_angle - h_right
        if start < 0.0:
            start += TWO_PI
        approx = span - h_left - h_right
        gap = start - end
        if gap < approx - math.pi:
            gap = (TWO_PI - end) + start
        elif gap > approx + math.pi:
            # the arcs overlap across 0 = 2*pi
            gap = approx
        return gap

    return opening


class _Pocket:
    """A gap at the radius floor and ``key``, an upper bound on the radius
    it can take.

    ``left`` lists the placed disks (columns of ``_PocketQueue``) whose
    arcs close the gap from its start, ``right`` those that close it from
    its end.  Each starts with the disk whose arc bounds the gap at the
    floor on that side (None for the whole circle before the first
    placement, solved from the start), and ``_PocketQueue`` adds the
    disks whose arcs the probe finds in the gap at a radius it rejects.
    Radii never grow, so until the pocket is ``solved`` the radius of the
    placement that made it, or the rejected radius at center distance
    ``rho``, is one; then it is the radius at which ``opening`` shuts the
    pocket, or the last radius while the pocket was still open there, at
    distance ``rho``.  A placement that cuts the gap retires the
    pocket."""

    __slots__ = ("left", "right", "key", "rho", "solved", "alive")

    def __init__(self, left, right, key: float):
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


class _PocketQueue:
    """The state of a packing: its placed small disks, the free arcs at
    the radius floor and the pockets they make, in a heap by
    ``_Pocket.key``.  It is the packing's only radius search, which ends
    when the heap is empty.

    The disks are kept in polar form, sorted by angle: one column per
    disk of angle, center distance and radius.  Each blocked arc of a
    probe holds its disk's angle, so in that order the probe finds the
    gaps between the arcs with two running extremes and no sort.

    The free arcs at the floor are kept as disjoint pieces of [0, 2*pi],
    sorted, in the floats of ``gaps`` at the floor: each placement takes
    its own arc out of them, and only the pieces it cuts get new
    pockets.  Each piece knows the disks whose arcs bound it, None at 0
    and 2*pi; the piece ending at 2*pi and the one starting at 0 make
    one pocket.  ``distances`` is a ``_Distances`` of the build, and the
    shut radii are bracketed to width ``tol``.
    """

    def __init__(self, floor: float, distances, tol: float):
        # ``_disks`` views the filled columns of a buffer whose capacity
        # doubles when full
        self._buffer = np.empty((3, 16))
        self._disks = self._buffer[:, :0]
        self._floor, self._floor_rho = floor, distances(floor)
        self._distances, self._tol = distances, tol
        whole = _Pocket(None, None, math.inf)
        whole.solved = True
        # pieces: [start, end, left disk, right disk, pocket]
        self._starts, self._pieces = [0.0], [[0.0, TWO_PI, None, None, whole]]
        self._heap, self._pushed = [], 0
        self._push(whole)

    def _push(self, pocket: _Pocket) -> None:
        # among equal keys a solved pocket comes first
        self._pushed += 1
        heapq.heappush(self._heap, (-pocket.key, not pocket.solved, self._pushed, pocket))

    def _pocket(self, key: float, *pieces) -> None:
        pocket = _Pocket(pieces[0][2], pieces[-1][3], key)
        for piece in pieces:
            piece[4] = pocket
        self._push(pocket)

    def gaps(self, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
        """The free arcs for a new disk of radius r at distance rho, empty
        when it fits nowhere: the full probe that accepts every
        placement.  Its gaps run from the greatest end of the arcs before
        them to the least start of the arcs after, in the floats of
        ``geometry._arc_ends`` and ``geometry._split_arcs`` (no arc
        starts at -0.0, since every half-width is positive)."""
        angle, dist, radius = self._disks
        q = _cos_half_angle(dist, rho, r + radius)
        if q.size and q.min() <= -1.0:
            return np.empty(0), np.empty(0)
        # Every small disk straddles the unit circle, so
        # |rho - dist_j| < r + r_j, which is q < 1: arccos needs no clip,
        # and each half-width is at least arccos(1 - 2**-53) > 1.4e-8.
        h = np.arccos(q)
        lo = angle - h
        lo[lo < 0.0] += TWO_PI
        hi = lo + 2.0 * h
        over = hi > TWO_PI
        inside = ~over
        # An arc inside [0, 2*pi] holds its center angle, so in the angle
        # order of the store every arc before a gap ends before it and
        # every arc after starts after it.  The arcs past 2*pi make one
        # piece [0, max] of their parts past 2*pi and one [min, 2*pi].
        starts = np.concatenate(([0.0], lo[inside], [lo[over].min(initial=TWO_PI)]))
        ends = np.concatenate(([hi[over].max(initial=TWO_PI) - TWO_PI], hi[inside], [TWO_PI]))
        reach = np.maximum.accumulate(ends)[:-1]
        next_start = np.minimum.accumulate(starts[::-1])[-2::-1]
        gap = reach < next_start
        return reach[gap], next_start[gap]

    def add(self, rho: float, angle: float, r: float, key: float) -> None:
        """Place a disk of radius r at distance rho and ``angle``: insert
        its column, and take its floor arc out of the pieces; the pockets
        of the pieces it cuts get the upper bound ``key``."""
        n = self._disks.shape[1]
        if n == self._buffer.shape[1]:
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)], axis=1)
        k = int(np.searchsorted(self._disks[0], angle))
        self._buffer[:, k + 1 : n + 1] = self._buffer[:, k:n]
        disk = (angle, rho, r)
        self._buffer[:, k] = disk
        self._disks = self._buffer[:, : n + 1]
        arc = _arc(disk, self._floor_rho, self._floor)
        if arc is None:
            segments = [(0.0, TWO_PI)]
        else:
            # the segments of _split_arcs
            _, lo, hi = arc
            segments = [(lo, TWO_PI), (0.0, hi - TWO_PI)] if hi > TWO_PI else [(lo, hi)]
        starts, pieces, new = self._starts, self._pieces, []
        for s, e in segments:
            i = bisect.bisect_right(starts, s) - 1
            if i < 0 or pieces[i][1] <= s:
                i += 1
            j, kept = i, []
            while j < len(pieces) and pieces[j][0] < e:
                piece = pieces[j]
                g0, g1, left, right, pocket = piece
                if pocket:
                    pocket.alive = False
                # a cut piece keeps no pocket; below, the new pieces that
                # no segment cut again (pocket None) get one
                piece[4] = False
                if s > g0:
                    kept.append([g0, s, left, disk, None])
                if g1 > e:
                    kept.append([e, g1, disk, right, None])
                j += 1
            pieces[i:j] = kept
            starts[i:j] = [piece[0] for piece in kept]
            new += kept
        if pieces and arc is not None:
            # an arc that ends at exactly 2*pi, or starts at exactly 0,
            # also bounds the piece across 0 = 2*pi from the other side,
            # which then has no partner piece
            first, last = pieces[0], pieces[-1]
            if hi == TWO_PI and first[2] is None:
                first[2], first[4] = disk, None
                new.append(first)
            if lo == 0.0 and last[3] is None:
                last[3], last[4] = disk, None
                new.append(last)
        for piece in new:
            if piece[4] is None and piece[2] is not None and piece[3] is not None:
                self._pocket(key, piece)
        if pieces:
            last, first = pieces[-1], pieces[0]
            if last[3] is None and first[2] is None and not (last[4] and last[4].alive):
                self._pocket(key, last, first)

    def _learn(self, pocket: _Pocket, r: float, rho: float) -> bool:
        """Add to the pocket the placed disks it does not know whose
        arcs, for a new disk of radius r at distance rho, reach its gap at
        the floor: to ``left`` when the disk's center lies before the
        gap's midpoint, to ``right`` when after.  False when there is
        none."""
        floor, floor_rho = self._floor, self._floor_rho
        start = _arc(pocket.left[0], floor_rho, floor)[2]
        width = (_arc(pocket.right[0], floor_rho, floor)[1] - start) % TWO_PI
        angle, dist, radius = self._disks
        # at q <= -1 the arc is the whole circle
        h = np.arccos(np.maximum(_cos_half_angle(dist, rho, r + radius), -1.0))
        # each arc's start, measured from the start of the gap
        lo = (angle - h - start) % TWO_PI
        reach = (lo < width) | (lo + 2.0 * h > TWO_PI)
        known = set(pocket.left + pocket.right)
        learned = False
        for disk in map(tuple, self._disks[:, reach].T.tolist()):
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
        at the floor too, which only rounding across 0 = 2*pi can do."""
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
        capped at r, is the radius, which the full probe must accept.
        When the probe rejects it, the arc of a disk the pocket does not
        know has reached its gap first: the pocket learns those disks
        and goes back unsolved under the rejected radius, to be solved
        below it.  A pocket with nothing to learn is retired, so each
        pocket is rejected at most once per placed disk."""
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

    Disk 0 is the closed unit disk at the origin.  Each further disk is
    placed at the largest admissible radius ``r`` (at most ``delta``,
    never above the previous radius): its center distance is tuned so
    the lens with the unit disk is exactly ``eps`` times its own area,
    and its angle is drawn uniformly from the set of angles where it
    stays disjoint from all previously placed small disks.

    The radius comes from ``_PocketQueue``.  Each gap between two disks'
    arcs at the radius floor is a pocket; a placement makes new pockets
    only from the gaps it cuts.  The pocket with the largest bound is
    solved when it reaches the top of the heap: ``_shut_radius``
    brackets the radius at which its disks shut it below the last
    radius to ``1e-14 * delta``, unless it is still open there.  The
    full probe must accept the top's radius and gives the free arcs for
    the angle; when it rejects it, the pocket learns the disks whose
    arcs reached its gap and is solved again below that radius.  The
    build stops at the radius floor when no pocket is left.
    The probe's own verdict flips back and forth within a few
    ``1e-13 * delta`` above the shut radius, from the rounding of the
    center distance and of the arc ends; a disk larger by one part in
    1e9 is blocked at every angle.
    """
    if not isinstance(cfg, SurroundedBallConfig):
        raise TypeError("cfg must be a SurroundedBallConfig")
    rng = np.random.default_rng(cfg.seed % 2**63)
    centers, radii = [(0.0, 0.0)], [1.0]
    floor = cfg.delta * 1e-3
    distances = _Distances(cfg.eps, floor, cfg.delta)
    pockets = _PocketQueue(floor, distances, 1e-14 * cfg.delta)
    r, rho = cfg.delta, distances(cfg.delta)
    stop = "n_max"
    for _ in range(int(cfg.n_max)):
        fit = pockets.largest_fit(r, rho)
        if fit is None:
            stop = "radius floor"
            break
        r, rho, (gap_starts, gap_ends) = fit
        widths = gap_ends - gap_starts
        total = float(widths.sum())
        u = min(rng.uniform(0.0, total), math.nextafter(total, 0.0))
        # the sums in order, as np.cumsum adds them
        offsets = list(itertools.accumulate(widths.tolist(), initial=0.0))
        slot = min(bisect.bisect_right(offsets, u), widths.size) - 1
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
