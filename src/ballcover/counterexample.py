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
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    BallCollection,
    _arc_ends,
    _interpolated_start,
    _overlap_distance,
    _split_arcs,
    _uncovered_arcs,
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


def _halfwidths(disks: np.ndarray, rho: float, r: float) -> np.ndarray | None:
    """Half-widths of the angles where a new disk of radius r at distance
    rho would meet the placed disks whose center distance, its square and
    radius are the rows of ``disks``; None when one of them blocks every
    angle."""
    dist, dist2, radius = disks
    # overlap with disk j iff the center distance is below r + r_j,
    # i.e. cos(angle difference) > q_j
    q = (rho * rho + dist2 - (r + radius) ** 2) / (2.0 * rho * dist)
    if q.size and q.min() <= -1.0:
        return None
    # Every small disk straddles the unit circle, so
    # |rho - dist_j| < r + r_j, which is q < 1: arccos needs no clip.
    return np.arccos(q)


class _PackingState:
    """Mutable state of the greedy packing: the placed small disks in
    polar form, kept sorted by angle.

    In angle order the blocked arcs of a probe come out nearly sorted by
    start, which the stable sort of ``union_components`` passes through
    in about linear time; the union itself does not depend on the order.
    """

    def __init__(self):
        # one column per placed disk: angle, center distance, its square
        # and radius; ``_disks`` views the filled columns of a buffer
        # whose capacity doubles when full
        self._buffer = np.empty((4, 16))
        self._disks = self._buffer[:, :0]

    def gaps(self, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
        """The free arcs for a new disk of radius r at distance rho, empty
        when it fits nowhere: the full probe that accepts every
        placement."""
        halfwidths = _halfwidths(self._disks[1:], rho, r)
        if halfwidths is None:
            return np.empty(0), np.empty(0)
        return _uncovered_arcs(*_split_arcs(*_arc_ends(self._disks[0], halfwidths)))

    def add(self, rho: float, angle: float, r: float) -> None:
        n = self._disks.shape[1]
        if n == self._buffer.shape[1]:
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)], axis=1)
        k = int(np.searchsorted(self._disks[0], angle))
        self._buffer[:, k + 1 : n + 1] = self._buffer[:, k:n]
        self._buffer[:, k] = (angle, rho, rho * rho, r)
        self._disks = self._buffer[:, : n + 1]


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

    def estimate(self, r: float) -> float:
        """The distance of r if it was solved, else the start its solve
        takes: the interpolation between the solved radii on either side."""
        radii, rhos = self._radii, self._rhos
        k = bisect.bisect_left(radii, r)
        if radii[k] == r:
            return rhos[k]
        return _interpolated_start(r, radii[k - 1], rhos[k - 1], radii[k], rhos[k])

    def __call__(self, r: float) -> float:
        start = self.estimate(r)
        k = bisect.bisect_left(self._radii, r)
        if self._radii[k] == r:
            return start
        rho = _overlap_distance(r, 1.0, self._eps, 2, start)
        self._radii.insert(k, r)
        self._rhos.insert(k, rho)
        return rho


def _arc(disk, rho: float, r: float) -> tuple[float, float, float] | None:
    """``_halfwidths`` and ``_arc_ends`` of one placed disk, given as its
    column of ``_PackingState`` (angle, center distance, its square,
    radius), in the same floats: the half-width, start and end of its
    arc, None when it blocks every angle."""
    angle, dist, dist2, radius = disk
    q = (rho * rho + dist2 - (r + radius) * (r + radius)) / (2.0 * rho * dist)
    if q <= -1.0:
        return None
    h = float(np.arccos(q))
    lo = angle - h
    lo = (lo + TWO_PI if lo < 0.0 else lo) + 0.0
    return h, lo, lo + 2.0 * h


class _Pocket:
    """A gap at the radius floor and ``key``, an upper bound on the radius
    it can take.

    ``left`` lists the placed disks (columns of ``_PackingState``) whose
    arcs close the gap from its start, ``right`` those that close it from
    its end.  Each starts with the disk whose arc bounds the gap at the
    floor on that side (None for the whole circle before the first
    placement, solved from the start), and ``_PocketQueue`` adds the
    disks whose arcs the probe finds in the gap at a radius it rejects.
    Radii never grow, so until the pocket is ``solved`` the radius of the
    placement that made it, or the rejected radius at center distance
    ``rho``, is one; then it is the radius at which the pocket shuts, or
    the last radius while the pocket was still open there, at distance
    ``rho``.  A placement that cuts the gap retires the pocket."""

    __slots__ = ("left", "right", "key", "rho", "solved", "alive")

    def __init__(self, left, right, key: float):
        self.left, self.right, self.key = [left], [right], key
        self.rho, self.solved, self.alive = math.nan, False, True

    def opening(self, rho: float, r: float) -> float:
        """Width of the gap for a new disk of radius r at distance rho, at
        most 0 when it is shut: the least over the (left, right) pairs of
        disks of the width from the end of the left one's arc to the
        start of the right one's.

        Each width is taken in the floats of the probe, from the end of
        the left arc (less 2*pi past 2*pi) to the start of the right one,
        or as the sum of the probe's two pieces when the gap runs across
        0 = 2*pi.  So the probe finds the gap exactly when the opening is
        positive, unless the arc of a disk the pocket does not know
        reaches into it.  The angle between the two centers less both
        half-widths tells the cases apart."""
        width = math.inf
        for left in self.left:
            arc_left = _arc(left, rho, r)
            for right in self.right:
                arc_right = _arc(right, rho, r)
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
                    # the arcs overlap across 0 = 2*pi
                    gap = approx
                if gap < width:
                    width = gap
        return width


class _PocketQueue:
    """The pockets of a packing, in a heap by ``_Pocket.key``, and the
    free arcs at the radius floor they come from: the packing's only
    radius search, which ends when the heap is empty.

    The free arcs at the floor are kept as disjoint pieces of [0, 2*pi],
    sorted, in the floats of ``_PackingState.gaps`` at the floor: each
    placement takes its own arc out of them, and only the pieces it cuts
    get new pockets.  Each piece knows the disks whose arcs bound it,
    None at 0 and 2*pi; the piece ending at 2*pi and the one starting at
    0 make one pocket.  ``distances`` is a ``_Distances`` of the build,
    and the shut radii are bracketed to width ``tol``.
    """

    def __init__(self, floor: float, distances, tol: float):
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

    def add(self, disk, key: float) -> None:
        """Take the floor arc of a new disk, a column of
        ``_PackingState``, out of the pieces; the pockets of the pieces
        it cuts get the upper bound ``key``."""
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

    def _learn(self, pocket: _Pocket, state, r: float, rho: float) -> bool:
        """Add to the pocket the disks of ``state`` it does not know whose
        arcs, for a new disk of radius r at distance rho, reach its gap at
        the floor: to ``left`` when the disk's center lies before the
        gap's midpoint, to ``right`` when after.  False when there is
        none."""
        floor, floor_rho = self._floor, self._floor_rho
        start = _arc(pocket.left[0], floor_rho, floor)[2]
        width = (_arc(pocket.right[0], floor_rho, floor)[1] - start) % TWO_PI
        angle, dist, dist2, radius = state._disks
        q = (rho * rho + dist2 - (r + radius) ** 2) / (2.0 * rho * dist)
        # at q <= -1 the arc is the whole circle
        h = np.arccos(np.maximum(q, -1.0))
        # each arc's start, measured from the start of the gap
        lo = (angle - h - start) % TWO_PI
        reach = (lo < width) | (lo + 2.0 * h > TWO_PI)
        known = {tuple(disk) for disk in pocket.left + pocket.right}
        learned = False
        for disk in map(tuple, state._disks[:, reach].T.tolist()):
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
        fb = pocket.opening(rho, r)
        if fb > 0.0:
            pocket.key, pocket.rho = r, rho
        else:
            floor, floor_rho = self._floor, self._floor_rho
            fa = pocket.opening(floor_rho, floor)
            if fa <= 0.0:
                pocket.alive = False
                return False
            pocket.key, pocket.rho = _shut_radius(
                pocket.opening, self._distances, floor, floor_rho, fa, r, rho, fb, self._tol
            )
        pocket.solved = True
        return True

    def largest_fit(self, state, r: float, rho: float):
        """The largest radius at most r, up to the tolerance, that fits
        in ``state``, with its center distance and free arcs; None when
        no pocket is left.  r is the last radius placed, at distance rho.

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
            found = state.gaps(c_rho, c)
            if found[1].size:
                return c, c_rho, found
            heapq.heappop(heap)
            pocket.alive = self._learn(pocket, state, c, c_rho)
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
    state = _PackingState()
    centers, radii = [(0.0, 0.0)], [1.0]
    floor = cfg.delta * 1e-3
    distances = _Distances(cfg.eps, floor, cfg.delta)
    pockets = _PocketQueue(floor, distances, 1e-14 * cfg.delta)
    r, rho = cfg.delta, distances(cfg.delta)
    stop = "n_max"
    for _ in range(int(cfg.n_max)):
        fit = pockets.largest_fit(state, r, rho)
        if fit is None:
            stop = "radius floor"
            break
        r, rho, (gap_starts, gap_ends) = fit
        widths = gap_ends - gap_starts
        total = float(widths.sum())
        offsets = np.concatenate(([0.0], np.cumsum(widths)))
        u = min(rng.uniform(0.0, total), np.nextafter(total, 0.0))
        slot = int(np.searchsorted(offsets, u, side="right")) - 1
        slot = min(max(slot, 0), widths.size - 1)
        angle = float(gap_starts[slot] + (u - offsets[slot])) % TWO_PI
        state.add(rho, angle, r)
        pockets.add((angle, rho, rho * rho, r), r)
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
