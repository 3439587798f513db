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

    def pockets(self, rho: float, r: float, gap_starts, gap_ends) -> _Pockets:
        """The pockets of the free arcs that ``gaps(rho, r)`` returned.

        A gap opens where the arc of its left disk ends and closes where
        the arc of its right disk starts.  Both are looked up cyclically,
        in the floats of ``gaps`` (arc ends past 2*pi less 2*pi), the last
        end at or before the gap's start and the first start at or after
        its end, so the two pieces of a gap across 0 = 2*pi name the same
        pair.  Each pocket keeps its span, the angle from the left disk's
        center to the right one's: its width at this probe plus the two
        halfwidths of this probe."""
        halfwidths = _halfwidths(self._disks[1:], rho, r)
        lo, end = _arc_ends(self._disks[0], halfwidths)
        end = np.where(end > TWO_PI, end - TWO_PI, end)
        by_end, by_lo = np.argsort(end), np.argsort(lo)
        left = by_end[np.searchsorted(end[by_end], gap_starts, side="right") - 1]
        right = by_lo[np.searchsorted(lo[by_lo], gap_ends) % lo.size]
        width = lo[right] - end[left]
        width = np.where(width > 0.0, width, width + TWO_PI)
        return _Pockets(
            self._disks[1:, np.concatenate([left, right])],
            width + halfwidths[left] + halfwidths[right],
        )

    def add(self, rho: float, angle: float, r: float) -> None:
        n = self._disks.shape[1]
        if n == self._buffer.shape[1]:
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)], axis=1)
        k = int(np.searchsorted(self._disks[0], angle))
        self._buffer[:, k + 1 : n + 1] = self._buffer[:, k:n]
        self._buffer[:, k] = (angle, rho, rho * rho, r)
        self._disks = self._buffer[:, : n + 1]


@dataclass(frozen=True)
class _Pockets:
    """Pockets of one probe: ``disks`` holds the center distance, its
    square and the radius of the left bounding disks, then those of the
    right ones; ``span`` is the angle from each pocket's left center to
    its right one."""

    disks: np.ndarray
    span: np.ndarray

    def opening(self, rho: float, r: float) -> float:
        """Width of the widest pocket for a new disk of radius r at
        distance rho, at most 0 when all are shut: each span less the
        halfwidths of its two disks.  The centers do not move, so this
        needs no arc ends and no unwrap across 0 = 2*pi."""
        halfwidths = _halfwidths(self.disks, rho, r)
        if halfwidths is None:
            return -math.pi
        k = self.span.size
        return float((self.span - halfwidths[:k] - halfwidths[k:]).max())


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


def _largest_fit(state, distance, lo, lo_rho, lo_gaps, hi, hi_rho, tol):
    """A radius in [lo, hi) that the full probe accepts, less than tol
    below the radius at which its pockets all shut, with its center
    distance and free arcs.  The probe accepts lo, with free arcs
    ``lo_gaps``, and rejects hi.

    This is the search from scratch, kept as the fallback of
    ``_PocketQueue``: each round takes every pocket of the last accepted
    probe (``_PackingState.pockets``) and brackets the root of their
    widest opening by ``_secant``.  The probe must accept the root's
    lower end, or it becomes the new top.  When the pockets stay open at
    the top, an arc they do not know grew into them, or the openings and
    the probe disagree by rounding, and the probe halves the bracket
    instead: at worst this is a bisection on the probe.

    ``distance(r)`` is the center distance of radius r.
    """
    while hi - lo > tol:
        pockets = state.pockets(lo_rho, lo, *lo_gaps)
        fa, fb = pockets.opening(lo_rho, lo), pockets.opening(hi_rho, hi)
        if fa > 0.0 >= fb:
            a, a_rho, b, b_rho = _secant(
                pockets.opening, distance, lo, lo_rho, fa, hi, hi_rho, fb, tol
            )
        else:
            a, b, b_rho = 0.5 * (lo + hi), hi, hi_rho
            a_rho = distance(a)
        found = state.gaps(a_rho, a)
        if found[1].size:
            lo, lo_rho, lo_gaps = a, a_rho, found
            hi, hi_rho = b, b_rho
        else:
            hi, hi_rho = a, a_rho
    return lo, lo_rho, lo_gaps


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
    """A gap at the radius floor between the arcs of two placed disks,
    ``left`` and ``right`` (columns of ``_PackingState``; both None for
    the whole circle before the first placement, solved from the start),
    and ``key``, an upper bound on the radius it can take.  Radii never
    grow, so until the pocket is ``solved`` the radius of the placement
    that made it is one; then it is the radius at which the pocket
    shuts, or the last radius while the pocket was still open there, at
    center distance ``rho``.  A placement that cuts the gap retires the
    pocket."""

    __slots__ = ("left", "right", "key", "rho", "solved", "alive")

    def __init__(self, left, right, key: float):
        self.left, self.right, self.key = left, right, key
        self.rho, self.solved, self.alive = math.nan, False, True

    def opening(self, rho: float, r: float) -> float:
        """Width of the gap between the two disks' arcs for a new disk of
        radius r at distance rho, at most 0 when it is shut.

        It is taken in the floats of the probe, from the end of the left
        arc (less 2*pi past 2*pi) to the start of the right one, or as the
        sum of the probe's two pieces when the gap runs across 0 = 2*pi.
        So the probe finds the gap exactly when the opening is positive,
        unless the arc of a third disk reaches into it.  The angle between
        the two centers less both half-widths tells the cases apart."""
        left, right = self.left, self.right
        arc_left, arc_right = _arc(left, rho, r), _arc(right, rho, r)
        if arc_left is None or arc_right is None:
            return -math.pi
        (h_left, _, end), (h_right, start, _) = arc_left, arc_right
        span = right[0] - left[0]
        approx = (span if span > 0.0 else span + TWO_PI) - h_left - h_right
        if end > TWO_PI:
            end -= TWO_PI
        width = start - end
        if width < approx - math.pi:
            return (TWO_PI - end) + start
        # the arcs overlap across 0 = 2*pi when width > approx + pi
        return width if width <= approx + math.pi else approx


class _PocketQueue:
    """The pockets of a packing, in a heap by ``_Pocket.key``, and the
    free arcs at the radius floor they come from.

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
        for piece in new:
            if piece[4] is None and piece[2] is not None and piece[3] is not None:
                self._pocket(key, piece)
        if pieces:
            last, first = pieces[-1], pieces[0]
            if last[3] is None and first[2] is None and not (last[4] and last[4].alive):
                self._pocket(key, last, first)
            # A gap with an end at exactly 0 = 2*pi has no partner piece
            # and no pocket; the floor probe of ``largest_fit`` finds it.

    def _solve(self, pocket: _Pocket, r: float, rho: float) -> bool:
        """Make ``pocket.key`` the radius at which the pocket shuts below
        the last radius r, at distance rho, or r itself while the pocket
        is open there; False, and the pocket retired, when it is shut at
        the floor too, which only rounding across 0 = 2*pi can do."""
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

    def _fallback(self, state, hi: float, hi_rho: float):
        """``_largest_fit`` below a radius the probe rejects, None when
        nothing fits at the floor."""
        floor, floor_rho = self._floor, self._floor_rho
        floor_gaps = state.gaps(floor_rho, floor)
        if floor_gaps[1].size == 0:
            return None
        return _largest_fit(
            state, self._distances, floor, floor_rho, floor_gaps, hi, hi_rho, self._tol
        )

    def largest_fit(self, state, r: float, rho: float):
        """The largest radius at most r, up to the tolerance, that fits
        in ``state``, with its center distance and free arcs; None when
        nothing fits at the floor.  r is the last radius placed, at
        distance rho.

        Pockets come off the heap until the top one is solved; its key,
        capped at r, is the radius, which the full probe must accept.
        When the probe rejects it, ``_largest_fit`` searches below it
        instead, and the pocket keeps the radius found as its key, so
        the rejected root never comes back above it."""
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
            fit = self._fallback(state, c, c_rho)
            if fit is not None:
                heapq.heappop(heap)
                pocket.key, pocket.rho = fit[0], fit[1]
                self._push(pocket)
            return fit
        # no pocket left: a gap at the floor that the pieces missed by
        # rounding still gets its disk
        return self._fallback(state, r, rho)


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
    brackets the radius at which its two disks shut it below the last
    radius to ``1e-14 * delta``, unless it is still open there.  The full probe must
    accept the top's radius and gives the free arcs for the angle; when
    it rejects it, ``_largest_fit`` searches from the floor instead.
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
