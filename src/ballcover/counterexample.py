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


def _largest_fit(state, distance, lo, lo_rho, lo_gaps, hi, hi_rho, tol):
    """A radius in [lo, hi) that the full probe accepts, less than tol
    below the radius at which its pockets all shut, with its center
    distance and free arcs.  The probe accepts lo, with free arcs
    ``lo_gaps``, and rejects hi.

    The pockets of the last accepted probe all shut at the root of
    ``_Pockets.opening`` in the radius, found by a bracketed secant with
    the Illinois halving, one overlap solve per trial radius.  The probe
    must accept the root's lower end, or it becomes the new top.  When
    the pockets stay open at the top, an arc they do not know grew into
    them, and the probe halves the bracket instead: at worst this is a
    bisection on the probe.

    ``distance(r, a, rho_a, b, rho_b)`` is the center distance of radius
    r, a trial inside a bracket whose ends a and b have the distances
    rho_a and rho_b: the overlap solve starts near its root, between them.
    """
    while hi - lo > tol:
        pockets = state.pockets(lo_rho, lo, *lo_gaps)
        a, a_rho, fa = lo, lo_rho, pockets.opening(lo_rho, lo)
        b, b_rho, fb = hi, hi_rho, pockets.opening(hi_rho, hi)
        if fa > 0.0 >= fb:
            side = 0
            while b - a > tol:
                c = b - fb * (b - a) / (fb - fa)
                # at least half the tolerance inside, so the bracket shrinks
                c = min(max(c, a + 0.5 * tol), b - 0.5 * tol)
                c_rho = distance(c, a, a_rho, b, b_rho)
                fc = pockets.opening(c_rho, c)
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
        else:
            a = 0.5 * (lo + hi)
            a_rho = distance(a, lo, lo_rho, hi, hi_rho)
        found = state.gaps(a_rho, a)
        if found[1].size:
            lo, lo_rho, lo_gaps = a, a_rho, found
            hi, hi_rho = b, b_rho
        else:
            hi, hi_rho = a, a_rho
    return lo, lo_rho, lo_gaps


def build_surrounded_ball_detailed(cfg: SurroundedBallConfig) -> tuple[BallCollection, str]:
    """Greedy packing of small disks around the unit disk, and why it
    stopped: ``"n_max"`` after ``n_max`` small disks, ``"radius floor"``
    when even radius ``delta * 1e-3`` no longer fits anywhere.

    Disk 0 is the closed unit disk at the origin.  Each further disk is
    placed at the largest admissible radius ``r`` (at most ``delta``,
    never above the previous radius): its center distance is tuned so
    the lens with the unit disk is exactly ``eps`` times its own area,
    and its angle is drawn uniformly from the set of angles where it
    stays disjoint from all previously placed small disks.  When the
    previous radius no longer fits, the radius is the largest one that
    fits, up to rounding: ``_largest_fit`` brackets the radius at which
    the last free pocket shuts to ``1e-14 * delta``, and the full probe
    must accept it.  The probe's own verdict flips back and forth within
    a few ``1e-13 * delta`` above that radius, from the rounding of the
    center distance and of the arc ends; a disk larger by one part in
    1e9 is blocked at every angle.
    """
    if not isinstance(cfg, SurroundedBallConfig):
        raise TypeError("cfg must be a SurroundedBallConfig")
    rng = np.random.default_rng(cfg.seed % 2**63)
    state = _PackingState()
    centers, radii = [(0.0, 0.0)], [1.0]

    def distance(r: float, a: float, rho_a: float, b: float, rho_b: float) -> float:
        start = _interpolated_start(r, a, rho_a, b, rho_b)
        return _overlap_distance(r, 1.0, cfg.eps, 2, start)

    floor = cfg.delta * 1e-3
    floor_rho = center_distance_for_overlap(floor, 1.0, cfg.eps, 2)
    # the radius never grows, so each placement first tries the last one
    r, rho = cfg.delta, center_distance_for_overlap(cfg.delta, 1.0, cfg.eps, 2)
    stop = "n_max"
    for _ in range(int(cfg.n_max)):
        gap_starts, gap_ends = state.gaps(rho, r)
        if gap_ends.size == 0:
            floor_gaps = state.gaps(floor_rho, floor)
            if floor_gaps[1].size == 0:
                stop = "radius floor"
                break
            r, rho, (gap_starts, gap_ends) = _largest_fit(
                state, distance, floor, floor_rho, floor_gaps, r, rho, 1e-14 * cfg.delta
            )
        widths = gap_ends - gap_starts
        total = float(widths.sum())
        offsets = np.concatenate(([0.0], np.cumsum(widths)))
        u = min(rng.uniform(0.0, total), np.nextafter(total, 0.0))
        slot = int(np.searchsorted(offsets, u, side="right")) - 1
        slot = min(max(slot, 0), widths.size - 1)
        angle = float(gap_starts[slot] + (u - offsets[slot])) % TWO_PI
        state.add(rho, angle, r)
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
