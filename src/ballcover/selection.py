"""Greedy covering selections for finite families of balls.

Every selector runs the one scan ``_largest_first``: it visits the
balls by nonincreasing size (exact maximum, ties broken by input
order), so later choices never exceed earlier ones in radius, and each
choice removes some of the balls left after it.  The selectors differ
only in what a choice removes.  Selections return the chosen indices,
a grouping that assigns every input ball to a chosen one, and where
relevant a partition of the chosen balls into pairwise disjoint
families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DISJOINT_TOL,
    BallCollection,
    _check_float_range,
    _lens_volumes,
    _surface,
    unit_ball_volume,
)


@dataclass
class SelectionResult:
    """Outcome of one selection pass.

    selected: chosen input indices in selection order.
    groups: chosen index -> input indices assigned to it.
    families: optional partition of chosen indices into disjoint classes.
    params: constants the selector committed to.
    """

    selected: list[int]
    groups: dict[int, list[int]]
    families: list[list[int]] | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected indices must be pairwise distinct")


def _largest_first(radii: np.ndarray, removed_by) -> tuple[list[int], np.ndarray]:
    """The greedy scan of every selector: a ball s still left when
    visited is chosen, and removes itself and every still-left ball
    among ``removed_by(s)``, a list of indices.  Returns the chosen
    indices in selection order and, per ball, the chosen ball that
    removed it.  The scan runs on Python ints: a choice removes a few
    balls, and list indexing costs less than numpy's per-call overhead
    at that size."""
    remover = [-1] * len(radii)
    selected: list[int] = []
    for s in np.argsort(-radii, kind="stable").tolist():
        if remover[s] < 0:
            selected.append(s)
            remover[s] = s
            for t in removed_by(s):
                if remover[t] < 0:
                    remover[t] = s
    return selected, np.array(remover, dtype=np.intp)


def _removed_groups(selected: list[int], remover: np.ndarray) -> dict[int, list[int]]:
    """Chosen index -> the inputs its choice removed, ascending."""
    order = np.argsort(remover, kind="stable")
    edges = np.searchsorted(remover[order], np.arange(len(remover) + 1)).tolist()
    order = order.tolist()
    return {s: order[edges[s] : edges[s + 1]] for s in selected}


def _kept_partners(start: np.ndarray, partner: np.ndarray, keep: np.ndarray):
    """The function s -> list of the partners of s whose pair entry
    ``keep`` marks.  The kept entries stay one numpy array, and each
    call turns one slice into a list: a list of every entry would cost
    about 36 bytes an entry against numpy's 8, and is no faster."""
    kept = partner[keep]
    bounds = np.concatenate([[0], np.cumsum(keep)])[start].tolist()
    return lambda s: kept[bounds[s] : bounds[s + 1]].tolist()


def _meets(radii, owner, partner, dist) -> np.ndarray:
    """Per pair entry: do the balls overlap by more than DISJOINT_TOL?"""
    return dist < radii[owner] + radii[partner] - DISJOINT_TOL


def vitali_select(balls: BallCollection) -> SelectionResult:
    """Greedy disjoint subfamily: every input meets a chosen ball at
    least as large, so the five-times enlargements of the chosen balls
    cover the whole union."""
    radii = balls.radii
    start, owner, partner, dist = balls.pairs
    meeting = _kept_partners(start, partner, _meets(radii, owner, partner, dist))
    selected, remover = _largest_first(radii, meeting)
    params = {"enlargement": 5.0, "disjoint_tol": DISJOINT_TOL}
    return SelectionResult(selected, _removed_groups(selected, remover), None, params)


def besicovitch_select(balls: BallCollection) -> SelectionResult:
    """Center-covering selection with bounded overlap.

    Repeatedly choose the largest ball whose center no chosen ball
    contains; every input center then lies in a chosen ball whose
    radius is at least 7/8 of the input radius (with exact maxima the
    chosen ball is at least as large, so the 8/7 slack is free).  The
    chosen balls are colored greedily by the least color unused among
    earlier chosen balls they meet, giving pairwise disjoint families.
    """
    params = {
        "radius_slack": 8.0 / 7.0,
        "coloring": "least-unused-among-earlier",
        "disjoint_tol": DISJOINT_TOL,
    }
    radii = balls.radii
    start, owner, partner, dist = balls.pairs
    covered = _kept_partners(start, partner, dist <= radii[owner])
    selected, remover = _largest_first(radii, covered)
    meeting = _kept_partners(start, partner, _meets(radii, owner, partner, dist))
    colors: dict[int, int] = {}
    for s in selected:
        used = {colors[t] for t in meeting(s) if t in colors}
        c = 1
        while c in used:
            c += 1
        colors[s] = c
    count = max(colors.values(), default=0)
    families = [[s for s in selected if colors[s] == c] for c in range(1, count + 1)]
    return SelectionResult(selected, _removed_groups(selected, remover), families, params)


def perimeter_besicovitch_select(balls: BallCollection) -> SelectionResult:
    """Disjoint family of maximal total perimeter among the Besicovitch
    color classes; the grouping of the full selection is retained."""
    base = besicovitch_select(balls)
    if not base.selected:
        return base
    d, radii = balls.dimension, balls.radii.tolist()
    _check_float_range(balls, d - 1)
    surfaces = [sum(_surface(radii[i], d) for i in fam) for fam in base.families]
    winner = int(np.argmax(surfaces))
    params = dict(base.params)
    params.update(
        {
            "family_surfaces": [float(s) for s in surfaces],
            "winner_family": winner,
            "family_count": len(base.families),
        }
    )
    return SelectionResult(
        list(base.families[winner]), base.groups, base.families, params
    )


# Center distance, in units of the common radius, at which two equal
# balls are forced apart far enough that their 6/7 shrinkings are
# disjoint.  Overlap fractions below the lens fraction at this distance
# guarantee that separation; equal radii are the tight case.
_SEPARATION_FACTOR = 12.0 / 7.0
# Neighbour pairs per block of the lens pass of perimeter_vitali_select,
# which bounds its temporaries.
_LENS_BLOCK = 2**16


def overlap_eps_max(dim: int) -> float:
    """Largest admissible overlap fraction for perimeter_vitali_select.

    Computed as the volume fraction two equal balls share when their
    center distance equals (6/7) times the sum of the radii; below this
    threshold the overlap bound forces the 6/7 shrinkings of all chosen
    balls to be pairwise disjoint.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    lens = float(_lens_volumes(1.0, 1.0, _SEPARATION_FACTOR, dim))
    return lens / unit_ball_volume(dim)


def perimeter_vitali_select(balls: BallCollection, eps: float) -> SelectionResult:
    """Selection with pairwise overlap below eps times the smaller volume.

    A ball stays a candidate while its lens against every chosen ball is
    strictly below (7/8)^d * eps times its own volume; the largest
    candidate is chosen next.  The group of a chosen ball S collects the
    inputs whose lens against S reaches the threshold and whose radius
    is at most (8/7) of S's, so each group stays inside (23/7) S.
    """
    eps = float(eps)
    d = balls.dimension
    eps_cap = overlap_eps_max(d)
    if not 0.0 < eps <= eps_cap:
        raise ValueError(
            f"eps must lie in (0, {eps_cap:.6g}] for dimension {d} so that the "
            "6/7 shrinkings of chosen balls stay disjoint"
        )
    threshold_factor = (7.0 / 8.0) ** d * eps
    params = {
        "eps": eps,
        "eps_max": eps_cap,
        "overlap_threshold_factor": threshold_factor,
        "radius_slack": 8.0 / 7.0,
        "enlargement": 23.0 / 7.0,
        "shrink_factor": 6.0 / 7.0,
        "eps_max_note": (
            "derived here from the equal-radius tight case at center "
            "distance (6/7)(r1+r2); not a quoted constant"
        ),
    }
    _check_float_range(balls, d)
    radii = balls.radii
    volumes = unit_ball_volume(d) * radii**d
    start, owner, partner, dist = balls.pairs
    # Per directed pair (owner, partner): does the partner's lens against
    # the owner reach the threshold, and may it join the owner's group?
    # A ball's lens against itself is its whole volume, above the
    # threshold, so each chosen ball joins its own group.
    hits = np.empty(partner.size, dtype=bool)
    for lo in range(0, partner.size, _LENS_BLOCK):
        pair = slice(lo, lo + _LENS_BLOCK)
        near = partner[pair]
        lens = _lens_volumes(radii[near], radii[owner[pair]], dist[pair], d)
        hits[pair] = lens >= threshold_factor * volumes[near]
    joins = hits & (radii[partner] <= (8.0 / 7.0) * radii[owner])
    selected, _ = _largest_first(radii, _kept_partners(start, partner, hits))
    joined = _kept_partners(start, partner, joins)
    groups = {s: sorted(joined(s) + [s]) for s in selected}
    return SelectionResult(selected, groups, None, params)


def interval_select_1d(balls: BallCollection) -> SelectionResult:
    """Greedy largest-first selection of 1D balls with disjoint closures.

    Ball i is the interval [c_i - r_i, c_i + r_i].  The group of a chosen
    ball S collects the candidates surviving at its selection step whose
    closures meet the closure of S; each group union is an interval (up
    to null sets) inside 5 S.  Each choice tests only a window of the
    intervals sorted by left end: a candidate still left is no longer
    than S, so if it meets S its left end lies in
    [lo_S - 2 r_S - pad, hi_S], with pad = 1e-9 (|lo_S| + r_S) covering
    the rounding of its ends (hi - lo need not equal 2 r in floats).
    """
    if balls.dimension != 1:
        raise ValueError("interval view requires dimension 1")
    _check_float_range(balls, 1)
    params = {"enlargement": 5.0, "closure_rule": "touching closures meet"}
    radii = balls.radii
    lo, hi = balls.centers[:, 0] - radii, balls.centers[:, 0] + radii
    by_lo = np.argsort(lo, kind="stable")
    pad = 1e-9 * (np.abs(lo) + radii)
    first = np.searchsorted(lo[by_lo], lo - 2.0 * radii - pad).tolist()
    last = np.searchsorted(lo[by_lo], hi, side="right").tolist()

    def meeting(s):
        window = by_lo[first[s] : last[s]]
        return window[hi[window] >= lo[s]].tolist()

    selected, remover = _largest_first(radii, meeting)
    return SelectionResult(selected, _removed_groups(selected, remover), None, params)
