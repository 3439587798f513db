"""Uncentered maximal function of a compactly supported step function.

All averages are of |f|, taken over intervals whose closure contains
the point.  For a step function the antiderivative F of |f| is
piecewise linear, and the average over (a, b) is
(F(b) - F(a)) / (b - a).  The variation comparison integrates
superlevel boundary counts in the level variable, one count per gap
between critical levels, which gives var(Mf) exactly.

Level sets follow F. Riesz's rising-sun picture.  With
G(x) = F(x) - level x, the average over (a, b) is at least the level
exactly when G(b) >= G(a), so one pass over G at the breakpoints, with
its prefix minimum and suffix maximum, gives {Mf >= level}.  For a
value c let a(c) be the first x with G(x) <= c and b(c) the last with
G(x) >= c.  The inclusion-maximal intervals of average exactly the
level are the [a(c), b(c)] with a(c) < b(c): G > c left of a(c) and
G < c right of b(c), so every proper superinterval averages below the
level.  The family is infinite in general (c runs through intervals,
both ends sliding through pieces of constant |f|, e.g. the zero
tails), and maximal_intervals returns its minimal chain: the fewest
members whose closures chain across each component of {Mf >= level}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Interval, union_components

# Levels this close (relative) to a critical average are degenerate.
_SKIP_TOL = 1e-9


@dataclass(frozen=True)
class StepFunction:
    """Piecewise constant function: values[i] on (breakpoints[i], breakpoints[i+1]),
    zero outside the support hull."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.breakpoints)
        vs = tuple(float(v) for v in self.values)
        if len(xs) < 2 or len(vs) != len(xs) - 1:
            raise ValueError("need k+1 breakpoints for k >= 1 values")
        if not all(math.isfinite(x) for x in xs):
            raise ValueError("breakpoints must be finite")
        if not all(math.isfinite(v) for v in vs):
            raise ValueError("values must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", vs)

    @property
    def piece_count(self) -> int:
        return len(self.values)

    def abs_function(self) -> "StepFunction":
        return StepFunction(self.breakpoints, tuple(abs(v) for v in self.values))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Breakpoints x, their differences, |values| and the mass of |f|
        left of each breakpoint, read-only: built once, since no level
        changes them."""
        xs = np.asarray(self.breakpoints)
        dx = np.diff(xs)
        vs = np.abs(np.asarray(self.values))
        arrays = xs, dx, vs, np.concatenate([[0.0], np.cumsum(vs * dx)])
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class LevelSetReport:
    """Level-set diagnostics at a single level.

    superlevel_boundary_count counts boundary points of {|f| >= level};
    maximal_boundary_count counts boundary points of the closure union
    of the maximal intervals, which equals {Mf >= level}.
    """

    level: float
    maximal_intervals: tuple[Interval, ...]
    superlevel_boundary_count: int
    maximal_boundary_count: int


@dataclass(frozen=True)
class LevelRecord:
    level: float
    count_maximal: int
    count_function: int
    skipped: bool
    passed: bool


@dataclass(frozen=True)
class VariationReport:
    """Result of maximal_variation_check.  var_mf_lower_bound holds
    var(Mf) itself, up to rounding; the name dates from a certified
    lower bound and stays because readers of the report use it."""

    levels: tuple[LevelRecord, ...]
    var_f: float
    var_mf_lower_bound: float
    passed: bool


def _positive(level) -> float:
    level = float(level)
    if level <= 0.0:
        raise ValueError("level must be positive")
    return level


def _rising_sun(f: StepFunction, level: float):
    """G = F - level x at the breakpoints x, the slope of its linear
    interpolant on each piece, and the prefix minimum and suffix maximum
    of the samples.

    The slopes are |f| - level up to rounding, taken from the samples
    so that G falls on a piece exactly when its samples fall.
    """
    xs, dx, _, prefix = f._arrays
    g = prefix - level * xs
    return (
        xs,
        g,
        np.diff(g) / dx,
        np.minimum.accumulate(g),
        np.maximum.accumulate(g[::-1])[::-1],
    )


def _superlevel_components(f: StepFunction, level: float):
    """Connected components (lo, hi) of {Mf >= level}, sorted, and the
    ``_rising_sun`` arrays they come from.

    A piece where G does not fall (|f| >= level) lies in the set whole.
    On piece i where G falls, a point t is in the set when G(t) > pm_i
    (an interval from some earlier a averages above the level) or
    G(t) < sm_(i+1) (one to some later b does); each holds from one end
    of the piece up to a root.  The zero tails fall at slope -level, with nothing before the
    left one and nothing after the right one.
    """
    sun = xs, g, slope, pm, sm = _rising_sun(f, level)
    left, right = xs[:-1], xs[1:]
    falls = slope < 0
    early = falls & (pm[:-1] < g[:-1])
    late = falls & (sm[1:] > g[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        early_hi = np.minimum(left + (pm[:-1] - g[:-1]) / slope, right)
        late_lo = np.maximum(right + (sm[1:] - g[1:]) / slope, left)
    lo = [left[~falls], left[early], late_lo[late]]
    hi = [right[~falls], early_hi[early], right[late]]
    if sm[0] > g[0]:
        lo.append([xs[0] - (sm[0] - g[0]) / level])
        hi.append([xs[0]])
    if g[-1] > pm[-1]:
        lo.append([xs[-1]])
        hi.append([xs[-1] + (g[-1] - pm[-1]) / level])
    lo, hi = union_components(np.concatenate(lo), np.concatenate(hi))
    # An interval of average >= level meets a piece with |f| >= level,
    # and Mf >= level on all of that piece, so every true component
    # holds a whole such piece.  The others are roundoff slivers, from
    # roots a rounding step past the end of a piece.
    whole = np.zeros(lo.size, dtype=bool)
    whole[np.searchsorted(lo, left[~falls], side="right") - 1] = True
    return lo[whole], hi[whole], sun


def maximal_superlevel(f: StepFunction, level: float) -> list[Interval]:
    """Connected components of {Mf >= level} for a positive level, exact."""
    level = _positive(level)
    lo, hi, _ = _superlevel_components(f, level)
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def _critical_levels(f: StepFunction) -> np.ndarray:
    """Piece values and breakpoint-pair averages: the levels at which
    components of {Mf >= level} can appear, vanish or merge.

    A component holds a whole piece with |f| >= level, and Mf on it is
    at most the largest such value, so components appear and vanish at
    piece values.  Two components merge where the gap between them
    shrinks to a point, a root of G = prefix min meeting a root of
    G = suffix max.  Both extrema sit at breakpoints x_j < x_k, so that
    happens exactly when G(x_j) = G(x_k): at the average over (x_j, x_k).
    """
    xs, _, vs, prefix = f._arrays
    i, j = np.triu_indices(len(xs), k=1)
    averages = (prefix[j] - prefix[i]) / (xs[j] - xs[i])
    return np.unique(np.concatenate([vs, averages]))


def _function_superlevel_count(f: StepFunction, level: float) -> int:
    """Number of components of {|f| >= level}."""
    xs, _, vs, _ = f._arrays
    above = vs >= level
    return len(union_components(xs[:-1][above], xs[1:][above])[0])


def variation(f: StepFunction) -> float:
    """Total variation: sum of absolute jumps of f, boundary jumps included."""
    vs = (0.0,) + f.values + (0.0,)
    return float(sum(abs(b - a) for a, b in zip(vs, vs[1:])))


def maximal_intervals(f: StepFunction, level: float) -> list[Interval]:
    """The fewest inclusion-maximal intervals with average exactly level
    whose closures chain across each component of {Mf >= level}.

    Members are [a(c), b(c)] for values c of G; each component's chain
    starts at the largest G at or right of its left end and steps to
    the least G up to the previous member's right end, stopping when G
    goes no lower.  Member ends carry only the rounding of one root.
    """
    return _maximal_chain(f, _positive(level))[0]


def _maximal_chain(f: StepFunction, level: float) -> tuple[list[Interval], int]:
    """maximal_intervals at a positive level, and the number of
    components of {Mf >= level}, from one rising-sun pass."""
    starts, _, (xs, g, slope, pm, sm) = _superlevel_components(f, level)
    out: list[Interval] = []
    for start in starts:
        c = sm[np.searchsorted(xs, start)]
        while True:
            # first breakpoint with G <= c, and last with G >= c
            ja = int(np.searchsorted(-pm, -c))
            jb = int(np.searchsorted(-sm, -c, side="right")) - 1
            if ja == 0:
                a = xs[0] - (c - g[0]) / level
            else:
                a = xs[ja] + (c - g[ja]) / slope[ja - 1]
            if jb == len(g) - 1:
                b = xs[-1] + (g[-1] - c) / level
            else:
                b = xs[jb] + (c - g[jb]) / slope[jb]
            if a < b:
                out.append(Interval(a, b))
            if pm[jb] >= c:
                break
            c = pm[jb]
    return out, starts.size


def level_report(f: StepFunction, level: float) -> LevelSetReport:
    """Level-set diagnostics: maximal intervals plus boundary counts of
    {|f| >= level} and {Mf >= level}."""
    level = _positive(level)
    ivals, components = _maximal_chain(f, level)
    count_f = 2 * _function_superlevel_count(f, level)
    return LevelSetReport(level, tuple(ivals), count_f, 2 * components)


def maximal_variation_check(
    f: StepFunction, level_grid_size: int = 200
) -> VariationReport:
    """Level-by-level boundary comparison and the variation inequality.

    At every non-degenerate grid level the boundary count of
    {Mf >= level} must not exceed that of {|f| >= level}.  var(Mf) is
    the integral of the maximal boundary count over levels (coarea).
    Both counts are constant on each open gap between consecutive
    critical levels (see _critical_levels), so one count of each at
    each gap's midpoint gives var(Mf) exactly, up to rounding, and
    serves every grid level inside the gap; a degenerate grid level,
    within rounding of a critical level, is counted where it lies.
    var(Mf) must not exceed var(|f|) by more than
    1e-9 * max(1, var(|f|)).
    """
    level_grid_size = int(level_grid_size)
    if level_grid_size < 10:
        raise ValueError("level_grid_size must be at least 10")
    g = f.abs_function()
    max_mf = max(g.values)
    var_f = variation(g)
    if max_mf == 0.0:
        return VariationReport((), 0.0, 0.0, True)

    def counts_at(level: float) -> tuple[int, int]:
        comp_m = len(_superlevel_components(g, level)[0])
        return comp_m, _function_superlevel_count(g, level)

    critical = _critical_levels(g)
    # max_mf is a piece value, so the cuts run from 0 up to it.
    cuts = np.union1d(0.0, critical[critical <= max_mf])
    gap_counts = [counts_at(0.5 * (u + w)) for u, w in zip(cuts, cuts[1:])]
    var_mf = sum(
        2 * comp_m * (w - u) for (comp_m, _), u, w in zip(gap_counts, cuts, cuts[1:])
    )

    grid = [
        max_mf * j / (level_grid_size + 1) for j in range(1, level_grid_size + 1)
    ]
    skip_tol = _SKIP_TOL * max(1.0, max_mf)
    # critical comes sorted from np.unique, so a level lies within
    # skip_tol of some critical level exactly when it does of one of its
    # two neighbours there
    levels = np.array(grid)
    at = np.searchsorted(critical, levels)
    below = levels - critical[np.maximum(at - 1, 0)]
    above = critical[np.minimum(at, critical.size - 1)] - levels
    near = ((at > 0) & (below <= skip_tol)) | ((at < critical.size) & (above <= skip_tol))
    gap = np.searchsorted(cuts, levels) - 1
    records = []
    all_pass = True
    for lam, skipped, k in zip(grid, near.tolist(), gap.tolist()):
        if skipped:
            comp_m, comp_f = counts_at(lam)
        else:
            comp_m, comp_f = gap_counts[k]
        passed = skipped or comp_m <= comp_f
        all_pass &= passed
        records.append(LevelRecord(lam, 2 * comp_m, 2 * comp_f, skipped, passed))
    if all(r.skipped for r in records):
        raise ValueError("degenerate level grid: every level is critical")

    # relative above 1: var(Mf) = var(|f|) for unimodal |f|, and at a
    # large scale rounding alone exceeds an absolute 1e-9
    bound_ok = var_mf <= var_f + 1e-9 * max(1.0, var_f)
    return VariationReport(
        tuple(records), var_f, float(var_mf), all_pass and bound_ok
    )
