"""Uncentered maximal function of a compactly supported step function.

All averages are of |f|, taken over intervals whose closure contains
the point.  For a step function the antiderivative F of |f| is
piecewise linear, and the average over (a, b) is
(F(b) - F(a)) / (b - a).

var(Mf) has a closed form.  Let S_il be the average over the
breakpoints (x_i, x_l), i < l.  An optimal interval for Mf(x) has its
ends at breakpoints or at x, so Mf(x_j) = B_j, the largest S_il with
i <= j <= l.  On piece j an average over (a, x) or (x, b), with a and b
breakpoints, moves monotonically toward the piece value as x moves,
and one over breakpoints around x is constant; so Mf falls and then
rises, and its minimum D_j sits where a falling average over (x_i, t)
meets a rising one over (t, x_l), both equal to S_il: D_j is the
largest S_il with i <= j < l.  Off the support hull Mf falls to 0.  So
Mf runs monotonically through the zigzag 0, B_0, D_0, B_1, ...,
D_(k-1), B_k, 0, and var(Mf) = 2 (sum of B_j - sum of D_j).  Each D_j
is a maximum over a subset of the pairs of B_j and of B_(j+1), so
D_j <= B_j, B_(j+1) holds in floats too.

The zigzag also counts the components of {Mf >= level}: one starts on
each rising step that crosses the level, which makes
#{B_j > level} - #{D_j > level} of them at a level equal to no B_j or
D_j.  Components appear, vanish or merge only at piece values and
pair averages, and at those the count depends on ties, so a grid level
within rounding of one (relative to max|f|) is skipped: it takes its
count from the roots of the rising-sun pass below, and the
level-by-level comparison does not hold it to the bound.  Every other
level lies clear of all B_j and D_j, so its zigzag count is exact.

Level sets follow F. Riesz's rising-sun picture.  With
G(x) = F(x) - level x, the average over (a, b) is at least the level
exactly when G(b) >= G(a), so one pass over G at the breakpoints, with
its prefix minimum and suffix maximum, gives {Mf >= level}.  The pass
takes an array of levels, one row of G each, so the variation check
counts its skipped levels in batched calls.

For a value c let a(c) be the first x with G(x) <= c and b(c) the last with
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Interval

# Levels this close, relative to max|f|, to a critical average are skipped.
_SKIP_TOL = 1e-9
# Rows times breakpoints per block of pair averages or rising-sun rows
# in maximal_variation_check: memory stays flat however long f is.
_BLOCK_ELEMENTS = 1 << 12


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
        """|f| on the same breakpoints.  f passed the checks already and
        its ``_arrays`` hold |values|, so |f| skips the checks and shares
        them: they are built once per f, however often |f| is taken."""
        g = object.__new__(StepFunction)
        object.__setattr__(g, "breakpoints", self.breakpoints)
        object.__setattr__(g, "values", tuple(abs(v) for v in self.values))
        vars(g)["_arrays"] = self._arrays
        return g

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


@dataclass(slots=True)
class LevelRecord:
    """One grid level of a VariationReport: a plain value record,
    compared by value.  It is not frozen, since a frozen dataclass pays
    an ``object.__setattr__`` per field and the check builds one record
    per grid level."""

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


def _rising_sun(f: StepFunction, levels: np.ndarray):
    """G = F - level x at the breakpoints x, one row per level, the
    slope of its linear interpolant on each piece, and the prefix
    minimum and suffix maximum of each row's samples.

    The slopes are |f| - level up to rounding, taken from the samples
    so that G falls on a piece exactly when its samples fall.
    """
    xs, dx, _, prefix = f._arrays
    g = prefix - levels[:, None] * xs
    return (
        xs,
        g,
        np.diff(g, axis=1) / dx,
        np.minimum.accumulate(g, axis=1),
        np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1],
    )


def _superlevel_components(f: StepFunction, levels: np.ndarray):
    """Connected components of {Mf >= level} for each of an array of
    positive levels, as flat arrays (row, lo, hi) sorted by row and then
    by position, and the ``_rising_sun`` arrays they come from.

    A piece where G does not fall (|f| >= level) lies in the set whole.
    On piece i where G falls, a point t is in the set when G(t) > pm_i
    (an interval from some earlier a averages above the level) or
    G(t) < sm_(i+1) (one to some later b does); each holds from one end
    of the piece up to a root.  The zero tails fall at slope -level,
    with nothing before the left one and nothing after the right one.

    Each row's segments sit in start order in a fixed layout: the head,
    then per piece its whole or early segment and its late one, then the
    tail; a running maximum of the ends along the row joins them into
    components.  Callers bound the number of levels per call
    (``_BLOCK_ELEMENTS``), since every array has a row per level.
    """
    sun = xs, g, slope, pm, sm = _rising_sun(f, levels)
    left, right = xs[:-1], xs[1:]
    falls = slope < 0
    early = falls & (pm[:, :-1] < g[:, :-1])
    late = falls & (sm[:, 1:] > g[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        early_hi = np.minimum(left + (pm[:, :-1] - g[:, :-1]) / slope, right)
        late_lo = np.maximum(right + (sm[:, 1:] - g[:, 1:]) / slope, left)
        head_lo = xs[0] - (sm[:, 0] - g[:, 0]) / levels
        tail_hi = xs[-1] + (g[:, -1] - pm[:, -1]) / levels
    rows, pieces = falls.shape
    lo = np.empty((rows, 2 * pieces + 2))
    hi = np.empty_like(lo)
    use = np.empty(lo.shape, dtype=bool)
    lo[:, 0], hi[:, 0], use[:, 0] = head_lo, xs[0], sm[:, 0] > g[:, 0]
    lo[:, 1:-1:2], hi[:, 1:-1:2] = left, np.where(falls, early_hi, right)
    use[:, 1:-1:2] = ~falls | early
    lo[:, 2:-1:2], hi[:, 2:-1:2], use[:, 2:-1:2] = late_lo, right, late
    lo[:, -1], hi[:, -1], use[:, -1] = xs[-1], tail_hi, g[:, -1] > pm[:, -1]
    reach = np.maximum.accumulate(np.where(use, hi, -np.inf), axis=1)
    # a used segment opens a component when it starts beyond the reach
    # of the segments before it in its row
    opens = use.copy()
    opens[:, 1:] &= lo[:, 1:] > reach[:, :-1]
    whole = np.zeros(use.shape, dtype=bool)
    whole[:, 1:-1:2] = ~falls
    row = np.nonzero(use)[0]
    lo, reach, opens, whole = lo[use], reach[use], opens[use], whole[use]
    first = np.flatnonzero(opens)
    last = np.append(first[1:], opens.size) - 1
    # An interval of average >= level meets a piece with |f| >= level,
    # and Mf >= level on all of that piece, so every true component
    # holds a whole such piece.  The others are roundoff slivers, from
    # roots a rounding step past the end of a piece.
    keep = np.zeros(first.size, dtype=bool)
    keep[np.cumsum(opens)[whole] - 1] = True
    first, last = first[keep], last[keep]
    return row[first], lo[first], reach[last], sun


def maximal_superlevel(f: StepFunction, level: float) -> list[Interval]:
    """Connected components of {Mf >= level} for a positive level, exact."""
    _, lo, hi, _ = _superlevel_components(f, np.array([_positive(level)]))
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def _runs(inside: np.ndarray) -> np.ndarray:
    """Number of runs of True along each row of a boolean array."""
    return inside[:, 0] + np.count_nonzero(inside[:, 1:] & ~inside[:, :-1], axis=1)


def _function_superlevel_count(f: StepFunction, levels: np.ndarray) -> np.ndarray:
    """Number of components of {|f| >= level} for each level: the runs
    of pieces at or above it, since neighbouring pieces touch and others
    lie apart."""
    return _runs(f._arrays[2] >= levels[:, None])


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
    components of {Mf >= level}, from one rising-sun pass.  The walk
    runs on Python floats, the same IEEE operations as on the arrays."""
    _, starts, _, sun = _superlevel_components(f, np.array([level]))
    xs = sun[0].tolist()
    g, slope, pm, sm = (a[0].tolist() for a in sun[1:])
    # pm and sm never rise along x, so their negations are sorted
    neg_pm, neg_sm = [-v for v in pm], [-v for v in sm]
    out: list[Interval] = []
    for start in starts.tolist():
        c = sm[bisect_left(xs, start)]
        while True:
            # first breakpoint with G <= c, and last with G >= c
            ja = bisect_left(neg_pm, -c)
            jb = bisect_right(neg_sm, -c) - 1
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
    count_f = 2 * int(_function_superlevel_count(f, np.array([level]))[0])
    return LevelSetReport(level, tuple(ivals), count_f, 2 * components)


def _near(levels: np.ndarray, values: np.ndarray, tol: float) -> np.ndarray:
    """Whether each level lies within tol of one of the sorted values:
    of its neighbour below or of its neighbour above."""
    at = np.searchsorted(values, levels)
    below = levels - values[np.maximum(at - 1, 0)]
    above = values[np.minimum(at, values.size - 1)] - levels
    return ((at > 0) & (below <= tol)) | ((at < values.size) & (above <= tol))


def _zigzag(g: StepFunction, levels: np.ndarray, tol: float):
    """B_j and D_j of the module docstring, and whether each level lies
    within tol of a piece value or of a pair average S_il.

    The rows i of S go in blocks of at most ``_BLOCK_ELEMENTS``
    averages, each row only over l > i.  The suffix maximum of row i at
    column c is its largest S_il with l >= c: at c = i + 1 it is row
    i's share of B_i, and at c > i its share of B_c and of D_(c-1),
    which running column maxima collect.  A level's nearest averages
    below and above are among the nearest of some block, and float
    subtraction keeps their order, so the blocks decide the flags as the
    sorted union of all averages would.
    """
    xs, _, vs, prefix = g._arrays
    n = xs.size
    near = _near(levels, np.sort(vs), tol)
    row_max = np.full(n, -np.inf)
    col_max = np.full(n, -np.inf)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        # row i holds columns l = lo + 1, ..., k; those with l <= i go
        with np.errstate(invalid="ignore"):
            s = (prefix[lo + 1 :] - prefix[lo:hi, None]) / (
                xs[lo + 1 :] - xs[lo:hi, None]
            )
        upper = np.arange(lo + 1, n) > np.arange(lo, hi)[:, None]
        near |= _near(levels, np.sort(s[upper]), tol)
        s[~upper] = -np.inf
        s = np.maximum.accumulate(s[:, ::-1], axis=1)[:, ::-1]
        row_max[lo:hi] = s[:, 0]
        s[~upper] = -np.inf
        np.maximum(col_max[lo + 1 :], s.max(axis=0), out=col_max[lo + 1 :])
    return np.maximum(row_max, col_max), col_max[1:], near


def maximal_variation_check(
    f: StepFunction, level_grid_size: int = 200
) -> VariationReport:
    """Level-by-level boundary comparison and the variation inequality.

    var(Mf) is the length of the zigzag of the module docstring,
    2 (sum of B_j - sum of D_j), summed exactly and rounded once by
    ``math.fsum``.  At every grid level that is not skipped, the
    boundary count of {Mf >= level}, twice the rising steps of the
    zigzag across it, must not exceed that of {|f| >= level}.  A level
    within ``_SKIP_TOL * max|f|`` of a piece value or of a pair average
    is skipped: its count comes from the roots of
    ``_superlevel_components``, in blocks of at most
    ``_BLOCK_ELEMENTS`` level rows times breakpoints, and it passes.
    var(Mf) must not exceed var(|f|) by more than 1e-9 * var(|f|).
    Both tolerances are relative, so scaling f by a power of 2 scales
    var(Mf) exactly and leaves every record as it is.
    """
    level_grid_size = int(level_grid_size)
    if level_grid_size < 10:
        raise ValueError("level_grid_size must be at least 10")
    g = f.abs_function()
    max_mf = max(g.values)
    var_f = variation(g)
    if max_mf == 0.0:
        return VariationReport((), 0.0, 0.0, True)

    levels = max_mf * np.arange(1.0, level_grid_size + 1) / (level_grid_size + 1)
    peaks, dips, near = _zigzag(g, levels, _SKIP_TOL * max_mf)
    if near.all():
        raise ValueError("degenerate level grid: every level is critical")
    var_mf = 2.0 * math.fsum(peaks.tolist() + (-dips).tolist())

    # #{B_j > level} - #{D_j > level}, with one more B_j than D_j
    comp_m = 1 + (
        np.searchsorted(np.sort(dips), levels, side="right")
        - np.searchsorted(np.sort(peaks), levels, side="right")
    )
    step = max(1, _BLOCK_ELEMENTS // len(g.breakpoints))
    skipped = np.flatnonzero(near)
    for i in range(0, skipped.size, step):
        at = skipped[i : i + step]
        comp_m[at] = np.bincount(
            _superlevel_components(g, levels[at])[0], minlength=at.size
        )
    comp_f = np.concatenate([
        _function_superlevel_count(g, levels[i : i + step])
        for i in range(0, levels.size, step)
    ])
    count_m, count_f = 2 * comp_m, 2 * comp_f
    passed = near | (count_m <= count_f)
    records = tuple(
        map(LevelRecord, levels.tolist(), count_m.tolist(), count_f.tolist(),
            near.tolist(), passed.tolist())
    )
    # var(Mf) = var(|f|) for unimodal |f|, so rounding alone can cross
    # the bound by a few ulp
    bound_ok = var_mf <= var_f + 1e-9 * var_f
    return VariationReport(records, var_f, var_mf, bool(passed.all()) and bound_ok)
