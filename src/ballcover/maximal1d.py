"""Uncentered maximal function of a compactly supported step function.

All averages are of |f|, taken over intervals whose closure contains
the point.  For a step function the antiderivative F of |f| is
piecewise linear, so averages (F(b) - F(a)) / (b - a) over candidate
endpoint pairs decide everything: point values of the maximal function,
its superlevel sets, and the maximal intervals at a level.  The
variation comparison integrates superlevel boundary counts in the
level variable and certifies a lower bound for var(Mf).

A subtlety worth recording: at many levels the family of
inclusion-maximal intervals with average exactly equal to the level is
infinite (both endpoints can slide in lockstep through regions of
constant |f|, e.g. the zero tails).  maximal_intervals therefore
returns a finite subfamily of genuinely maximal intervals whose
closures still cover the union of the full family, which equals
{Mf >= level}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Interval, union_components

# Equality slack for maximality and degeneracy decisions.
_ATOL = 1e-12
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

    def total_mass(self) -> float:
        xs, vs = self.breakpoints, self.values
        return float(sum(abs(v) * (b - a) for v, a, b in zip(vs, xs, xs[1:])))


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
    levels: tuple[LevelRecord, ...]
    var_f: float
    var_mf_lower_bound: float
    passed: bool


def _prefix_mass(f: StepFunction) -> np.ndarray:
    xs = np.asarray(f.breakpoints)
    vs = np.abs(np.asarray(f.values))
    return np.concatenate([[0.0], np.cumsum(vs * np.diff(xs))])


def _antiderivative(f: StepFunction, x) -> np.ndarray:
    """F(x) for the antiderivative F of |f| with F(x_0) = 0."""
    xs = np.asarray(f.breakpoints)
    vs = np.abs(np.asarray(f.values))
    prefix = _prefix_mass(f)
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(vs) - 1)
    inside = np.clip(x, xs[0], xs[-1])
    return prefix[idx] + vs[idx] * (inside - xs[idx])


def average(f: StepFunction, a: float, b: float) -> float:
    """Average of |f| over (a, b), exact via the piecewise-linear antiderivative."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("average needs a < b")
    fa, fb = _antiderivative(f, [a, b])
    return float((fb - fa) / (b - a))


def maximal_function_at(f: StepFunction, x: float) -> float:
    """Mf(x): the supremum of averages of |f| over intervals around x.

    The supremum is attained with both endpoints among the breakpoints
    and x itself (an interior optimal endpoint can always slide to the
    end of its piece without changing the average), so a scan over
    those O(k^2) pairs is exact.  A zero function gives 0.
    """
    x = float(x)
    cands = np.unique(np.append(np.asarray(f.breakpoints), x))
    left = cands[cands <= x]
    right = cands[cands >= x]
    fl = _antiderivative(f, left)
    fr = _antiderivative(f, right)
    num = fr[None, :] - fl[:, None]
    den = right[None, :] - left[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0, num / np.where(den > 0, den, 1.0), -np.inf)
    best = float(ratios.max()) if ratios.size else 0.0
    return max(best, 0.0)


class _PieceTable:
    """Merged linear pieces of F (equal-slope runs joined) plus pair
    index templates; the level-dependent zero tails are appended on
    demand."""

    def __init__(self, f: StepFunction):
        xs = list(f.breakpoints)
        vs = [abs(v) for v in f.values]
        prefix = _prefix_mass(f)
        lo, hi, slope, ordinate = [], [], [], []
        start = 0
        for i in range(1, len(vs) + 1):
            if i == len(vs) or vs[i] != vs[start]:
                lo.append(xs[start])
                hi.append(xs[i])
                slope.append(vs[start])
                ordinate.append(prefix[start] - vs[start] * xs[start])
                start = i
        self.x_first = xs[0]
        self.x_last = xs[-1]
        self.mass = float(prefix[-1])
        self.span = xs[-1] - xs[0]
        self.core_lo = np.asarray(lo)
        self.core_hi = np.asarray(hi)
        self.core_slope = np.asarray(slope)
        self.core_ordinate = np.asarray(ordinate)
        m = len(lo) + 2
        self.ii, self.jj = np.triu_indices(m, k=1)

    def reach(self, level: float) -> float:
        """Longest interval that can still average to the level, padded."""
        base = self.mass / level if level > 0 else self.span
        return max(base, self.span) * 1.01 + 1.0

    def full_arrays(self, level: float):
        r = self.reach(level)
        fl = np.concatenate([[self.x_first - r], self.core_lo, [self.x_last]])
        fh = np.concatenate([[self.x_first], self.core_hi, [self.x_last + r]])
        fs = np.concatenate([[0.0], self.core_slope, [0.0]])
        fc = np.concatenate([[0.0], self.core_ordinate, [self.mass]])
        return fl, fh, fs, fc


def _superlevel_components(table: _PieceTable, level: float):
    """Connected components (lo, hi) of {Mf >= level}, sorted.

    {Mf >= level} is the union of the endpoint spans [min a, max b] over
    all ordered piece pairs that admit an interval of average >= level.
    Over a pair of linear pieces of F the constraint
    F(b) - F(a) >= level (b - a) cuts the endpoint rectangle along a
    line, leaving a convex polygon whose extreme endpoint values follow
    from the corner signs.
    """
    fl, fh, fs, fc = table.full_arrays(level)
    ii, jj = table.ii, table.jj
    sp = fs[ii] - level
    sq = fs[jj] - level
    const = fc[jj] - fc[ii]
    p_lo, p_hi = fl[ii], fh[ii]
    q_lo, q_hi = fl[jj], fh[jj]

    with np.errstate(divide="ignore", invalid="ignore"):
        b_star = np.where(sq >= 0, q_hi, q_lo)
        h_at_plo = sq * b_star - sp * p_lo + const
        h_at_phi = sq * b_star - sp * p_hi + const
        root_a = (sq * b_star + const) / sp
        min_a = np.where(
            sp < 0,
            np.where(h_at_phi < 0, np.nan, np.where(h_at_plo >= 0, p_lo, root_a)),
            np.where(h_at_plo < 0, np.nan, p_lo),
        )
        a_star = np.where(sp >= 0, p_lo, p_hi)
        g_at_qhi = sq * q_hi - sp * a_star + const
        g_at_qlo = sq * q_lo - sp * a_star + const
        root_b = (sp * a_star - const) / sq
        max_b = np.where(
            sq < 0,
            np.where(g_at_qlo < 0, np.nan, np.where(g_at_qhi >= 0, q_hi, root_b)),
            np.where(g_at_qhi < 0, np.nan, q_hi),
        )
    valid = ~np.isnan(min_a) & ~np.isnan(max_b)
    flat = fs >= level  # whole pieces at or above the level
    lo, hi = union_components(
        np.concatenate([min_a[valid], fl[flat]]),
        np.concatenate([max_b[valid], fh[flat]]),
    )
    # An interval of average >= level meets a piece with |f| >= level,
    # and Mf >= level on all of that piece, so every true component
    # holds a whole such piece.  The others are roundoff slivers, from
    # adjacent pieces' shared endpoints or roots near a piece value.
    whole = np.zeros(lo.size, dtype=bool)
    whole[np.searchsorted(lo, fl[flat], side="right") - 1] = True
    return lo[whole], hi[whole]


def maximal_superlevel(f: StepFunction, level: float) -> list[Interval]:
    """Connected components of {Mf >= level} for a positive level, exact."""
    level = float(level)
    if level <= 0.0:
        raise ValueError("level must be positive")
    lo, hi = _superlevel_components(_PieceTable(f), level)
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def _critical_levels(f: StepFunction) -> np.ndarray:
    """Piece values and breakpoint-pair averages: every level at which a
    superlevel component of Mf can vanish lies in this set."""
    xs = np.asarray(f.breakpoints)
    prefix = _prefix_mass(f)
    i, j = np.triu_indices(len(xs), k=1)
    averages = (prefix[j] - prefix[i]) / (xs[j] - xs[i])
    return np.unique(np.concatenate([np.abs(np.asarray(f.values)), averages]))


def _function_superlevel_count(f: StepFunction, level: float) -> int:
    """Number of components of {|f| >= level}."""
    xs = np.asarray(f.breakpoints)
    above = np.abs(np.asarray(f.values)) >= level
    return len(union_components(xs[:-1][above], xs[1:][above])[0])


def variation(f: StepFunction) -> float:
    """Total variation: sum of absolute jumps of f, boundary jumps included."""
    vs = (0.0,) + f.values + (0.0,)
    return float(sum(abs(b - a) for a, b in zip(vs, vs[1:])))


def maximal_intervals(f: StepFunction, level: float) -> list[Interval]:
    """A finite family of inclusion-maximal intervals with average exactly level.

    Every returned interval has average equal to the level (to within
    roundoff) and admits no proper superinterval with average at or
    above the level.  Where a one-parameter family of maximal intervals
    exists (both endpoints sliding through pieces of constant |f|),
    finitely many members are returned whose closures cover the union
    of the family; the union of all returned closures is {Mf >= level}.
    """
    level = float(level)
    if level <= 0.0:
        raise ValueError("level must be positive")
    if level > max(abs(v) for v in f.values):
        return []
    fl, fh, fs, fc = _PieceTable(f).full_arrays(level)
    # (lo, hi, slope, ordinate), with F(x) = ordinate + slope * x on [lo, hi]
    pieces = list(zip(fl, fh, fs, fc))
    bps = np.unique(np.append(fl, fh[-1]))
    fvals = _antiderivative(f, bps)
    atol = _ATOL * max(1.0, level)

    def has_better_superset(a: float, b: float) -> bool:
        """Any proper superinterval with average >= level - atol?

        The best superset average over {a' <= a, b' >= b} is attained
        with each endpoint at a breakpoint or at the interval's own,
        so scanning those pairs is exact.
        """
        fa = float(_antiderivative(f, a))
        fb = float(_antiderivative(f, b))
        lefts = [(a, fa)] + [(x, v) for x, v in zip(bps, fvals) if x < a]
        rights = [(b, fb)] + [(x, v) for x, v in zip(bps, fvals) if x > b]
        # An endpoint of a family's extreme member can land on a
        # breakpoint up to roundoff, so identify the interval with
        # itself by tolerance, not exact equality.
        tol_x = _ATOL * max(1.0, abs(a), abs(b))
        for u, fu in lefts:
            for w, fw in rights:
                if abs(u - a) <= tol_x and abs(w - b) <= tol_x:
                    continue
                if fw - fu >= (level - atol) * (w - u):
                    return True
        return False

    out: list[Interval] = []

    def kill_zones_moving_left(w: float, fw: float) -> list[tuple[float, float]]:
        """Ranges of a where the superset (a, w) averages >= level - atol;
        per piece the condition is linear in a."""
        zones = []
        for p_lo, p_hi, p_slope, p_ord in pieces:
            c0 = fw - p_ord - (level - atol) * w
            c1 = (level - atol) - p_slope
            lo, hi = p_lo, min(p_hi, w)
            if hi <= lo:
                continue
            if abs(c1) < 1e-300:
                if c0 >= 0:
                    zones.append((lo, hi))
                continue
            root = -c0 / c1
            zlo, zhi = (max(lo, root), hi) if c1 > 0 else (lo, min(hi, root))
            if zhi >= zlo:
                zones.append((zlo, zhi))
        return zones

    def kill_zones_moving_right(
        u: float, fu: float, beta: float, delta: float
    ) -> list[tuple[float, float]]:
        """Parameter ranges of a where the superset (u, beta a + delta)
        averages >= level - atol."""
        zones = []
        for q_lo, q_hi, q_slope, q_ord in pieces:
            c0 = q_ord - fu + (level - atol) * u
            c1 = q_slope - (level - atol)
            blo, bhi = max(q_lo, u), q_hi
            if bhi <= blo:
                continue
            if abs(c1) < 1e-300:
                brange = (blo, bhi) if c0 >= 0 else None
            else:
                root = -c0 / c1
                brange = (max(blo, root), bhi) if c1 > 0 else (blo, min(bhi, root))
                if brange[1] < brange[0]:
                    brange = None
            if brange is not None:
                zones.append(((brange[0] - delta) / beta, (brange[1] - delta) / beta))
        return zones

    def emit_family(a0: float, a1: float, beta: float, delta: float) -> None:
        """Members (a, beta a + delta) for a in [a0, a1], minus the
        parameter zones where some proper superset reaches the level;
        survivors are sampled densely enough that consecutive closures
        overlap."""
        if a1 < a0:
            return
        kills: list[tuple[float, float]] = []

        def kill(lo: float, hi: float) -> None:
            lo, hi = max(lo, a0), min(hi, a1)
            if hi >= lo:
                kills.append((lo, hi))

        for u, fu in zip(bps, fvals):
            for w, fw in zip(bps, fvals):
                if w <= u:
                    continue
                if fw - fu >= (level - atol) * (w - u):
                    kill(u, (w - delta) / beta)
        for w, fw in zip(bps, fvals):
            limit = (w - delta) / beta
            for zlo, zhi in kill_zones_moving_left(w, fw):
                kill(zlo, min(zhi, limit))
        for u, fu in zip(bps, fvals):
            for zlo, zhi in kill_zones_moving_right(u, fu, beta, delta):
                kill(max(zlo, u), zhi)

        for lo, hi in _subtract(a0, a1, kills):
            length_lo = (beta * lo + delta) - lo
            length_hi = (beta * hi + delta) - hi
            step = 0.45 * max(min(length_lo, length_hi), 0.0)
            samples = [lo, hi] if hi > lo else [lo]
            if step > 0 and hi - lo > step:
                inner = np.arange(lo + step, hi, step)
                samples = sorted({lo, hi} | {float(x) for x in inner})
            for a in samples:
                b = beta * a + delta
                if b - a > atol:
                    out.append(Interval(a, b))

    for i, (p_lo, p_hi, p_slope, p_ord) in enumerate(pieces):
        for j, (q_lo, q_hi, q_slope, q_ord) in enumerate(pieces[i:], start=i):
            sp = p_slope - level
            sq = q_slope - level
            if j == i:
                if abs(sp) <= atol and p_hi > p_lo:
                    out.append(Interval(p_lo, p_hi))
                continue
            const = q_ord - p_ord
            scale = max(1.0, abs(p_ord), abs(q_ord))
            if abs(sp) <= atol and abs(sq) <= atol:
                if abs(const) <= atol * scale and q_hi > p_lo:
                    out.append(Interval(p_lo, q_hi))
                continue
            if abs(sq) <= atol:
                a = const / sp
                if p_lo - atol <= a <= p_hi + atol and q_hi > a:
                    out.append(Interval(min(max(a, p_lo), p_hi), q_hi))
                continue
            if abs(sp) <= atol:
                b = -const / sq
                if q_lo - atol <= b <= q_hi + atol and b > p_lo:
                    out.append(Interval(p_lo, min(max(b, q_lo), q_hi)))
                continue
            if sp > 0 or sq > 0:
                # A slope above the level at an end means extending that
                # end raises the average: interior members of such
                # families are never maximal, and their boundary members
                # reappear in a neighbouring pair's family.
                continue
            beta = sp / sq
            delta = -const / sq
            blo_a = (q_lo - delta) / beta
            bhi_a = (q_hi - delta) / beta
            a0 = max(p_lo, min(blo_a, bhi_a))
            a1 = min(p_hi, max(blo_a, bhi_a))
            emit_family(a0, a1, beta, delta)

    out = [iv for iv in out if not has_better_superset(iv.lo, iv.hi)]
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    deduped: list[Interval] = []
    for iv in out:
        if deduped and abs(iv.lo - deduped[-1].lo) <= atol and abs(
            iv.hi - deduped[-1].hi
        ) <= atol:
            continue
        deduped.append(iv)
    return deduped


def _subtract(lo: float, hi: float, kills: list[tuple[float, float]]):
    """[lo, hi] minus a union of closed intervals, as a list of segments."""
    if hi < lo:
        return []
    segments = [(lo, hi)]
    for klo, khi in sorted(kills):
        nxt = []
        for slo, shi in segments:
            if khi < slo or klo > shi:
                nxt.append((slo, shi))
                continue
            if klo > slo:
                nxt.append((slo, klo))
            if khi < shi:
                nxt.append((khi, shi))
        segments = nxt
        if not segments:
            break
    return segments


def level_report(f: StepFunction, level: float) -> LevelSetReport:
    """Level-set diagnostics: maximal intervals plus boundary counts of
    {|f| >= level} and {Mf >= level}."""
    ivals = maximal_intervals(f, level)
    count_f = 2 * _function_superlevel_count(f, level)
    count_m = 2 * len(maximal_superlevel(f, level))
    return LevelSetReport(float(level), tuple(ivals), count_f, count_m)


def maximal_variation_check(
    f: StepFunction, level_grid_size: int = 200
) -> VariationReport:
    """Level-by-level boundary comparison and the variation bound.

    At every non-degenerate grid level the boundary count of
    {Mf >= level} must not exceed that of {|f| >= level}.  Integrating
    the maximal count over levels certifies a lower bound for var(Mf):
    components of {Mf >= level} can only vanish at critical averages
    (piece values and breakpoint-pair averages), so between consecutive
    critical values the component count is nondecreasing in the level,
    and probing both ends of each gap bounds the integral from below;
    gaps where the probes disagree are bisected.  The certified bound
    must stay below var(|f|) within 1e-9.
    """
    level_grid_size = int(level_grid_size)
    if level_grid_size < 10:
        raise ValueError("level_grid_size must be at least 10")
    g = f.abs_function()
    max_mf = max(g.values)
    var_f = variation(g)
    if max_mf == 0.0:
        return VariationReport((), 0.0, 0.0, True)
    table = _PieceTable(g)

    def components_at(level: float) -> int:
        return len(_superlevel_components(table, level)[0])

    grid = [
        max_mf * j / (level_grid_size + 1) for j in range(1, level_grid_size + 1)
    ]
    critical = _critical_levels(g)
    skip_tol = _SKIP_TOL * max(1.0, max_mf)

    records = []
    all_pass = True
    for lam in grid:
        skipped = bool(np.any(np.abs(critical - lam) <= skip_tol))
        comp_m = components_at(lam)
        comp_f = _function_superlevel_count(g, lam)
        passed = True if skipped else comp_m <= comp_f
        all_pass &= passed
        records.append(LevelRecord(lam, 2 * comp_m, 2 * comp_f, skipped, passed))
    if all(r.skipped for r in records):
        raise ValueError("degenerate level grid: every level is critical")

    # Certified lower bound for var(Mf) = integral of the boundary count.
    cuts = np.unique(
        np.concatenate(
            [[0.0, max_mf], critical[(critical > 0) & (critical < max_mf)], grid]
        )
    )
    width_floor = 1e-12 * max(1.0, max_mf)
    lower = 0.0
    stack = [
        (u, w, None, None) for u, w in zip(cuts, cuts[1:]) if w - u > width_floor
    ]
    while stack:
        u, w, cu, cw = stack.pop()
        h = 1e-9 * (w - u)
        if cu is None:
            cu = components_at(u + h)
        if cw is None:
            cw = components_at(w - h)
        if cu == cw or w - u <= width_floor:
            lower += 2 * min(cu, cw) * (w - u - 2.0 * h)
            continue
        mid = 0.5 * (u + w)
        stack.append((u, mid, cu, None))
        stack.append((mid, w, None, cw))

    bound_ok = lower <= var_f + 1e-9
    return VariationReport(
        tuple(records), var_f, float(lower), all_pass and bound_ok
    )
