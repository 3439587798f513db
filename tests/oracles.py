"""Independent oracles for the test suite.

Everything here is implemented from first principles with a different
method than the package uses (quadrature instead of closed forms,
brute-force candidate enumeration instead of span arithmetic), so
agreement is meaningful evidence and not a tautology.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize

from ballcover.geometry import (
    DISJOINT_TOL,
    TWO_PI,
    BallCollection,
    _arc_ends,
    _coincidence_groups,
    _cos_half_angle,
    _lens_volumes,
    _split_arcs,
    _surface,
    union_components,
    unit_ball_volume,
)
from ballcover.maximal1d import StepFunction
from ballcover.selection import SelectionResult


def unit_ball_volume_gamma(dim: int) -> float:
    """omega_d from the Gamma-function formula."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def cap_volume_quadrature(r: float, a: float, dim: int) -> float:
    """Volume of the cap {x_1 >= a} of a radius-r ball by 1D quadrature
    of cross-sectional (d-1)-ball volumes."""
    if a >= r:
        return 0.0
    a = max(a, -r)
    if dim == 1:
        return r - a
    w = unit_ball_volume_gamma(dim - 1)
    # Substitute x = r - t^2: the integrand becomes smooth at the pole
    # x = r, so quadrature reaches full precision even for slivers.
    out = integrate.quad(
        lambda t: w * 2.0 * t * (t * t * (2.0 * r - t * t)) ** ((dim - 1) / 2.0),
        0.0,
        math.sqrt(r - a),
        epsabs=0.0,
        epsrel=1e-12,
        limit=300,
        full_output=1,
    )
    return out[0]


def lens_volume_quadrature(r1: float, r2: float, rho: float, dim: int) -> float:
    """Intersection volume of balls (radius r1 at origin, r2 at distance
    rho) as two quadrature caps split at the radical plane."""
    if rho >= r1 + r2:
        return 0.0
    if rho <= abs(r1 - r2):
        r = min(r1, r2)
        return unit_ball_volume_gamma(dim) * r**dim
    a1 = ((rho - r2) * (rho + r2) + r1 * r1) / (2.0 * rho)
    return cap_volume_quadrature(r1, a1, dim) + cap_volume_quadrature(
        r2, rho - a1, dim
    )


def _endpoints(intervals):
    """Sorted (lo, hi) pairs from Interval-like objects or 2-tuples."""
    out = []
    for item in intervals:
        if hasattr(item, "lo"):
            out.append((float(item.lo), float(item.hi)))
        else:
            lo, hi = item
            out.append((float(lo), float(hi)))
    return sorted(out)


def interval_balls(pairs) -> BallCollection:
    """1D balls with the given (lo, hi) closures."""
    lo, hi = np.array(pairs, dtype=float).reshape(-1, 2).T
    return BallCollection.from_arrays(((lo + hi) / 2)[:, None], (hi - lo) / 2)


def union_length_oracle(intervals) -> float:
    """Union length of 1D intervals by endpoint sweep (independent of
    the package's merge routine)."""
    pts = _endpoints(intervals)
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in pts:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def union_component_count_oracle(intervals, closure: bool = True) -> int:
    """Number of connected components of a union of intervals; closures
    touching at a point count as one component when closure=True."""
    pts = _endpoints(intervals)
    count = 0
    cur_hi = None
    for lo, hi in pts:
        joined = cur_hi is not None and (lo <= cur_hi if closure else lo < cur_hi)
        if not joined:
            count += 1
            cur_hi = hi
        else:
            cur_hi = max(cur_hi, hi)
    return count


def antiderivative(f: StepFunction, x) -> np.ndarray:
    """F(x) of |f| with F(x_0) = 0 in floats: the masses summed piece by
    piece up to each breakpoint, interpolated linearly in between and
    held constant outside the support hull."""
    masses = [0.0]
    for a, b, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        masses.append(masses[-1] + abs(v) * (b - a))
    return np.interp(np.asarray(x, dtype=float), f.breakpoints, masses)


def average(f: StepFunction, a: float, b: float) -> float:
    """Average of |f| over (a, b) in floats."""
    if not a < b:
        raise ValueError("average needs a < b")
    fa, fb = antiderivative(f, [a, b])
    return float((fb - fa) / (b - a))


def maximal_function_oracle_at(f: StepFunction, x: float) -> float:
    """Brute-force centered-free maximal function of |f| at one point.

    The average over [a, b] containing x is maximized with a and b at
    breakpoints or at x itself: sliding an endpoint across a piece of
    the antiderivative changes the average monotonically until the
    piece value crosses the running average.
    """
    g = f.abs_function()
    bps = np.asarray(g.breakpoints, dtype=float)
    fb = antiderivative(g, bps)
    fx = float(antiderivative(g, x))
    best = -math.inf
    for b, fb_val in zip(bps, fb):
        if b > x:
            best = max(best, (fb_val - fx) / (b - x))
        elif b < x:
            best = max(best, (fx - fb_val) / (x - b))
    k = len(bps)
    for p in range(k):
        for q in range(p + 1, k):
            if bps[p] < x < bps[q]:
                best = max(best, (fb[q] - fb[p]) / (bps[q] - bps[p]))
    return best


def maximal_function_oracle_grid(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized brute-force maximal function of |f| on many points."""
    g = f.abs_function()
    bps = np.asarray(g.breakpoints, dtype=float)
    fb = antiderivative(g, bps)
    fx = antiderivative(g, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = bps[None, :] - xs[:, None]
        right = np.where(den > 0, (fb[None, :] - fx[:, None]) / den, -np.inf).max(1)
        left = np.where(-den > 0, (fx[:, None] - fb[None, :]) / (-den), -np.inf).max(1)
    best = np.maximum(right, left)
    k = len(bps)
    for p in range(k):
        for q in range(p + 1, k):
            avg = (fb[q] - fb[p]) / (bps[q] - bps[p])
            mask = (xs > bps[p]) & (xs < bps[q])
            np.maximum(best, np.where(mask, avg, -np.inf), out=best)
    return best


def superlevel_components_per_level(
    f: StepFunction, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Components (lo, hi) of {Mf >= level} from one rising-sun pass at
    one level, its segments joined by ``union_components``: the
    per-level form of ``maximal1d._superlevel_components``, with the
    same arithmetic, so the two agree bit for bit."""
    xs, dx, _, prefix = f._arrays
    g = prefix - level * xs
    slope = np.diff(g) / dx
    pm = np.minimum.accumulate(g)
    sm = np.maximum.accumulate(g[::-1])[::-1]
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
    # only components holding a whole piece with |f| >= level are real
    whole = np.zeros(lo.size, dtype=bool)
    whole[np.searchsorted(lo, left[~falls], side="right") - 1] = True
    return lo[whole], hi[whole]


def exact_antiderivative(f: StepFunction):
    """F(t) of |f| with F(x_0) = 0, as a function of t returning a
    Fraction; floats convert exactly, so dyadic data gives exact values."""
    xs = [Fraction(x) for x in f.breakpoints]
    vs = [abs(Fraction(v)) for v in f.values]

    def F(t) -> Fraction:
        t = Fraction(t)
        return sum(
            (v * (min(t, hi) - lo) for lo, hi, v in zip(xs, xs[1:], vs) if t > lo),
            Fraction(0),
        )

    return F


def exact_average(f: StepFunction, a, b) -> Fraction:
    """Average of |f| over (a, b) in rational arithmetic."""
    a, b = Fraction(a), Fraction(b)
    F = exact_antiderivative(f)
    return (F(b) - F(a)) / (b - a)


def exact_maximal_function_at(f: StepFunction, x) -> Fraction:
    """Mf(x) in rational arithmetic: the largest average over intervals
    whose ends are breakpoints or x itself, with x in the closure.

    For fixed b the average over (a, b) is monotone in a across a piece
    of F, so an optimal end sits at a breakpoint or at x; an end running
    off into a zero tail drives the average to 0.
    """
    F = exact_antiderivative(f)
    x = Fraction(x)
    bps = [Fraction(p) for p in f.breakpoints]
    lefts = [p for p in bps if p < x] + [x]
    rights = [x] + [p for p in bps if p > x]
    values = {t: F(t) for t in lefts + rights}
    return max(
        [Fraction(0)]
        + [(values[b] - values[a]) / (b - a) for a in lefts for b in rights if a < b]
    )


def exact_maximal_variation(f: StepFunction) -> Fraction:
    """var(Mf) in rational arithmetic: the summed jumps of Mf between
    points that split the line into stretches where Mf is monotone.

    Off the support hull Mf falls to 0 away from it, which the values
    at the two hull ends count.  On a piece of value v, an average
    over (a, x) or (x, b) with a, b breakpoints moves monotonically
    toward v as x moves, and an average over a pair of breakpoints
    around x is constant; so Mf falls and then rises, and its lowest
    stretch holds the point t where a falling average over (x_j, t)
    meets a rising one over (t, x_k).  There both equal the average
    over (x_j, x_k).  The points are the breakpoints, the piece
    midpoints and every such t.
    """
    F = exact_antiderivative(f)
    xs = [Fraction(x) for x in f.breakpoints]
    vs = [abs(Fraction(v)) for v in f.values]
    points = set(xs) | {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    for j in range(len(xs)):
        for k in range(j + 1, len(xs)):
            avg = (F(xs[k]) - F(xs[j])) / (xs[k] - xs[j])
            for m in range(j, k):
                # F(t) - F(x_j) = avg (t - x_j) on piece m, where F is linear
                if vs[m] != avg:
                    t = xs[m] + (F(xs[j]) - F(xs[m]) + avg * (xs[m] - xs[j])) / (
                        vs[m] - avg
                    )
                    if xs[m] < t < xs[m + 1]:
                        points.add(t)
    mf = [exact_maximal_function_at(f, t) for t in sorted(points)]
    return mf[0] + mf[-1] + sum(abs(b - a) for a, b in zip(mf, mf[1:]))


def variation_oracle(f: StepFunction) -> float:
    """Total variation of |f| extended by zero: sum of all jump sizes."""
    vals = [0.0] + [abs(v) for v in f.values] + [0.0]
    return sum(abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1))


def ring_family_perimeter_oracle(k: int, tiny_radius: float) -> float:
    """Exact union perimeter of the unit disk plus k ring disks of
    radius t centered at distance 1 + t/2, assuming the ring disks are
    pairwise disjoint and each meets only the unit disk.

    Derived directly from circle-circle intersection angles.
    """
    t = tiny_radius
    rho = 1.0 + t / 2.0
    # Half-angle of the arc of the unit circle inside one tiny disk.
    cos_big = (1.0 + rho * rho - t * t) / (2.0 * rho)
    # Half-angle of the arc of a tiny circle inside the unit disk.
    cos_tiny = (t * t + rho * rho - 1.0) / (2.0 * rho * t)
    big_arc = 2.0 * math.acos(min(1.0, max(-1.0, cos_big)))
    tiny_arc = 2.0 * math.acos(min(1.0, max(-1.0, cos_tiny)))
    return (2.0 * math.pi - k * big_arc) + k * t * (2.0 * math.pi - tiny_arc)


def _covered_angle(arcs) -> float:
    """Length of the union of angular arcs (direction, half-width) of a
    circle, by sorting their pieces on [0, 2pi) and merging in a loop."""
    pieces = []
    for theta, w in arcs:
        if w >= math.pi:
            return 2.0 * math.pi
        lo = (theta - w) % (2.0 * math.pi)
        pieces.append((lo, min(lo + 2.0 * w, 2.0 * math.pi)))
        if lo + 2.0 * w > 2.0 * math.pi:
            pieces.append((0.0, lo + 2.0 * w - 2.0 * math.pi))
    total, run = 0.0, None
    for lo, hi in sorted(pieces):
        if run is not None and lo <= run[1]:
            run[1] = max(run[1], hi)
            continue
        if run is not None:
            total += run[1] - run[0]
        run = [lo, hi]
    return total if run is None else total + run[1] - run[0]


def overlap_distance_oracle(r: float, eps: float) -> float:
    """Center distance at which a disk of radius r meets the unit disk in
    a lens of eps times its own area: Brent's method on the quadrature
    lens."""
    target = eps * math.pi * r * r
    return optimize.brentq(
        lambda rho: lens_volume_quadrature(1.0, r, rho, 2) - target,
        1.0 - r,
        1.0 + r,
        xtol=1e-17,
        rtol=1e-15,
    )


def surrounded_disk_fits(centers, radii, r: float, eps: float) -> bool:
    """Whether a disk of radius r at its eps-overlap distance from the
    unit disk misses every given disk at some angle.

    The angles where it meets disk j form an open arc around disk j's
    direction; its half-width is the triangle angle at the origin for
    sides rho, |c_j| and r + r_j, taken as atan2 of Heron's product so
    it keeps full accuracy for narrow arcs.  The disk fits when the arcs
    leave part of the circle uncovered.
    """
    rho = overlap_distance_oracle(r, eps)
    arcs = []
    for (x, y), s in zip(centers, radii):
        d, reach = math.hypot(x, y), r + s
        if rho + d <= reach:
            return False  # disk j meets every direction
        if abs(rho - d) >= reach:
            continue
        heron = (rho + d + reach) * (d + reach - rho) * (rho + reach - d) * (rho + d - reach)
        half = math.atan2(math.sqrt(heron), (rho - reach) * (rho + reach) + d * d)
        arcs.append((math.atan2(y, x), half))
    return _covered_angle(arcs) < 2.0 * math.pi


def uncovered_arcs(starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Gaps of positive width in [0, 2*pi] outside a union of segments,
    between the components of ``union_components``, which sorts them."""
    lo, hi = union_components(starts, ends)
    gap_lo = np.concatenate(([0.0], hi))
    gap_hi = np.concatenate((lo, [TWO_PI]))
    keep = gap_hi - gap_lo > 0.0
    return gap_lo[keep], gap_hi[keep]


def packing_probe_oracle(disks, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The free arcs of ``_PocketQueue.gaps`` among placed disks, given
    as rows of angle, center distance and radius in any order of the
    columns, for a new disk of radius r at distance rho: none when an
    arc is the whole circle, else every arc cut at 2*pi by
    ``_split_arcs`` and the gaps of their sorted union."""
    angle, dist, radius = disks
    q = _cos_half_angle(dist, rho, r + radius)
    if (q <= -1.0).any():
        return np.empty(0), np.empty(0)
    return uncovered_arcs(*_split_arcs(*_arc_ends(angle, np.arccos(q))))


def free_arc_lengths_oracle(balls: BallCollection) -> list[float]:
    """Length of each circle's part on the boundary of the union of the
    disks, brute force over all pairs.

    Each center distance is taken in 50-digit decimal arithmetic from
    the exact values of the float inputs, and each covered arc's
    half-width as atan2(h, offset), with h the half-chord from Heron's
    formula and offset the signed distance of the chord from the center:
    stable at every overlap width, unlike an arccos of a cosine near 1.
    Equal disks count once, at their lowest index; a circle is free
    wherever no other open disk covers it.
    """
    centers, radii = balls.centers.tolist(), balls.radii.tolist()
    out, seen = [], set()
    with localcontext() as ctx:
        ctx.prec = 50
        for i, ((xi, yi), ri) in enumerate(zip(centers, radii)):
            if (xi, yi, ri) in seen:
                out.append(0.0)
                continue
            seen.add((xi, yi, ri))
            a, arcs = Decimal(ri), []
            for j, ((xj, yj), rj) in enumerate(zip(centers, radii)):
                if j == i or math.hypot(xj - xi, yj - yi) > 2.0 * (ri + rj):
                    continue
                b = Decimal(rj)
                dx, dy = Decimal(xj) - Decimal(xi), Decimal(yj) - Decimal(yi)
                d = (dx * dx + dy * dy).sqrt()
                if d >= a + b or d + b <= a:
                    continue  # j misses the circle or lies inside it
                if d + a <= b:
                    arcs = [(0.0, math.pi)]  # j covers the whole circle
                    break
                heron = (a + b + d) * (a + b - d) * (d + a - b) * (d - a + b)
                h = heron.sqrt() / (2 * d)
                offset = (d * d + a * a - b * b) / (2 * d)
                theta = math.atan2(float(dy), float(dx))
                arcs.append((theta, math.atan2(float(h), float(offset))))
            out.append(ri * (2.0 * math.pi - _covered_angle(arcs)))
    return out


def union_perimeter_mc_points(
    balls: BallCollection, samples_per_ball: int, seed: int
) -> tuple[float, float]:
    """Value and standard error of ``union_perimeter_mc``, counted the
    long way: every draw g of ball i's substream becomes the point
    c_i + r_i g/|g|, kept while |p - c_j| >= r_j for each neighbour j in
    turn.  Same neighbours, coincident merge and substreams as the
    package, drawn in one piece."""
    d = balls.dimension
    centers, radii = balls.centers, balls.radii
    start, owner, partner, rho = balls.pairs
    rep = _coincidence_groups(radii, owner, partner, rho)
    value = variance = 0.0
    for i, r in enumerate(radii.tolist()):
        if rep[i] != i:
            continue
        others = [j for j in partner[start[i] : start[i + 1]].tolist() if rep[j] == j]
        surf = _surface(r, d)
        if not others:
            value += surf
            continue
        g = np.random.default_rng([seed, i]).standard_normal((samples_per_ball, d))
        pts = centers[i] + r * (g / np.sqrt((g * g).sum(axis=1))[:, None])
        for j in others:
            diff = pts - centers[j]
            pts = pts[(diff * diff).sum(axis=1) >= radii[j] ** 2]
        p = len(pts) / samples_per_ball
        value += surf * p
        variance += surf * surf * p * (1.0 - p) / samples_per_ball
    return value, math.sqrt(variance)


def union_volume_mc_all_balls(
    balls: BallCollection, samples: int, seed: int
) -> tuple[float, float, int]:
    """Value, standard error and sample count of ``union_volume_mc`` in
    d >= 2, counted the long way: the same box and draws, every point
    tested against every ball in input order and dropped once one
    contains it.  The draws come in one piece."""
    centers, radii = balls.centers, balls.radii
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    box = float(np.prod(hi - lo))
    pts = np.random.default_rng([seed]).uniform(lo, hi, size=(samples, balls.dimension))
    for c, r in zip(centers, radii):
        diff = pts - c
        pts = pts[(diff * diff).sum(axis=1) > r * r]
    p = (samples - len(pts)) / samples
    return box * p, box * math.sqrt(p * (1.0 - p) / samples), samples


def neighbor_lists_oracle(
    centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``BallCollection.pairs`` from one kd-tree query of radius 2 r_i per
    ball, kept from the larger ball of each pair (equal radii go to the
    lower index), with numpy's row sum for the distance and both
    directions ordered by ``lexsort``."""
    from scipy.spatial import cKDTree

    n = len(radii)
    pad = 1.0 + 1e-9
    hits = cKDTree(centers).query_ball_point(centers, 2.0 * pad * radii, return_sorted=False)
    counts = np.array([len(h) for h in hits], dtype=np.intp)
    first = np.repeat(np.arange(n), counts)
    second = np.array([j for h in hits for j in h], dtype=np.intp)
    r1, r2 = radii[first], radii[second]
    own = (r2 < r1) | ((r2 == r1) & (second > first))
    first, second = first[own], second[own]
    diff = centers[first] - centers[second]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    meet = dist < radii[first] + radii[second]
    owner = np.concatenate([first[meet], second[meet]])
    partner = np.concatenate([second[meet], first[meet]])
    order = np.lexsort((partner, owner))
    owner = owner[order]
    start = np.searchsorted(owner, np.arange(n + 1))
    return start, owner, partner[order], np.tile(dist[meet], 2)[order]


def vitali_select_per_step(balls: BallCollection) -> SelectionResult:
    """``vitali_select`` with its own live mask, the meeting test of each
    chosen ball made at its own step."""
    radii = balls.radii
    start, _, partner, dist = balls.pairs
    alive = np.ones(len(balls), dtype=bool)
    selected: list[int] = []
    groups: dict[int, list[int]] = {}
    for s in np.argsort(-radii, kind="stable").tolist():
        if not alive[s]:
            continue
        near = partner[start[s] : start[s + 1]]
        rho = dist[start[s] : start[s + 1]]
        meets = near[alive[near] & (rho < radii[s] + radii[near] - DISJOINT_TOL)]
        members = np.sort(np.append(meets, s))
        groups[s] = members.tolist()
        selected.append(s)
        alive[members] = False
    params = {"enlargement": 5.0, "disjoint_tol": DISJOINT_TOL}
    return SelectionResult(selected, groups, None, params)


def besicovitch_select_per_step(balls: BallCollection) -> SelectionResult:
    """``besicovitch_select`` with its own uncovered mask, each chosen
    ball colored at its own step and the groups read from a per-ball
    owner array."""
    n = len(balls)
    radii = balls.radii
    start, _, partner, dist = balls.pairs
    uncovered = np.ones(n, dtype=bool)
    covered_by = np.full(n, -1, dtype=int)
    selected: list[int] = []
    colors: dict[int, int] = {}
    for s in np.argsort(-radii, kind="stable").tolist():
        if not uncovered[s]:
            continue
        selected.append(s)
        near = partner[start[s] : start[s + 1]]
        rho = dist[start[s] : start[s + 1]]
        newly = np.append(near[uncovered[near] & (rho <= radii[s])], s)
        covered_by[newly] = s
        uncovered[newly] = False
        meets = near[rho < radii[s] + radii[near] - DISJOINT_TOL]
        used = {colors[t] for t in meets.tolist() if t in colors}
        c = 1
        while c in used:
            c += 1
        colors[s] = c
    count = max(colors.values(), default=0)
    families = [[s for s in selected if colors[s] == c] for c in range(1, count + 1)]
    groups: dict[int, list[int]] = {s: [] for s in selected}
    for j in range(n):
        groups[int(covered_by[j])].append(j)
    params = {
        "radius_slack": 8.0 / 7.0,
        "coloring": "least-unused-among-earlier",
        "disjoint_tol": DISJOINT_TOL,
    }
    return SelectionResult(selected, groups, families, params)


def interval_select_1d_per_step(balls: BallCollection) -> SelectionResult:
    """``interval_select_1d`` with its own live mask, the closure test
    of each chosen interval made at its own step."""
    radii = balls.radii
    lo, hi = balls.centers[:, 0] - radii, balls.centers[:, 0] + radii
    alive = np.ones(len(balls), dtype=bool)
    selected: list[int] = []
    groups: dict[int, list[int]] = {}
    for s in np.argsort(-radii, kind="stable").tolist():
        if not alive[s]:
            continue
        meets = alive & (hi >= lo[s]) & (lo <= hi[s])
        meets[s] = True
        members = np.nonzero(meets)[0]
        groups[s] = members.tolist()
        selected.append(s)
        alive[members] = False
    params = {"enlargement": 5.0, "closure_rule": "touching closures meet"}
    return SelectionResult(selected, groups, None, params)


def perimeter_vitali_select_per_step(
    balls: BallCollection, eps: float
) -> tuple[list[int], dict[int, list[int]]]:
    """Selection and groups of ``perimeter_vitali_select``, with the
    lenses of each chosen ball against its neighbours and itself
    computed at its own step."""
    d = balls.dimension
    threshold_factor = (7.0 / 8.0) ** d * float(eps)
    radii = balls.radii
    volumes = unit_ball_volume(d) * radii**d
    start, _, partner, dist = balls.pairs
    candidate = np.ones(len(balls), dtype=bool)
    selected: list[int] = []
    groups: dict[int, list[int]] = {}
    for s in np.argsort(-radii, kind="stable").tolist():
        if not candidate[s]:
            continue
        selected.append(s)
        near = np.append(partner[start[s] : start[s + 1]], s)
        rho = np.append(dist[start[s] : start[s + 1]], 0.0)
        lens = _lens_volumes(radii[near], radii[s], rho, d)
        hit = np.sort(near[lens >= threshold_factor * volumes[near]])
        groups[s] = hit[radii[hit] <= (8.0 / 7.0) * radii[s]].tolist()
        candidate[hit] = False
    return selected, groups


def random_step_function(rng: np.random.Generator, max_pieces: int = 12) -> StepFunction:
    """Nonnegative step function with irrational-ish breakpoints."""
    k = int(rng.integers(1, max_pieces + 1))
    xs = np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(0.05, 2.0, k)]))
    vs = rng.uniform(0.0, 3.0, k) * (rng.uniform(0.0, 1.0, k) > 0.2)
    return StepFunction(tuple(float(x) for x in xs), tuple(float(v) for v in vs))
