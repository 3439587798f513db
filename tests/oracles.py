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
    _haversine,
    _lens_volumes,
    _sphere_frame,
    _split_arcs,
    _surface,
    union_components,
    unit_ball_volume,
)
from ballcover.maximal1d import StepFunction, _superlevel_components
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        early_hi = np.minimum(left + (pm[:-1] - g[:-1]) / slope, right)
        late_lo = np.maximum(right + (sm[1:] - g[1:]) / slope, left)
        head_lo = xs[0] - (sm[0] - g[0]) / level
        tail_hi = xs[-1] + (g[-1] - pm[-1]) / level
    lo = [left[~falls], left[early], late_lo[late]]
    hi = [right[~falls], early_hi[early], right[late]]
    if sm[0] > g[0]:
        lo.append([head_lo])
        hi.append([xs[0]])
    if g[-1] > pm[-1]:
        lo.append([xs[-1]])
        hi.append([tail_hi])
    lo, hi = union_components(np.concatenate(lo), np.concatenate(hi))
    # only components holding a whole piece with |f| >= level are real
    whole = np.zeros(lo.size, dtype=bool)
    whole[np.searchsorted(lo, left[~falls], side="right") - 1] = True
    return lo[whole], hi[whole]


def variation_check_levels_oracle(g: StepFunction, n: int):
    """The critical levels of g = |f|, the cuts between the gaps they
    leave, and the level grid of ``maximal1d.maximal_variation_check``
    at grid size n: the piece values and the average over every
    breakpoint pair from ``np.triu_indices``, sorted and unique, the
    cuts from ``np.union1d`` and the grid one level at a time in Python
    floats."""
    xs, _, vs, prefix = g._arrays
    i, j = np.triu_indices(len(xs), k=1)
    averages = (prefix[j] - prefix[i]) / (xs[j] - xs[i])
    critical = np.unique(np.concatenate([vs, averages]))
    max_mf = max(g.values)
    cuts = np.union1d(0.0, critical[critical <= max_mf])
    grid = [max_mf * k / (n + 1) for k in range(1, n + 1)]
    return critical, cuts, grid


def maximal_chain_oracle(f: StepFunction, level: float):
    """The members (lo, hi) of ``maximal1d._maximal_chain`` and its
    component count, by its first walk: numpy searches on the negated
    prefix-minimum and suffix-maximum arrays, and numpy scalar
    arithmetic, at every step."""
    _, starts, _, (xs, g, slope, pm, sm) = _superlevel_components(f, np.array([level]))
    g, slope, pm, sm = g[0], slope[0], pm[0], sm[0]
    out = []
    for start in starts:
        c = sm[np.searchsorted(xs, start)]
        while True:
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
                out.append((float(a), float(b)))
            if pm[jb] >= c:
                break
            c = pm[jb]
    return out, starts.size


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


def exact_zigzag_variation(f: StepFunction) -> Fraction:
    """var(Mf) in rational arithmetic by the closed form of ``maximal1d``:
    2 (sum of B_j - sum of D_j), with B_j the largest average over
    breakpoints x_i <= x_j <= x_l and D_j the largest over
    x_i <= x_j < x_l.  It walks each left end's averages from the right
    with a running maximum, O(k^2) averages in all."""
    F = exact_antiderivative(f)
    xs = [Fraction(x) for x in f.breakpoints]
    mass = [F(x) for x in xs]
    n = len(xs)
    # spans[c]: the largest average over (x_i, x_l) with i < c <= l
    spans: list[Fraction | None] = [None] * n
    peaks = []
    for i in range(n):
        best = None
        for l in range(n - 1, i, -1):
            avg = (mass[l] - mass[i]) / (xs[l] - xs[i])
            best = avg if best is None else max(best, avg)
            spans[l] = best if spans[l] is None else max(spans[l], best)
        peaks.append(max(v for v in (best, spans[i]) if v is not None))
    return 2 * (sum(peaks) - sum(spans[1:]))


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


# ``counterexample._secant`` word for word as it was while each trial
# clamped through min and max: the reference that the cheaper trials of
# the program must match float for float.
def secant_oracle(opening, distance, a, a_rho, fa, b, b_rho, fb, tol):
    """Bracket to width tol the radius at which ``opening(rho, r)`` turns
    from positive to at most 0, by a secant with the Illinois halving:
    the radii a < b have center distances a_rho, b_rho and openings
    fa > 0 >= fb.  Returns the two ends of the last bracket with their
    distances; each trial radius takes one ``distance(r)`` call."""
    side = 0
    while b - a > tol:
        # fa halves to 0.0 on a band where the opening is exactly 0
        c = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
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
    arc is the whole circle, else every arc, its half-width from
    ``_haversine`` and the scalar asin of the probe, cut at 2*pi by
    ``_split_arcs`` and the gaps of their sorted union."""
    angle, dist, radius = disks
    x = _haversine(dist, rho, r + radius)
    if (x >= 1.0).any():
        return np.empty(0), np.empty(0)
    h = np.array([2.0 * math.asin(math.sqrt(v)) for v in x.tolist()])
    return uncovered_arcs(*_split_arcs(*_arc_ends(angle, h)))


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
    long way: ball i's substream, drawn in one piece, gives its points
    p, kept while |p - c_j| >= r_j for each neighbour j in turn.  Same
    neighbours, coincident merge and substreams as the package.

    - d = 2: a uniform t per draw, p = c_i + r_i (cos 2 pi t, sin 2 pi t);
    - d = 3: uniform pairs (u, v) per draw, z = 2u - 1 and
      phi = 2 pi (v - 1/2),
      p = c_i + r_i (z e0 + sqrt(1 - z^2)(cos phi e1 + sin phi e2)) in
      ``_sphere_frame`` of e0 = w/rho, w = c_j - c_i for the first
      neighbour j with 0 < rho and (rho^2 + r_i^2 - r_j^2) / (2 r_i) <
      rho, in the package's floats: the first that blocks a direction
      (the first axis if none: then no neighbour blocks one, or the
      sphere lies inside a concentric ball);
    - d >= 4: a standard Gaussian g per draw, p = c_i + r_i g/|g|.
    """
    d = balls.dimension
    centers, radii = balls.centers, balls.radii
    start, owner, partner, rho = balls.pairs
    rep = _coincidence_groups(radii, owner, partner, rho)
    value = variance = 0.0
    for i, r in enumerate(radii.tolist()):
        if rep[i] != i:
            continue
        entries = slice(start[i], start[i + 1])
        near = [
            (j, dist)
            for j, dist in zip(partner[entries].tolist(), rho[entries].tolist())
            if rep[j] == j
        ]
        surf = _surface(r, d)
        if not near:
            value += surf
            continue
        rng = np.random.default_rng([seed, i])
        if d == 2:
            angle = TWO_PI * rng.random(samples_per_ball)
            dirs = np.column_stack([np.cos(angle), np.sin(angle)])
        elif d == 3:
            u = rng.random((samples_per_ball, 2))
            z, phi = 2.0 * u[:, 0] - 1.0, TWO_PI * (u[:, 1] - 0.5)
            axis = next(
                (
                    (centers[j] - centers[i]) / dist
                    for j, dist in near
                    if 0.0 < dist and (dist * dist + r * r - radii[j] ** 2) / (2.0 * r) < dist
                ),
                np.eye(3)[0],
            )
            e0, e1, e2 = _sphere_frame(axis)
            ring = np.sqrt(1.0 - z * z)
            dirs = np.outer(z, e0) + np.outer(ring * np.cos(phi), e1)
            dirs += np.outer(ring * np.sin(phi), e2)
        else:
            g = rng.standard_normal((samples_per_ball, d))
            dirs = g / np.sqrt((g * g).sum(axis=1))[:, None]
        pts = centers[i] + r * dirs
        for j, _ in near:
            diff = pts - centers[j]
            pts = pts[(diff * diff).sum(axis=1) >= radii[j] ** 2]
        p = len(pts) / samples_per_ball
        value += surf * p
        variance += surf * surf * p * (1.0 - p) / samples_per_ball
    return value, math.sqrt(variance)


def disjoint_cap_free_area(balls: BallCollection) -> float | None:
    """Boundary area of a union of balls in R^3 in closed form, or None
    when it has none here: when one ball holds another, or when two of
    the caps that the other balls cut from one sphere meet.

    Ball j cuts from sphere i the cap of directions within angle a_ij
    of c_j - c_i, cos a_ij = (rho^2 + r_i^2 - r_j^2) / (2 r_i rho), of
    area 2 pi r_i^2 (1 - cos a_ij) (Archimedes).  Caps whose axes lie
    at least a_ij + a_ik apart are disjoint, and the sphere keeps
    4 pi r_i^2 less their areas.  Pairs are found by brute force."""
    centers, radii = balls.centers, balls.radii
    total = 0.0
    for i, (ci, ri) in enumerate(zip(centers, radii.tolist())):
        caps = []
        for j, (cj, rj) in enumerate(zip(centers, radii.tolist())):
            w = cj - ci
            rho = math.sqrt(float(w @ w))
            if j == i or rho >= ri + rj:
                continue
            if rho <= abs(ri - rj):
                return None
            cos_a = (rho * rho + ri * ri - rj * rj) / (2.0 * ri * rho)
            caps.append((w / rho, math.acos(cos_a), cos_a))
        for a, (axis_a, angle_a, _) in enumerate(caps):
            for axis_b, angle_b, _ in caps[a + 1 :]:
                between = math.acos(min(1.0, float(axis_a @ axis_b)))
                if between < angle_a + angle_b:
                    return None
        total += 2.0 * math.pi * ri * ri * (2.0 - sum(1.0 - cos_a for *_, cos_a in caps))
    return total


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


def select_law(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of n disks of the ``select`` benchmark law at
    its density: radii log-uniform in [0.005, 1], about five meeting
    neighbours per disk."""
    rng = np.random.default_rng([seed, 5])
    centers = rng.uniform(0.0, 22.0 * math.sqrt(n / 3000.0), (n, 2))
    return centers, np.exp(rng.uniform(math.log(0.005), 0.0, n))


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


def random_step_function(
    rng: np.random.Generator, max_pieces: int = 12, min_pieces: int = 1
) -> StepFunction:
    """Nonnegative step function with irrational-ish breakpoints."""
    k = int(rng.integers(min_pieces, max_pieces + 1))
    xs = np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(0.05, 2.0, k)]))
    vs = rng.uniform(0.0, 3.0, k) * (rng.uniform(0.0, 1.0, k) > 0.2)
    return StepFunction(tuple(float(x) for x in xs), tuple(float(v) for v in vs))
