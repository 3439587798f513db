"""Reference computations and output checks for the benchmark.

Nothing here calls into ``ballcover``: circle arcs, lens areas, cap
areas, step-function averages and the parsers of the CLI's text outputs
are written out again from first principles, so a check that passes is
evidence about the program and not a copy of it.  Every ``check_*``
function returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi
# Chance that one Monte Carlo comparison fails on correct code.
MC_FALSE_ALARM = 1e-6


# ---------------------------------------------------------------------------
# plane geometry


def t_minus_sin(t):
    """t - sin(t) for t in [0, 2 pi], by its Taylor series below 0.5 so
    thin circular segments keep full relative accuracy."""
    t = np.asarray(t, dtype=float)
    out = t - np.sin(t)
    small = t < 0.5
    if np.any(small):
        ts = t[small]
        t2 = ts * ts
        term = ts * t2 / 6.0
        acc = term.copy()
        for k in range(2, 10):
            term = -term * t2 / ((2 * k) * (2 * k + 1))
            acc = acc + term
        out[small] = acc
    return out


def lens_area(r1, r2, d):
    """Area of the intersection of two disks at centre distance d."""
    r1, r2, d = np.broadcast_arrays(
        np.asarray(r1, float), np.asarray(r2, float), np.asarray(d, float)
    )
    out = np.zeros(r1.shape)
    inside = d <= np.abs(r1 - r2)
    out[inside] = math.pi * np.minimum(r1, r2)[inside] ** 2
    cross = ~inside & (d < r1 + r2)
    if np.any(cross):
        a, b, dd = r1[cross], r2[cross], d[cross]
        # half the common chord by Heron's product: no cancellation when
        # the circles barely cross
        prod = (a + b + dd) * (a + b - dd) * (dd + a - b) * (dd - a + b)
        h = np.sqrt(np.maximum(prod, 0.0)) / (2.0 * dd)
        th1 = np.arctan2(h, (dd * dd + a * a - b * b) / (2.0 * dd))
        th2 = np.arctan2(h, (dd * dd + b * b - a * a) / (2.0 * dd))
        out[cross] = 0.5 * (a * a * t_minus_sin(2.0 * th1) + b * b * t_minus_sin(2.0 * th2))
    return out


def overlapping_pairs(centers, radii, slack: float = 0.0):
    """All pairs (i, j), i < j, whose open balls meet (or come within
    slack of meeting), with their distances.

    Each ball searches a radius of twice its own and keeps partners no
    larger than itself, so every meeting pair is found exactly once.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    n = len(radii)
    if n < 2:
        return np.zeros((0, 2), int), np.zeros(0)
    tree = cKDTree(centers)
    found = tree.query_ball_point(centers, 2.0 * radii + slack)
    rows, cols = [], []
    for i, cand in enumerate(found):
        cand = np.asarray(cand, dtype=int)
        keep = (radii[cand] < radii[i]) | ((radii[cand] == radii[i]) & (cand < i))
        cand = cand[keep]
        rows.append(np.full(cand.size, i))
        cols.append(cand)
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    d = np.sqrt(((centers[i] - centers[j]) ** 2).sum(axis=1))
    meet = d < radii[i] + radii[j] + slack
    i, j, d = i[meet], j[meet], d[meet]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return np.stack([lo, hi], axis=1), d


def _arc_union_length(arcs) -> float:
    """Length of a union of angular arcs given as (centre, half-width)."""
    pieces = []
    for theta, w in arcs:
        if w >= math.pi:
            return TWO_PI
        lo = (theta - w) % TWO_PI
        hi = lo + 2.0 * w
        if hi > TWO_PI:
            pieces.append((lo, TWO_PI))
            pieces.append((0.0, hi - TWO_PI))
        else:
            pieces.append((lo, hi))
    pieces.sort()
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def circle_cover_arcs(centers, radii):
    """Per circle, the arcs (centre angle, half-width) inside other open
    disks, and whether the circle lies wholly inside another disk.

    Distances, chords and chord offsets are taken in 50-digit decimal
    arithmetic from the exact values of the float inputs: the packings
    hold hundreds of pairs that overlap by less than one float ulp of
    their centre distance, whose thin covered arcs no double-precision
    formula resolves.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    n = len(radii)
    arcs = [[] for _ in range(n)]
    buried = np.zeros(n, dtype=bool)
    pairs, _ = overlapping_pairs(centers, radii, slack=1e-9)
    with localcontext() as ctx:
        ctx.prec = 50
        for i, j in pairs.tolist():
            dx = Decimal(centers[j, 0]) - Decimal(centers[i, 0])
            dy = Decimal(centers[j, 1]) - Decimal(centers[i, 1])
            d = (dx * dx + dy * dy).sqrt()
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                ra, rb = Decimal(radii[a]), Decimal(radii[b])
                if d >= ra + rb or d + rb <= ra:
                    continue
                if d + ra <= rb:
                    buried[a] = True
                    continue
                heron = (ra + rb + d) * (ra + rb - d) * (d + ra - rb) * (d - ra + rb)
                h = heron.sqrt() / (2 * d)
                offset = (d * d + ra * ra - rb * rb) / (2 * d)
                theta = math.atan2(sign * float(dy), sign * float(dx))
                arcs[a].append((theta, math.atan2(float(h), float(offset))))
    return arcs, buried


def free_arc_lengths(centers, radii) -> np.ndarray:
    """Length of each circle's part on the boundary of the union of the
    disks (coincident disks are not merged; inputs here have none)."""
    radii = np.asarray(radii, float)
    arcs, buried = circle_cover_arcs(centers, radii)
    out = np.empty(len(radii))
    for i, (r, a) in enumerate(zip(radii, arcs)):
        out[i] = 0.0 if buried[i] else r * (TWO_PI - _arc_union_length(a))
    return out


def sampled_free_length(center, radius, others_c, others_r, samples: int):
    """Free length of one circle by midpoint sampling of its angles, and
    the bound on that sampling's error.

    The covered set is a union of at most m arcs, one per other disk, so
    the indicator of the free set jumps at most 2m times; only the cells
    holding a jump can be misclassified, each by at most one cell.
    """
    h = TWO_PI / samples
    ang = (np.arange(samples) + 0.5) * h
    px = center[0] + radius * np.cos(ang)
    py = center[1] + radius * np.sin(ang)
    free = np.ones(samples, dtype=bool)
    for (cx, cy), r in zip(others_c, others_r):
        free &= (px - cx) ** 2 + (py - cy) ** 2 >= r * r
    estimate = radius * h * int(free.sum())
    bound = radius * h * 2 * len(others_r) + 1e-12 * radius
    return estimate, bound


# ---------------------------------------------------------------------------
# spheres in 3D


def sphere_caps(centers, radii):
    """Exact free area per sphere where the caps cut from it by other
    balls are pairwise disjoint; None for a collection where they are not.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    n = len(radii)
    caps = [[] for _ in range(n)]  # (unit axis, half-angle, area)
    buried = np.zeros(n, dtype=bool)
    pairs, dist = overlapping_pairs(centers, radii)
    for (i, j), d in zip(pairs.tolist(), dist.tolist()):
        for a, b in ((i, j), (j, i)):
            ra, rb = radii[a], radii[b]
            if d + ra <= rb:
                buried[a] = True
            elif d + rb > ra:
                offset = (d * d + ra * ra - rb * rb) / (2.0 * d)
                axis = (centers[b] - centers[a]) / d
                caps[a].append((axis, math.acos(offset / ra), TWO_PI * ra * (ra - offset)))
    free = np.empty(n)
    for i in range(n):
        if buried[i]:
            free[i] = 0.0
            continue
        cs = caps[i]
        for x in range(len(cs)):
            for y in range(x + 1, len(cs)):
                cos_gap = float(np.clip(cs[x][0] @ cs[y][0], -1.0, 1.0))
                if math.acos(cos_gap) < cs[x][1] + cs[y][1]:
                    return None
        free[i] = 2.0 * TWO_PI * radii[i] ** 2 - sum(c[2] for c in cs)
    return free


def mc_tolerance(surfaces, free, samples_per_ball: int) -> float:
    """Deviation a correct per-ball Monte Carlo boundary estimate exceeds
    with probability at most MC_FALSE_ALARM (Bernstein's inequality).

    Ball i contributes surface_i * (share of its samples outside the
    other balls); its exact share is free_i / surface_i, which gives the
    exact variance of the estimate and the bound on one sample's weight.
    """
    surfaces = np.asarray(surfaces, float)
    p = np.clip(np.asarray(free, float) / surfaces, 0.0, 1.0)
    var = float((surfaces**2 * p * (1.0 - p)).sum()) / samples_per_ball
    weight = float(surfaces.max()) / samples_per_ball
    log_term = math.log(2.0 / MC_FALSE_ALARM)
    lin = log_term * weight / 3.0
    return lin + math.sqrt(lin * lin + 2.0 * log_term * var)


# ---------------------------------------------------------------------------
# step functions


class StepRef:
    """|f| of a step function, with prefix sums kept apart from the program."""

    def __init__(self, breakpoints, values):
        self.x = [float(v) for v in breakpoints]
        self.v = [abs(float(v)) for v in values]
        self.mass = [0.0]
        for i, v in enumerate(self.v):
            self.mass.append(self.mass[-1] + v * (self.x[i + 1] - self.x[i]))

    def antiderivative(self, t: float) -> float:
        x = self.x
        if t <= x[0]:
            return 0.0
        if t >= x[-1]:
            return self.mass[-1]
        lo, hi = 0, len(x) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if x[mid] <= t:
                lo = mid
            else:
                hi = mid
        return self.mass[lo] + self.v[lo] * (t - x[lo])

    def average(self, a: float, b: float) -> float:
        return (self.antiderivative(b) - self.antiderivative(a)) / (b - a)

    def variation(self) -> float:
        vals = [0.0] + self.v + [0.0]
        return math.fsum(abs(b - a) for a, b in zip(vals, vals[1:]))

    def boundary_count(self, level: float) -> int:
        """Boundary points of {|f| >= level}: two per run of pieces."""
        runs = 0
        prev = False
        for v in self.v:
            on = v >= level
            runs += on and not prev
            prev = on
        return 2 * runs

    def maximal(self, t: float) -> float:
        """Mf(t) by brute force: best average over intervals whose closure
        holds t, with endpoints among the breakpoints and t itself."""
        left = [a for a in self.x if a < t]
        right = [b for b in self.x if b > t]
        fa = [self.antiderivative(a) for a in left]
        fb = [self.antiderivative(b) for b in right]
        ft = self.antiderivative(t)
        best = 0.0
        for a, va in zip(left, fa):
            best = max(best, (ft - va) / (t - a))
            for b, vb in zip(right, fb):
                best = max(best, (vb - va) / (b - a))
        for b, vb in zip(right, fb):
            best = max(best, (vb - ft) / (b - t))
        return best


def check_superlevel_membership(ref: StepRef, level: float, components, points) -> list[str]:
    """Brute-force Mf >= level at sample points against the components
    of {Mf >= level} the program returned (closed intervals)."""
    errors = []
    tol = 1e-9 * max(1.0, level)
    for t in points:
        mf = ref.maximal(t)
        if abs(mf - level) <= tol:
            continue
        near_end = any(min(abs(t - lo), abs(t - hi)) <= 1e-9 for lo, hi in components)
        if near_end:
            continue
        inside = any(lo <= t <= hi for lo, hi in components)
        if inside != (mf > level):
            errors.append(
                f"Mf({t!r}) = {mf!r} vs level {level!r}, but membership is {inside}"
            )
            break
    return errors


# ---------------------------------------------------------------------------
# parsers of the CLI's text outputs


def parse_selection(text: str) -> dict:
    out = {"selected": None, "groups": {}, "families": [], "params": {}}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "selected":
            out["selected"] = [int(p) for p in rest.split()]
        elif head == "group":
            key, *members = rest.split()
            out["groups"][int(key)] = [int(p) for p in members]
        elif head == "family":
            out["families"].append([int(p) for p in rest.split()[1:]])
        elif head == "param":
            key, _, val = rest.partition("=")
            out["params"][key] = val
        else:
            raise ValueError(f"unknown selection line {line!r}")
    if out["selected"] is None:
        raise ValueError("no 'selected' line")
    return out


def parse_rate(text: str) -> dict:
    """The CSV of ``ballcover rate``: eps, G per row, and U and the raw
    ratio P / (2 pi) per eps from the comment lines."""
    rows, extra = [], {}
    for line in text.splitlines():
        if line.startswith("# uncovered="):
            fields = dict(p.split("=", 1) for p in line[2:].split())
            extra[float(fields["eps"])] = (
                float(fields["uncovered"]),
                float(fields["raw_ratio"]),
            )
        elif line and not line.startswith("#") and line != "eps,ratio":
            eps, ratio = line.split(",")
            rows.append((float(eps), float(ratio)))
    return {
        "eps": [e for e, _ in rows],
        "ratio": [g for _, g in rows],
        "uncovered": [extra[e][0] for e, _ in rows],
        "raw_ratio": [extra[e][1] for e, _ in rows],
    }


def parse_check_report(text: str) -> dict:
    reports, summary = [], {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for line in lines:
        if line.startswith("check="):
            fields = dict(p.split("=", 1) for p in line.split())
            reports.append(
                {
                    "lhs": float(fields["lhs"]),
                    "rhs": float(fields["rhs"]),
                    "passed": fields["passed"] == "True",
                    "params": fields,
                }
            )
        elif not line.startswith("check_id"):
            name, size, passes, _ = line.split()
            summary[name] = (int(size), int(passes))
    return {"reports": reports, "summary": summary}


def parse_level_line(text: str) -> dict:
    line = [ln for ln in text.splitlines() if ln.startswith("level ")][-1]
    head, *fields = line.split()
    out = {k: int(v) for k, v in (f.split("=") for f in fields[1:])}
    out["level"] = float(fields[0])
    return out


# ---------------------------------------------------------------------------
# checks, one per operation kind


def check_packing(centers, radii, eps: float, delta: float) -> tuple[list[str], dict]:
    """Surrounded-ball packing: the unit disk first, then small disks
    each overlapping it in eps times their own area.  Returns the errors
    and the reference perimeter P and bare length L0 of the unit circle.
    """
    errors = []
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    if radii[0] != 1.0 or np.any(centers[0] != 0.0):
        errors.append("ball 0 is not the unit disk at the origin")
    r = radii[1:]
    rho = np.sqrt((centers[1:] ** 2).sum(axis=1))
    if np.any(np.diff(r) > 0.0):
        errors.append("small radii increase somewhere")
    if np.any(r < delta * 1e-3) or np.any(r > delta):
        errors.append("a small radius lies outside [delta * 1e-3, delta]")
    lens = lens_area(r, 1.0, rho)
    rel = np.abs(lens - eps * math.pi * r * r) / (eps * math.pi * r * r)
    if rel.size and rel.max() > 1e-9:
        errors.append(f"lens with the unit disk off by {rel.max():.3g} (relative)")
    pairs, dist = overlapping_pairs(centers[1:], r)
    depth = r[pairs[:, 0]] + r[pairs[:, 1]] - dist
    if depth.size and depth.max() > 1e-12:
        errors.append(f"small disks overlap by {depth.max():.3g} in centre distance")
    lengths = free_arc_lengths(centers, radii)
    return errors, {
        "perimeter": float(math.fsum(lengths)),
        "bare": float(lengths[0]),
        "disks": int(r.size),
        "near_tangent_pairs": int(depth.size),
    }


# Relative agreement asked of the program's packing perimeter.  The
# reference resolves the near-tangent pairs exactly; a double-precision
# evaluation cannot (it is off by 0.2e-9 to 2.2e-9 over seeds 1 to 10),
# while leaving the slivers out altogether is off by about 4e-7.
PERIMETER_RTOL = 1e-8


def check_rate(rate: dict, refs: list[dict]) -> list[str]:
    """``ballcover rate`` against the reference perimeters of its packings.

    The bare length L0 of the unit circle may differ by 1e-12 rad per arc
    on it: the program drops uncovered gaps below that width.
    """
    errors = []
    if len(rate["eps"]) != len(refs):
        return [f"rate reports {len(rate['eps'])} points for {len(refs)} packings"]
    for eps, g, u, raw, ref in zip(
        rate["eps"], rate["ratio"], rate["uncovered"], rate["raw_ratio"], refs
    ):
        p, bare = ref["perimeter"], ref["bare"]
        tol_p = PERIMETER_RTOL * p
        tol_bare = 1e-12 * (ref["disks"] + 1)
        if abs(raw * TWO_PI - p) > tol_p:
            errors.append(f"eps={eps!r}: perimeter {raw * TWO_PI!r}, reference {p!r}")
        if abs(u * TWO_PI - bare) > tol_bare:
            errors.append(f"eps={eps!r}: bare length {u * TWO_PI!r}, reference {bare!r}")
        g_ref = (p - bare) / (TWO_PI - bare)
        tol_g = (tol_p + tol_bare * (1.0 + g_ref)) / (TWO_PI - bare) + 1e-12 * g_ref
        if abs(g - g_ref) > tol_g:
            errors.append(f"eps={eps!r}: ratio {g!r}, reference {g_ref!r}")
    order = np.argsort(rate["eps"])[::-1]
    g_sorted = np.asarray(rate["ratio"])[order]
    if np.any(np.diff(g_sorted) <= 0.0):
        errors.append("the ratio G does not grow as eps shrinks")
    return errors


def check_mc(est, centers, radii, samples_per_ball: int, exact=None) -> list[str]:
    """Monte Carlo boundary estimate against the exact free boundary
    (2D: the program's exact arc perimeter, with the per-ball shares from
    this module's own arcs; 3D: closed-form caps when they are disjoint).
    """
    radii = np.asarray(radii, float)
    dim = np.asarray(centers).shape[1]
    errors = []
    if est.method != "montecarlo":
        errors.append(f"method {est.method!r}")
    if est.sample_count != samples_per_ball * len(radii):
        errors.append(f"sample_count {est.sample_count} for {len(radii)} balls")
    surfaces = TWO_PI * radii if dim == 2 else 2.0 * TWO_PI * radii**2
    free = free_arc_lengths(centers, radii) if dim == 2 else sphere_caps(centers, radii)
    if free is None:
        if not 0.0 <= est.value <= surfaces.sum() * (1 + 1e-12):
            errors.append(f"value {est.value!r} outside [0, total surface]")
        return errors
    reference = float(math.fsum(free)) if exact is None else float(exact)
    if abs(reference - math.fsum(free)) > 1e-9 * max(reference, 1e-300):
        errors.append(f"exact perimeter {reference!r}, own arcs give {math.fsum(free)!r}")
    tol = mc_tolerance(surfaces, free, samples_per_ball) + 1e-12 * surfaces.sum()
    if abs(est.value - reference) > tol:
        errors.append(
            f"MC {est.value!r} +- {est.std_error!r} vs exact {reference!r} "
            f"(allowed {tol:.3g})"
        )
    return errors


def check_thm13_report(parsed: dict, count: int) -> list[str]:
    reps = parsed["reports"]
    errors = []
    if len(reps) != count:
        errors.append(f"{len(reps)} reports for {count} instances")
    bad = [k for k, r in enumerate(reps) if not r["passed"] or not r["lhs"] <= r["rhs"]]
    if bad:
        errors.append(f"thm13 reports {bad[:5]} fail")
    if parsed["summary"].get("thm13") != (count, count):
        errors.append(f"summary {parsed['summary']}")
    return errors


def _groups_partition(sel: dict, n: int) -> list[str]:
    seen = np.zeros(n, dtype=int)
    for members in sel["groups"].values():
        seen[members] += 1
    if np.any(seen != 1):
        return [f"{int((seen != 1).sum())} inputs are not in exactly one group"]
    return []


def _overlapping_among(centers, radii, idx, slack=1e-12):
    """Pairs of idx whose balls overlap by more than slack."""
    idx = np.asarray(idx, dtype=int)
    pairs, dist = overlapping_pairs(centers[idx], radii[idx])
    a, b = idx[pairs[:, 0]], idx[pairs[:, 1]]
    bad = dist < radii[a] + radii[b] - slack
    return list(zip(a[bad].tolist(), b[bad].tolist()))


def check_vitali(sel: dict, centers, radii) -> list[str]:
    """Chosen balls disjoint; every input meets a chosen ball at least as large."""
    errors = _groups_partition(sel, len(radii))
    if sorted(sel["groups"]) != sorted(sel["selected"]):
        errors.append("group keys differ from the chosen balls")
    bad = _overlapping_among(centers, radii, sel["selected"])
    if bad:
        errors.append(f"chosen balls {bad[0]} overlap")
    for s, members in sel["groups"].items():
        m = np.asarray(members, dtype=int)
        d = np.sqrt(((centers[m] - centers[s]) ** 2).sum(axis=1))
        if np.any(radii[m] > radii[s]) or np.any(d > radii[s] + radii[m]):
            errors.append(f"group {s} holds a ball that does not meet it or is larger")
            break
    return errors


def check_besicovitch(sel: dict, centers, radii, winner_only: bool = False) -> list[str]:
    """Every centre in its representative within the 8/7 radius slack;
    the families partition the chosen balls and each is disjoint."""
    errors = _groups_partition(sel, len(radii))
    for s, members in sel["groups"].items():
        m = np.asarray(members, dtype=int)
        d = np.sqrt(((centers[m] - centers[s]) ** 2).sum(axis=1))
        if np.any(d > radii[s] + 1e-12) or np.any(radii[m] > (8.0 / 7.0) * radii[s] + 1e-12):
            errors.append(f"group {s} holds a centre outside it or a ball above 8/7 its radius")
            break
    fams = sel["families"]
    chosen = sorted(sel["groups"])
    if sorted(i for f in fams for i in f) != chosen:
        errors.append("families do not partition the chosen balls")
    for f in fams:
        bad = _overlapping_among(centers, radii, f)
        if bad:
            errors.append(f"family balls {bad[0]} overlap")
            break
    if winner_only:
        totals = [float(radii[f].sum()) for f in fams]
        if sorted(sel["selected"]) != sorted(fams[int(np.argmax(totals))]):
            errors.append("selected family is not the one of largest perimeter")
    elif sorted(sel["selected"]) != chosen:
        errors.append("group keys differ from the chosen balls")
    return errors


def check_perimeter_vitali(sel: dict, centers, radii, eps: float) -> list[str]:
    """Pairwise lenses at most eps times the smaller area; every group
    inside 23/7 times its chosen ball."""
    errors = []
    idx = np.asarray(sel["selected"], dtype=int)
    pairs, dist = overlapping_pairs(centers[idx], radii[idx])
    a, b = idx[pairs[:, 0]], idx[pairs[:, 1]]
    lens = lens_area(radii[a], radii[b], dist)
    cap = eps * math.pi * np.minimum(radii[a], radii[b]) ** 2
    if np.any(lens > cap * (1.0 + 1e-9)):
        k = int(np.argmax(lens / cap))
        share = lens[k] / cap[k] * eps
        errors.append(f"chosen {a[k]},{b[k]} share {share:.3g} of the smaller area")
    for s, members in sel["groups"].items():
        m = np.asarray(members, dtype=int)
        reach = np.sqrt(((centers[m] - centers[s]) ** 2).sum(axis=1)) + radii[m]
        if np.any(reach > (23.0 / 7.0) * radii[s] + 1e-12):
            errors.append(f"group {s} reaches beyond 23/7 of its chosen ball")
            break
    return errors


def check_free_arcs(lengths, total: float, centers, radii, circles, samples: int) -> list[str]:
    """Per-circle free lengths against dense angular sampling, and their
    sum against the reported union perimeter."""
    errors = []
    lengths = np.asarray(lengths, float)
    if abs(math.fsum(lengths) - total) > 1e-12 * max(total, 1.0):
        errors.append(f"free lengths sum to {math.fsum(lengths)!r}, perimeter {total!r}")
    tree = cKDTree(centers)
    rmax = float(radii.max())
    for i in circles:
        cand = [j for j in tree.query_ball_point(centers[i], radii[i] + rmax) if j != i]
        cand = [j for j in cand if np.hypot(*(centers[j] - centers[i])) < radii[i] + radii[j]]
        est, bound = sampled_free_length(centers[i], radii[i], centers[cand], radii[cand], samples)
        if abs(est - lengths[i]) > bound:
            errors.append(
                f"circle {i}: free length {lengths[i]!r}, sampled {est!r} +- {bound:.3g}"
            )
            break
    return errors


def check_variation_report(report, ref: StepRef, levels: int) -> list[str]:
    """maximal_variation_check: the certified bound stays below var(|f|)
    and no counted level has more boundary points for Mf than for |f|."""
    errors = []
    var = ref.variation()
    if abs(report.var_f - var) > 1e-12 * max(var, 1.0):
        errors.append(f"var_f {report.var_f!r}, own variation {var!r}")
    if report.var_mf_lower_bound > var + 1e-9:
        errors.append(
            f"certified var(Mf) bound {report.var_mf_lower_bound!r} exceeds var(|f|) {var!r}"
        )
    expected = levels if max(ref.v) > 0.0 else 0
    if len(report.levels) != expected:
        errors.append(f"{len(report.levels)} levels, expected {expected}")
    for rec in report.levels:
        if rec.skipped:
            continue
        if rec.count_maximal > rec.count_function:
            errors.append(
                f"level {rec.level!r}: Mf has {rec.count_maximal} boundary points, "
                f"|f| {rec.count_function}"
            )
            break
        if rec.count_function != ref.boundary_count(rec.level):
            errors.append(
                f"level {rec.level!r}: count_function {rec.count_function}, "
                f"own {ref.boundary_count(rec.level)}"
            )
            break
    if not report.passed:
        errors.append("report not passed")
    return errors


def check_level_report(
    out: dict, level: float, ref: StepRef, intervals, components, points
) -> list[str]:
    """``ballcover maxfn --level`` plus the maximal intervals and the
    components of {Mf >= level} the program gives at that level."""
    errors = []
    if out["level"] != level:
        errors.append(f"reported level {out['level']!r}, asked {level!r}")
    if out["count_function"] != ref.boundary_count(level):
        errors.append(f"count_function {out['count_function']}, own {ref.boundary_count(level)}")
    if out["count_maximal"] > out["count_function"]:
        errors.append(
            f"count_maximal {out['count_maximal']} > count_function {out['count_function']}"
        )
    if out["count_maximal"] != 2 * len(components):
        errors.append(f"count_maximal {out['count_maximal']} for {len(components)} components")
    if out["intervals"] != len(intervals):
        errors.append(f"{out['intervals']} intervals reported, {len(intervals)} returned")
    tol = 1e-9 * max(1.0, level)
    for lo, hi in intervals:
        avg = ref.average(lo, hi)
        if abs(avg - level) > tol:
            errors.append(f"interval ({lo!r}, {hi!r}) averages {avg!r}, level {level!r}")
            break
    errors += check_superlevel_membership(ref, level, components, points)
    return errors
