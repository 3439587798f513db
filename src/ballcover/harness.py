"""End-to-end verification drivers.

Each ``check_*`` function runs one selection-plus-measurement pipeline
and condenses it into a :class:`CheckReport` whose single inequality
``lhs <= rhs * (1 + tol)`` captures the claim being verified.  The
dimensional inequalities carry no explicit constants, so their reports
compare against recorded corpus-wide empirical caps and the interesting
content is boundedness and rate behaviour; the exact guarantees
(overlap, containment, radius slack) are checked at tight tolerances.

``run_corpus`` drives a check over a family of seeded random instances,
optionally across processes; instance seeds depend only on the master
seed and the instance index, so the aggregated report list is identical
for any job count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .counterexample import SurroundedBallConfig, build_surrounded_ball
from .formats import _fmt
from .geometry import (
    BallCollection,
    _cap_volumes,
    _lens_volumes,
    free_arc_length_halfplane,
    free_arc_lengths_2d,
    unit_ball_volume,
    union_components,
    union_perimeter,
    union_volume_mc,
)
from .selection import (
    overlap_eps_max,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
)

__all__ = [
    "CheckReport",
    "RateFit",
    "check_example14_rate",
    "check_isoperimetric",
    "check_prop16_ratio",
    "check_thm12",
    "check_thm13",
    "fit_loglog",
    "format_report",
    "format_summary",
    "halfspace_volume_fraction",
    "random_collection",
    "run_corpus",
]

# Recorded corpus-wide empirical constants for the dimensionless bounds
# (the inequalities hold up to a dimensional constant that the theory
# does not pin down; these caps are measured maxima with headroom and
# exist so a report can still fail on gross regressions).
THM12_EMPIRICAL_CAP = 8.0
PROP16_EMPIRICAL_CAP = 4.0


@dataclass(frozen=True)
class CheckReport:
    """One verified inequality: passed iff lhs <= rhs * (1 + tol)."""

    check_id: str
    instance_id: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        tol = float(self.params.get("tol", 0.0))
        expected = bool(self.lhs <= self.rhs * (1.0 + tol))
        if bool(self.passed) != expected:
            raise ValueError("passed flag inconsistent with lhs <= rhs*(1+tol)")


def _make_report(check_id, instance_id, lhs, rhs, ratio, params) -> CheckReport:
    tol = float(params.get("tol", 0.0))
    passed = bool(lhs <= rhs * (1.0 + tol))
    return CheckReport(check_id, instance_id, float(lhs), float(rhs), float(ratio), passed, params)


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of ratios against a decreasing sweep.

    ``ys`` are the fitted ratios.  For a surrounded-ball sweep they are
    the full-coverage perimeter ratios G of ``check_example14_rate``;
    that check also fills ``uncovered`` with the uncovered fraction U of
    the unit circle per x, ``raw_ratios`` with the raw perimeter ratios
    P / (2 pi) = U + (1 - U) * G and ``disks`` with the number of small
    disks in each packing.  All three are empty for a bare fit.
    """

    xs: tuple
    ys: tuple
    slope: float
    intercept: float
    r_squared: float
    uncovered: tuple = ()
    raw_ratios: tuple = ()
    disks: tuple = ()

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        if xs.size < 2:
            raise ValueError("a rate fit needs at least two points")
        if np.any(xs <= 0.0) or np.any(np.diff(xs) >= 0.0):
            raise ValueError("xs must be strictly decreasing and positive")
        if len(self.ys) != xs.size:
            raise ValueError("xs and ys must have equal length")
        for extra in (self.uncovered, self.raw_ratios, self.disks):
            if extra and len(extra) != xs.size:
                raise ValueError("per-point columns must match xs in length")


def fit_loglog(xs, ys) -> RateFit:
    """Least squares in log-log coordinates over a decreasing sweep."""
    xs = tuple(float(x) for x in xs)
    ys = tuple(float(y) for y in ys)
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(residual @ residual) / denom
    return RateFit(xs, ys, float(slope), float(intercept), r2)


# --------------------------------------------------------------------------
# corpus law
# --------------------------------------------------------------------------


def random_collection(dimension: int, seed, count: int | None = None) -> BallCollection:
    """One random instance: ``count`` balls (by default 2 to 40, drawn
    first from the same stream), centers uniform in the cube [-3, 3]^d,
    radii log-uniform in [0.05, 1]."""
    rng = np.random.default_rng(seed)
    if count is None:
        n = int(rng.integers(2, 41))
    elif count < 1:
        raise ValueError("count must be at least 1")
    else:
        n = int(count)
    centers = rng.uniform(-3.0, 3.0, size=(n, dimension))
    radii = np.exp(rng.uniform(math.log(0.05), math.log(1.0), size=n))
    return BallCollection.from_arrays(centers, radii)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------


def check_thm12(
    balls: BallCollection,
    instance_id: str = "single",
    samples_per_ball: int = 20000,
    seed: int = 0,
) -> CheckReport:
    """Perimeter of the whole union against the selected subfamily's.

    The selection is the perimeter-controlling center cover; the bound
    carries no explicit constant, so the report compares the ratio
    against the recorded empirical cap and fails only on gross growth
    or a degenerate (zero/non-finite) perimeter.
    """
    if len(balls) == 0:
        raise ValueError("empty input")
    result = perimeter_besicovitch_select(balls)
    chosen = balls.subset(result.selected)
    lhs_est = union_perimeter(balls, samples_per_ball=samples_per_ball, seed=seed)
    rhs_est = union_perimeter(chosen, samples_per_ball=samples_per_ball, seed=seed)
    lhs = lhs_est.value
    base = rhs_est.value
    ratio = lhs / base if base > 0.0 else math.inf
    params = {
        "d": balls.dimension,
        "n": len(balls),
        "selected": len(result.selected),
        "families": 0 if result.families is None else len(result.families),
        "method": lhs_est.method,
        "samples_per_ball": samples_per_ball,
        "seed": seed,
        "empirical_cap": THM12_EMPIRICAL_CAP,
        "tol": 1e-9,
    }
    return _make_report(
        "thm12", instance_id, lhs, THM12_EMPIRICAL_CAP * base, ratio, params
    )


def check_thm13(
    balls: BallCollection,
    eps: float,
    instance_id: str = "single",
    volume_samples: int = 20000,
    seed: int = 0,
) -> CheckReport:
    """Exact guarantees of the eps-overlap selection.

    lhs is the worst normalized exact quantity over a) the lens volumes
    of the chosen balls' meeting pairs against eps times the smaller
    ball volume (1e-9 relative slack) and b) group containment
    distances against (23/7) times the chosen radius (1e-12 absolute
    slack); rhs is 1.  The volume ratio and the perimeter ratio
    normalized by eps^(-(d-1)/(d+1)) ride along in the report.  An
    empty collection raises ``ValueError``.
    """
    if len(balls) == 0:
        raise ValueError("empty input")
    eps = float(eps)
    d = balls.dimension
    cap = overlap_eps_max(d)
    if not 0.0 < eps <= cap:
        raise ValueError(f"eps must lie in (0, {cap:.6g}]")
    result = perimeter_vitali_select(balls, eps)
    chosen = balls.subset(result.selected)
    r = chosen.radii
    _, first, second, rho = chosen.pairs
    once = first < second
    first, second, rho = first[once], second[once], rho[once]
    lens = _lens_volumes(r[first], r[second], rho, d)
    volumes = unit_ball_volume(d) * r**d
    bound = eps * np.minimum(volumes[first], volumes[second])
    overlap_worst = max((lens / bound).tolist(), default=0.0)
    containment_worst = 0.0
    centers, radii = balls.centers, balls.radii.tolist()
    for s, members in result.groups.items():
        for m in members:
            reach = float(np.linalg.norm(centers[m] - centers[s])) + radii[m]
            containment_worst = max(
                containment_worst, reach / ((23.0 / 7.0) * radii[s] + 1e-12)
            )
    lhs = max(overlap_worst / (1.0 + 1e-9), containment_worst)
    perim_all = union_perimeter(balls, seed=seed)
    perim_sel = union_perimeter(chosen, seed=seed)
    rate_norm = eps ** (-(d - 1) / (d + 1))
    perim_ratio = (
        perim_all.value / perim_sel.value if perim_sel.value > 0.0 else math.inf
    )
    vol_all = union_volume_mc(balls, volume_samples, seed=seed)
    vol_sel = union_volume_mc(chosen, volume_samples, seed=seed)
    vol_ratio = vol_all.value / vol_sel.value if vol_sel.value > 0.0 else math.inf
    params = {
        "d": d,
        "n": len(balls),
        "eps": eps,
        "selected": len(chosen),
        "overlap_rel_tol": 1e-9,
        "containment_abs_tol": 1e-12,
        "volume_ratio": vol_ratio,
        "volume_samples": volume_samples,
        "perimeter_ratio": perim_ratio,
        "normalized_perimeter_ratio": perim_ratio / rate_norm,
        "seed": seed,
        "tol": 0.0,
    }
    return _make_report(
        "thm13", instance_id, lhs, 1.0, perim_ratio / rate_norm, params
    )


def check_example14_rate(
    eps_list, delta: float, n_max: int, seed: int = 0
) -> RateFit:
    """Full-coverage perimeter growth of the surrounded-ball packings.

    For each eps the greedy packing of ``build_surrounded_ball`` runs
    until it holds ``n_max`` small disks or no disk of the radius floor
    ``delta * 1e-3`` fits; at practical budgets the floor stops it
    first, with part of the unit circle still bare.  With L0 the
    exposed length of the unit circle, U = L0 / (2 pi) its uncovered
    fraction and P the exact union perimeter, the union boundary is the
    bare arc 2 pi U plus the exposed arcs of the small disks, so the
    raw ratio P / (2 pi) equals U + (1 - U) * G with

        G = (P - L0) / (2 pi - L0),

    the exposed small-disk length per unit of covered central circle.
    G is the ratio the paper's construction reaches as the packing
    continues toward zero radius (U -> 0) and hardly depends on where
    the packing stops, whereas the raw ratio is diluted by U, which
    grows as eps shrinks.  The fit rates G against eps (the plane's
    expected exponent is -1/3) and carries U, P / (2 pi) and the small
    disk count per eps in ``uncovered``, ``raw_ratios`` and ``disks``.
    """
    eps_list = [float(e) for e in eps_list]
    if any(not 0.0 < e <= 0.05 for e in eps_list):
        raise ValueError("every eps must lie in (0, 0.05]")
    if len(eps_list) < 2:
        raise ValueError("eps_list needs at least two values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    circle = 2.0 * math.pi
    ratios, uncovered, raw_ratios, disks = [], [], [], []
    for eps in eps_list:
        cfg = SurroundedBallConfig(eps=eps, delta=delta, n_max=n_max, seed=seed)
        packing = build_surrounded_ball(cfg)
        lengths = free_arc_lengths_2d(packing)
        perimeter = sum(lengths)
        bare = lengths[0]  # the unit disk comes first
        if circle - bare <= 0.0:
            raise ValueError(
                f"the packing at eps={eps!r} covers none of the unit circle, "
                "so its full-coverage perimeter ratio is undefined"
            )
        ratios.append((perimeter - bare) / (circle - bare))
        uncovered.append(bare / circle)
        raw_ratios.append(perimeter / circle)
        disks.append(len(packing) - 1)
    fit = fit_loglog(eps_list, ratios)
    return replace(
        fit,
        uncovered=tuple(uncovered),
        raw_ratios=tuple(raw_ratios),
        disks=tuple(disks),
    )


def halfspace_volume_fraction(
    balls: BallCollection, threshold: float = 0.0
) -> np.ndarray:
    """Fraction of each ball's volume on the side x_1 > threshold:
    exactly 1 and 0 for balls at or beyond tangency to the plane."""
    d, r = balls.dimension, balls.radii
    c1 = balls.centers[:, 0] - threshold
    frac = _cap_volumes(r, -c1, d) / (unit_ball_volume(d) * r**d)
    return np.select([c1 >= r, c1 <= -r], [1.0, 0.0], frac)


def _iso_cap(d: int) -> float:
    """Largest value of min(vol_in, vol_out)^(d-1) / slice^d over all
    cuts of a ball by a hyperplane: attained at the central cut."""
    return (unit_ball_volume(d) / 2.0) ** (d - 1) / unit_ball_volume(d - 1) ** d


def check_isoperimetric(
    d_list, grid: int, instance_id: str = "single", radii=(0.5, 1.0, 2.0)
) -> CheckReport:
    """Relative isoperimetric ratio of half-space cuts across dimensions.

    For each dimension and radius the ratio min(vol_in, vol_out)^(d-1)
    / slice_area^d is scanned over an offset grid; lhs is the worst
    per-dimension maximum normalized by the central-cut value, which is
    the true supremum, so lhs stays at most 1 up to cut-volume
    quadrature error.
    """
    grid = int(grid)
    if grid < 10:
        raise ValueError("grid must be at least 10")
    per_dim_max: dict[int, float] = {}
    lhs = 0.0
    for d in d_list:
        d = int(d)
        best = 0.0
        for r in map(float, radii):
            # The supremum sits at the central cut; an even-length
            # linspace straddles zero, so include the offset 0 always.
            span = np.linspace(-r * (1.0 - 1e-6), r * (1.0 - 1e-6), grid)
            t = np.unique(np.concatenate([span, [0.0]]))
            vol_in = _cap_volumes(r, t, d)
            vol_out = unit_ball_volume(d) * r**d - vol_in
            slice_area = unit_ball_volume(d - 1) * (r * r - t * t) ** ((d - 1) / 2.0)
            ratio = np.minimum(vol_in, vol_out) ** (d - 1) / slice_area**d
            best = max(best, float(ratio.max()))
        per_dim_max[d] = best
        lhs = max(lhs, best / _iso_cap(d))
    params = {
        "d_list": tuple(int(d) for d in d_list),
        "grid": grid,
        "radii": tuple(float(r) for r in radii),
        "per_dimension_max": per_dim_max,
        "central_cut_caps": {int(d): _iso_cap(int(d)) for d in d_list},
        "tol": 1e-6,
    }
    return _make_report("isoperimetric", instance_id, lhs, 1.0, lhs, params)


def check_prop16_ratio(
    balls: BallCollection, lam: float, instance_id: str = "single"
) -> CheckReport:
    """Boundary outside a half-space against the trace length inside it.

    Keeps the balls with more than a lam fraction of volume in the
    right half-space E = {x_1 > 0}; lhs is the length of the union's
    free boundary in {x_1 <= 0} and the comparison side is the length
    of the segment E-boundary covered by the union, scaled by
    lam^(-(d-1)/d) and the recorded empirical cap.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if balls.dimension != 2:
        raise ValueError("exact boundary lengths need dimension 2")
    kept = np.nonzero(halfspace_volume_fraction(balls) > lam)[0]
    sub = balls.subset(kept)
    lhs = free_arc_length_halfplane(sub, 0.0, side="le")
    # chords cut from the line x_1 = 0 by the kept balls that cross it
    x, y, r = sub.centers[:, 0], sub.centers[:, 1], sub.radii
    cut = np.abs(x) < r
    half = np.sqrt((r - x)[cut] * (r + x)[cut])
    lo, hi = union_components(y[cut] - half, y[cut] + half)
    trace = sum((hi - lo).tolist(), 0.0)
    norm = lam ** (-0.5)
    ratio = 0.0 if lhs == 0.0 else (lhs / trace) / norm if trace > 0.0 else math.inf
    rhs = PROP16_EMPIRICAL_CAP * norm * trace
    params = {
        "d": 2,
        "n": len(balls),
        "kept": len(kept),
        "lambda": lam,
        "trace_length": trace,
        "empirical_cap": PROP16_EMPIRICAL_CAP,
        "tol": 1e-9,
    }
    return _make_report("prop16", instance_id, lhs, rhs, ratio, params)


# --------------------------------------------------------------------------
# corpus driver
# --------------------------------------------------------------------------


def _corpus_instance(
    check_id: str,
    dimension: int,
    master_seed: int,
    index: int,
    eps_values,
    lam: float,
) -> CheckReport:
    seed = [int(master_seed), int(index)]
    instance_id = f"{check_id}-{dimension}d-{index:05d}"
    balls = random_collection(dimension, seed)
    if check_id == "thm12":
        return check_thm12(balls, instance_id=instance_id, seed=index)
    if check_id == "thm13":
        if not eps_values:
            eps_values = [0.5 * overlap_eps_max(dimension)]
        eps = float(eps_values[index % len(eps_values)])
        return check_thm13(balls, eps, instance_id=instance_id, seed=index)
    if check_id == "prop16":
        return check_prop16_ratio(balls, float(lam), instance_id=instance_id)
    raise ValueError(f"unknown corpus check: {check_id}")


def run_corpus(
    check_id: str,
    count: int,
    dimension: int,
    master_seed: int = 0,
    jobs: int = 1,
    eps_values=None,
    lam: float = 0.2,
) -> list[CheckReport]:
    """Run one check over seeded random instances.

    ``eps_values`` (thm13, cycled over the instances; default half of
    ``overlap_eps_max``) and ``lam`` (prop16) reach only their check.
    Per-instance seeds derive only from the master seed and the index,
    and results are sorted by instance id, so the output is identical
    for any ``jobs`` value.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    # one iterable per parameter of _corpus_instance; the range ends them
    args = (
        repeat(check_id),
        repeat(int(dimension)),
        repeat(int(master_seed)),
        range(count),
        repeat(eps_values),
        repeat(lam),
    )
    if int(jobs) > 1:
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
            reports = list(pool.map(_corpus_instance, *args, chunksize=8))
    else:
        reports = list(map(_corpus_instance, *args))
    return sorted(reports, key=lambda rep: rep.instance_id)


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------


def format_report(report: CheckReport) -> str:
    """One structured text record per check."""
    head = (
        f"check={report.check_id} instance={report.instance_id} "
        f"lhs={report.lhs!r} rhs={report.rhs!r} ratio={report.ratio!r} "
        f"passed={report.passed}"
    )
    tail = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(report.params.items()))
    return f"{head} {tail}".rstrip()


def format_summary(reports) -> str:
    """Summary table: check id, corpus size, pass count, max ratio."""
    by_check: dict[str, list[CheckReport]] = {}
    for rep in reports:
        by_check.setdefault(rep.check_id, []).append(rep)
    lines = ["check_id size pass_count max_ratio"]
    for check_id in sorted(by_check):
        group = by_check[check_id]
        finite = [r.ratio for r in group if math.isfinite(r.ratio)]
        max_ratio = max(finite) if finite else math.inf
        passes = sum(1 for r in group if r.passed)
        lines.append(f"{check_id} {len(group)} {passes} {max_ratio!r}")
    return "\n".join(lines)
