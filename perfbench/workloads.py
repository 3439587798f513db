"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``setup``), lists the
operations of one round (``ops``) and checks the output of each
operation against references from ``checks`` (``check``).  Operations
call the program through ``ballcover.cli.main`` or a public library
function, looked up at call time so the tracer's wrappers are seen.
Every round repeats the same operations on the same inputs, so a round's
output must equal the first round's byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ballcover import cli, counterexample, formats, geometry, maximal1d
from ballcover.geometry import Ball, BallCollection
from ballcover.maximal1d import StepFunction

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # the timed call
    read: Callable[[object], object]  # its output, read after the clock stops
    items: int = 1  # inputs one call processes
    # Operations of one kind run one computation on inputs of one law; the
    # throughput charges each of them the kind's median time.
    kind: str | None = None
    # Fails in every run through a fault of the program on inputs that do
    # not depend on the seed: counted as failed, not as a wrong result.
    known_fault: bool = False
    # For an operation whose input size the program draws itself: the
    # throughput charges it per item at this expected count of items.
    expected_items: float | None = None


def run_cli(argv: list[str]):
    """One ``ballcover`` command in this process; its messages are kept
    off the benchmark's standard output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def cli_op(name: str, argv: list[str], output: Path, items: int = 1) -> Op:
    return Op(name, lambda: run_cli(argv), lambda res: (*res, output.read_bytes()), items)


def cli_errors(result) -> list[str]:
    code, err, _ = result
    return [] if code == 0 else [f"exit status {code}: {err.strip()}"]


def collection(dim: int, centers, radii) -> BallCollection:
    return BallCollection(dim, [Ball(tuple(c), r) for c, r in zip(centers, radii)])


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    # Subclasses define setup() (make and write the inputs; repeatable,
    # the last call's inputs are used), ops(), check(k, output) -> errors
    # and describe() -> a summary of the inputs.

    def items(self, k: int, op: Op, output) -> int:
        return op.items


class Packing(Workload):
    """``ballcover rate`` over the two cheaper points of criterion 3's sweep."""

    def __init__(self, seed, workdir, eps=(10.0**-1.5, 1e-2), delta=0.3, n_max=8000):
        super().__init__(seed, workdir)
        self.eps = tuple(eps)
        self.delta = delta
        self.n_max = n_max
        self.packings = None
        self.refs = None

    def setup(self):
        self.output = self.workdir / "rate.csv"
        self.argv = [
            "rate", "--eps-list", ",".join(repr(e) for e in self.eps),
            "--delta", repr(self.delta), "--n-max", str(self.n_max),
            "--seed", str(self.seed), "--jobs", "1", "--output", str(self.output),
        ]

    def ops(self):
        op = cli_op("rate", self.argv, self.output)
        op.run = self._rate
        return [op]

    def _rate(self):
        if self.packings is not None:
            return run_cli(self.argv)
        # The first round keeps the packings the generator builds, to check them.
        kept = []
        build = counterexample.build_surrounded_ball_detailed

        def keep(cfg):
            result = build(cfg)
            kept.append(result[0])
            return result

        counterexample.build_surrounded_ball_detailed = keep
        try:
            return run_cli(self.argv)
        finally:
            counterexample.build_surrounded_ball_detailed = build
            self.packings = kept

    def check(self, k, output):
        errors = cli_errors(output)
        if errors:
            return errors
        if len(self.packings) != len(self.eps):
            return [f"{len(self.packings)} packings built for {len(self.eps)} eps"]
        self.refs = []
        for eps, packing in zip(self.eps, self.packings):
            errs, ref = checks.check_packing(packing.centers, packing.radii, eps, self.delta)
            errors += [f"eps={eps!r}: {e}" for e in errs]
            self.refs.append(ref)
        return errors + checks.check_rate(checks.parse_rate(output[2].decode()), self.refs)

    def items(self, k, op, output):
        return sum(len(p) - 1 for p in self.packings)

    def describe(self):
        return {
            f"eps={e!r}": {
                "disks": r["disks"],
                "uncovered": r["bare"] / checks.TWO_PI,
                "near_tangent_pairs": r["near_tangent_pairs"],
            }
            for e, r in zip(self.eps, self.refs or [])
        }


class MonteCarlo(Workload):
    """``union_perimeter_mc`` on 2D and 3D collections of the corpus law,
    then the ``check --check thm13 --dim 3`` corpus."""

    def __init__(self, seed, workdir, sizes=range(2, 41), samples=5000, thm13_count=10):
        super().__init__(seed, workdir)
        self.sizes = tuple(sizes)
        self.samples = samples
        self.thm13_count = thm13_count

    def setup(self):
        # The corpus law (centres uniform in [-3, 3]^d, radii log-uniform
        # in [0.05, 1]) with every ball count of its range 2..40 once per
        # dimension, so the work of a round does not swing with the seed.
        rng = np.random.default_rng([self.seed, 2])
        self.inputs = []
        for dim in (2, 3):
            for n in self.sizes:
                centers = rng.uniform(-3.0, 3.0, size=(n, dim))
                radii = np.exp(rng.uniform(math.log(0.05), 0.0, size=n))
                stream = np.random.SeedSequence([self.seed, 3, len(self.inputs)])
                mc_seed = int(stream.generate_state(1)[0])
                self.inputs.append((dim, centers.tolist(), radii.tolist(), mc_seed))
        self.report = self.workdir / "thm13.txt"
        self.argv = [
            "check", "--check", "thm13", "--dim", "3", "--count", str(self.thm13_count),
            "--seed", str(self.seed), "--jobs", "1", "--output", str(self.report),
        ]

    def _measure(self, k):
        dim, centers, radii, mc_seed = self.inputs[k]
        return geometry.union_perimeter_mc(collection(dim, centers, radii), self.samples, mc_seed)

    def ops(self):
        ops = [
            Op(f"mc{dim}d-n{len(radii)}", lambda k=k: self._measure(k), lambda r: r, len(radii))
            for k, (dim, _, radii, _) in enumerate(self.inputs)
        ]
        thm13 = cli_op("thm13", self.argv, self.report)
        thm13.expected_items = 21.0 * self.thm13_count  # the corpus law's mean of 2..40 balls
        ops.append(thm13)
        return ops

    def items(self, k, op, output):
        if k < len(self.inputs):
            return op.items
        reports = checks.parse_check_report(output[2].decode())["reports"]
        return sum(int(r["params"]["n"]) for r in reports)

    def check(self, k, output):
        if k == len(self.inputs):
            return cli_errors(output) or checks.check_thm13_report(
                checks.parse_check_report(output[2].decode()), self.thm13_count
            )
        dim, centers, radii, _ = self.inputs[k]
        exact = None
        if dim == 2:
            exact = geometry.union_perimeter_2d(collection(dim, centers, radii)).value
        return checks.check_mc(output, np.asarray(centers), radii, self.samples, exact)

    def describe(self):
        out = {}
        for dim in (2, 3):
            balls = isolated = disjoint_caps = 0
            for d, centers, radii, _ in self.inputs:
                if d != dim:
                    continue
                pairs, _ = checks.overlapping_pairs(centers, radii)
                balls += len(radii)
                isolated += len(radii) - len(np.unique(pairs))
                disjoint_caps += dim == 3 and checks.sphere_caps(centers, radii) is not None
            out[f"{dim}d"] = {"balls": balls, "isolated_share": isolated / balls}
            if dim == 3:
                out["3d"]["collections_with_disjoint_caps"] = int(disjoint_caps)
        return out


class Select(Workload):
    """Four ``ballcover select`` algorithms and the exact perimeter on one
    collection of a few thousand disks."""

    ALGORITHMS = ("vitali", "besicovitch", "perimeter-besicovitch", "perimeter-vitali")

    def __init__(self, seed, workdir, n=3000, side=22.0, radii=(0.005, 1.0), eps=0.01,
                 arc_circles=40, arc_samples=20000):
        super().__init__(seed, workdir)
        self.n = n
        self.side = side
        self.radius_range = radii
        self.eps = eps
        self.arc_circles = arc_circles
        self.arc_samples = arc_samples

    def setup(self):
        # Radii log-uniform over 2.3 decades; the square's side gives each
        # disk about five overlapping neighbours.
        rng = np.random.default_rng([self.seed, 5])
        lo, hi = self.radius_range
        self.centers = rng.uniform(0.0, self.side, size=(self.n, 2))
        self.radii = np.exp(rng.uniform(math.log(lo), math.log(hi), size=self.n))
        self.input = self.workdir / "disks.txt"
        balls = collection(2, self.centers.tolist(), self.radii.tolist())
        formats.save_balls(str(self.input), balls)

    def _argv(self, algorithm, output):
        argv = ["select", "--algorithm", algorithm, "--input", str(self.input),
                "--output", str(output), "--jobs", "1"]
        return argv + (["--eps", repr(self.eps)] if algorithm == "perimeter-vitali" else [])

    def ops(self):
        ops = []
        for alg in self.ALGORITHMS:
            output = self.workdir / f"{alg}.txt"
            ops.append(cli_op(alg, self._argv(alg, output), output, self.n))
        ops.append(Op(
            "perimeter",
            lambda: geometry.union_perimeter_2d(formats.read_balls(str(self.input))),
            lambda res: res,
            self.n,
        ))
        return ops

    def check(self, k, output):
        c, r = self.centers, self.radii
        if k == len(self.ALGORITHMS):
            lengths = geometry.free_arc_lengths_2d(formats.read_balls(str(self.input)))
            errors = []
            own = math.fsum(checks.free_arc_lengths(c, r))
            if abs(own - output.value) > 1e-9 * output.value:
                errors.append(f"perimeter {output.value!r}, own arcs give {own!r}")
            rng = np.random.default_rng([self.seed, 6])
            circles = rng.choice(self.n, size=min(self.arc_circles, self.n), replace=False)
            return errors + checks.check_free_arcs(
                lengths, output.value, c, r, circles, self.arc_samples
            )
        errors = cli_errors(output)
        if errors:
            return errors
        sel = checks.parse_selection(output[2].decode())
        alg = self.ALGORITHMS[k]
        if alg == "vitali":
            return checks.check_vitali(sel, c, r)
        if alg == "perimeter-vitali":
            return checks.check_perimeter_vitali(sel, c, r, self.eps)
        return checks.check_besicovitch(sel, c, r, winner_only=alg == "perimeter-besicovitch")

    def describe(self):
        pairs, _ = checks.overlapping_pairs(self.centers, self.radii)
        return {
            "disks": self.n,
            "neighbours_per_disk": 2 * len(pairs) / self.n,
            "radius_decades": math.log10(self.radii.max() / self.radii.min()),
        }


def step_function(rng, pieces: int) -> StepFunction:
    """The criterion-4 law with a given piece count: gaps uniform in
    [0.05, 2], values uniform in [0, 3], a fifth of them zeroed."""
    xs = np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(0.05, 2.0, pieces)]))
    vs = rng.uniform(0.0, 3.0, pieces) * (rng.uniform(0.0, 1.0, pieces) > 0.2)
    return StepFunction(tuple(float(x) for x in xs), tuple(float(v) for v in vs))


# maximal_superlevel reports a spurious sliver component at levels up to
# about 1e-4 above a piece value (see CHANGES.md); inputs with a probed
# level within this relative distance above one are drawn again.
NEAR_PIECE_VALUE = 1e-3


def near_piece_value(f: StepFunction, levels) -> bool:
    values = [abs(v) for v in f.values if v != 0.0]
    return any(0.0 < level - v <= NEAR_PIECE_VALUE * v for level in levels for v in values)


def grid_levels(f: StepFunction, count: int) -> list[float]:
    """The levels maximal_variation_check probes."""
    top = max(abs(v) for v in f.values)
    return [top * j / (count + 1) for j in range(1, count + 1)]


# A function (drawn at seed 14) whose level 1.665404217129199, 4.9e-6
# above its first piece value, gets a spurious component: its variation
# check fails in every run, on every seed.
KNOWN_FAULT = StepFunction(
    (1.9154774178137899, 2.7422401681813993, 3.7704821654176355, 3.99574720969287),
    (1.6653959921176158, 0.0, 2.016543660499813),
)


class MaxFn(Workload):
    """``maximal_variation_check`` over random step functions, then
    ``ballcover maxfn --level`` at half the maximum on a few longer ones.

    The variation checks form one kind: their cost has a heavy tail (a
    function whose certified bound bisects many level gaps costs up to
    fifteen times the typical one), which would make a round's total
    swing with the seed.
    """

    def __init__(self, seed, workdir, pieces=tuple(range(1, 13)) * 2, levels=200,
                 long_pieces=(39, 40, 41), probes=200):
        super().__init__(seed, workdir)
        # Every piece count of the criterion-4 range 1..12 appears equally
        # often, so the work of a round does not swing with the seed.
        self.pieces = tuple(pieces)
        self.levels = levels
        self.long_pieces = tuple(long_pieces)
        self.probes = probes

    def _draw(self, rng, pieces: int, levels) -> StepFunction:
        while True:
            f = step_function(rng, pieces)
            if not near_piece_value(f, levels(f)):
                return f

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        self.functions = [
            self._draw(rng, k, lambda f: grid_levels(f, self.levels)) for k in self.pieces
        ]
        self.functions.append(KNOWN_FAULT)
        self.long = []
        for j, k in enumerate(self.long_pieces):
            f = self._draw(rng, k, lambda f: [0.5 * max(f.values)])
            level = 0.5 * max(f.values)
            path = self.workdir / f"step{j}.txt"
            formats.save_step_function(str(path), f)
            self.long.append((f, level, path))

    def ops(self):
        ops = [
            Op(f"variation-k{f.piece_count}",
               lambda f=f: maximal1d.maximal_variation_check(f, self.levels),
               lambda res: res,
               self.levels if max(f.values) > 0.0 else 0,
               kind="variation",
               known_fault=f is KNOWN_FAULT)
            for f in self.functions
        ]
        for j, (f, level, path) in enumerate(self.long):
            output = self.workdir / f"level{j}.txt"
            argv = ["maxfn", "--input", str(path), "--level", repr(level),
                    "--output", str(output), "--jobs", "1"]
            ops.append(cli_op(f"level-k{f.piece_count}", argv, output))
        return ops

    def _probe_points(self, f):
        x = f.breakpoints
        span = x[-1] - x[0]
        return np.linspace(x[0] - span, x[-1] + span, self.probes).tolist()

    def _components(self, f, level):
        return [(iv.lo, iv.hi) for iv in maximal1d.maximal_superlevel(f, level)]

    def check(self, k, output):
        if k < len(self.functions):
            f = self.functions[k]
            ref = checks.StepRef(f.breakpoints, f.values)
            errors = checks.check_variation_report(output, ref, self.levels)
            counted = [rec for rec in output.levels if not rec.skipped]
            for rec in counted[len(counted) // 3 :: max(1, len(counted) // 3)][:2]:
                comps = self._components(f, rec.level)
                if rec.count_maximal != 2 * len(comps):
                    errors.append(f"level {rec.level!r}: count_maximal {rec.count_maximal} "
                                  f"for {len(comps)} components")
                errors += checks.check_superlevel_membership(
                    ref, rec.level, comps, self._probe_points(f)
                )
            return errors
        errors = cli_errors(output)
        if errors:
            return errors
        f, level, _ = self.long[k - len(self.functions)]
        intervals = [(iv.lo, iv.hi) for iv in maximal1d.maximal_intervals(f, level)]
        return checks.check_level_report(
            checks.parse_level_line(output[2].decode()), level,
            checks.StepRef(f.breakpoints, f.values), intervals,
            self._components(f, level), self._probe_points(f),
        )

    def describe(self):
        return {
            "functions": len(self.functions),
            "levels_per_function": self.levels,
            "long_functions": [[f.piece_count, level] for f, level, _ in self.long],
        }


WORKLOADS = {"packing": Packing, "montecarlo": MonteCarlo, "select": Select, "maxfn": MaxFn}
