"""Spans around calls into ballcover's public functions.

The tracer wraps each listed function and rebinds the wrapper in every
loaded ``ballcover`` module that holds the function under its name, so
calls made through ``from .x import f`` are seen too.  Spans are kept in
memory as [name, start, end, parent] and written out when the run ends;
nothing reaches the program's own result files.  ``uninstall`` puts the
original functions back, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, layer metric the span's self time adds to)
TRACED = (
    ("counterexample", "build_surrounded_ball_detailed", "counterexample.build_s"),
    ("geometry", "free_arc_lengths_2d", "geometry.free_arcs_s"),
    ("geometry", "union_perimeter_2d", "geometry.free_arcs_s"),
    ("geometry", "union_perimeter_mc", "geometry.mc_perimeter_s"),
    ("geometry", "union_volume_mc", "geometry.mc_volume_s"),
    ("selection", "vitali_select", "selection.vitali_s"),
    ("selection", "besicovitch_select", "selection.besicovitch_s"),
    ("selection", "perimeter_besicovitch_select", "selection.perimeter_besicovitch_s"),
    ("selection", "perimeter_vitali_select", "selection.perimeter_vitali_s"),
    ("harness", "check_example14_rate", "harness.rate_s"),
    ("harness", "run_corpus", "harness.corpus_s"),
    ("maximal1d", "maximal_variation_check", "maximal1d.variation_check_s"),
    ("maximal1d", "level_report", "maximal1d.level_report_s"),
    ("formats", "read_balls", "formats.read_s"),
    ("formats", "read_step_function", "formats.read_s"),
    ("formats", "atomic_write_text", "formats.write_s"),
    ("formats", "dump_balls", "formats.write_s"),
    ("formats", "dump_selection", "formats.write_s"),
    ("formats", "dump_estimate", "formats.write_s"),
    ("cli", "main", "cli.self_s"),
)
COUNTS = ("counterexample.disks", "geometry.mc_samples", "maximal1d.levels")


def _has_neighbour(balls) -> np.ndarray:
    """Per ball, whether another ball's open interior meets its sphere
    (the balls on which Monte Carlo samples can land covered)."""
    c, r = balls.centers, balls.radii
    d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2))
    meets = (d < r[:, None] + r[None, :]) & (d + r[None, :] > r[:, None])
    np.fill_diagonal(meets, False)
    return meets.any(axis=1)


def _count_disks(counts, args, result):
    counts["counterexample.disks"] += len(result[0]) - 1


def _count_mc(counts, args, result):
    counts["geometry.mc_samples"] += result.sample_count
    useful = int(_has_neighbour(args["balls"]).sum())
    counts["mc_useful_samples"] += int(args["samples_per_ball"]) * useful


def _count_variation(counts, args, result):
    counts["maximal1d.levels"] += len(result.levels)


def _count_level(counts, args, result):
    counts["maximal1d.levels"] += 1


COUNTERS = {
    "build_surrounded_ball_detailed": _count_disks,
    "union_perimeter_mc": _count_mc,
    "maximal_variation_check": _count_variation,
    "level_report": _count_level,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # calls to count, kept until the end so counting costs no span time
        self.calls: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._scales: list[tuple[int, float]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn):
        """Run fn inside a span that no layer owns (one operation)."""
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, metric: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                self.calls.append((counter, signature.bind(*args, **kwargs), result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("ballcover") and m]
        for module_name, func_name, metric in TRACED:
            original = getattr(sys.modules[f"ballcover.{module_name}"], func_name)
            wrapper = self._wrap(metric, original, COUNTERS.get(func_name))
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    self._patches.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def scale_from(self, first: int, factor: float) -> None:
        """Report spans first.. (one round's) in seconds scaled by factor;
        the spans themselves keep their measured times."""
        self._scales.append((first, factor))

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the summed span time not covered by child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        bounds = [first for first, _ in self._scales[1:]] + [len(own)]
        for (first, factor), end in zip(self._scales, bounds):
            own[first:end] = [t * factor for t in own[first:end]]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return out

    def counts(self) -> dict[str, float]:
        counts: dict[str, float] = defaultdict(float)
        for counter, bound, result in self.calls:
            counter(counts, bound.arguments, result)
        return counts

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every layer metric per traced round, as (value, unit)."""
        seconds = self.self_seconds()
        counts = self.counts()
        out = {}
        for metric in dict.fromkeys(m for _, _, m in TRACED):
            out[metric] = (seconds.get(metric, 0.0) / rounds, "s")
        for name in COUNTS:
            out[name] = (counts.get(name, 0.0) / rounds, "count")
        drawn = counts.get("geometry.mc_samples", 0.0)
        useful = counts.get("mc_useful_samples", 0.0) / drawn if drawn else 0.0
        out["geometry.mc_useful_share"] = (useful, "share")
        return out

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.counts()}, fh)
