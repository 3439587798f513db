"""Run one benchmark workload against ballcover and print its metrics.

    python3 perfbench/run.py --workload packing --seed 7 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up (a fresh interpreter importing ballcover, then making and writing
the workload's inputs) runs three times; its median is ``setup_s``.
Whole rounds of the workload's operations then run until ``--seconds``
have passed, each operation timed alone, and every output is checked
once the clock has stopped.  ``items_per_s`` is the workload's items
(disks placed, balls measured, balls selected, levels certified) per
second of operation time and ``op_p50_ms`` the median operation's time.
Times are in reported seconds (see ``SpeedProbe``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` rounds alternate untraced and traced; the metrics are the
per-layer self times and counts per traced round and the tracing
overhead (traced minus untraced round time), and the spans are written
to ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import ballcover.cli"
# The reference loop's usual time on the 2-vCPU machine the figures in
# README.md come from: there a reported second is about a wall second.
REFERENCE_S = 0.0075
# Time between two speed samples while operations run.
SAMPLE_GAP_S = 0.15


def reference_loop() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    program's own; its time follows the machine's current speed."""
    acc = 0.0
    for i in range(40_000):
        acc += (i * 0.5) % 7.0
    a = np.arange(2000.0)
    for _ in range(400):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a.sum())


class SpeedProbe:
    """Times the reference loop while operations run.

    A virtual machine whose cores other tenants share runs the same work
    up to 40% slower for tens of seconds at a time; scaling each round's
    times by REFERENCE_S over the loop's median time in that round takes
    most of that out.  Inside ``running()`` a timer signal runs the loop
    every SAMPLE_GAP_S, so a long operation is sampled while it runs; the
    loop's own time is taken off the operation's.  The loop never calls
    the program, so a change to the program moves only the scaled times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds the loop took inside running()

    def sample(self, *_) -> int:
        """Time the loop once; return the number of samples so far."""
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt
        return len(self.samples)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S, SAMPLE_GAP_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int, last: int) -> float:
        """Factor from wall seconds to reported seconds, from the samples
        first..last (indices into the samples taken so far)."""
        return REFERENCE_S / statistics.median(self.samples[first:last])


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def load_program() -> None:
    init = SRC / "ballcover" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no ballcover sources at {init}")
    sys.path.insert(0, str(SRC))
    import ballcover

    if Path(ballcover.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported ballcover from {ballcover.__file__}")


def time_setup(workload, repeats: int, probe: SpeedProbe) -> list[float]:
    times = []
    for _ in range(repeats):
        first = probe.sample() - 1
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True)
        workload.setup()
        elapsed = time.perf_counter() - start
        times.append(elapsed * probe.scale(first, probe.sample()))
    return times


def run_rounds(ops, seconds: float, tracer=None, probe=None):
    """Whole rounds until the time is up; with a tracer, odd rounds are traced.

    Returns the number of rounds, the first round's outputs, how many
    later rounds differed from it per operation, each operation's
    durations and the round times split into untraced and traced, all
    in reported seconds (see SpeedProbe).
    """
    probe = probe or SpeedProbe()
    first = [None] * len(ops)
    differed = [0] * len(ops)
    durations = [[] for _ in ops]
    round_times = {False: [], True: []}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds or (tracer and rounds < 2):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        spans = len(tracer.spans) if traced else 0
        wall = []
        first_sample = probe.sample() - 1
        # Traced rounds are sampled only at their ends: the loop's time
        # would land in whatever span is open.
        sampling = contextlib.nullcontext() if traced else probe.running()
        try:
            with sampling:
                for k, op in enumerate(ops):
                    t0, stolen = time.perf_counter(), probe.stolen
                    try:
                        result = tracer.root(op.name, op.run) if traced else op.run()
                    except Exception as exc:  # an operation that fails is counted, not fatal
                        result = exc
                    wall.append(time.perf_counter() - t0 - (probe.stolen - stolen))
                    output = Raised(result) if isinstance(result, Exception) else op.read(result)
                    if rounds == 0:
                        first[k] = output
                    elif output != first[k]:
                        differed[k] += 1
        finally:
            if traced:
                tracer.uninstall()
        scale = probe.scale(first_sample, probe.sample())
        for k, dt in enumerate(wall):
            durations[k].append(dt * scale)
        if traced:
            tracer.scale_from(spans, scale)
        round_times[traced].append(sum(wall) * scale)
        rounds += 1
    return rounds, first, differed, durations, round_times


def throughput(ops, durations, items) -> float:
    """Items per second of operation time.

    Each operation counts with its median duration over the rounds, an
    operation of a kind with the median of its kind, and one whose input
    size the program draws at its expected size, so neither a burst of
    load on the machine nor one heavy input sets the figure.
    """
    own = [statistics.median(ts) for ts in durations]
    kinds: dict[str, list[float]] = {}
    for op, t in zip(ops, own):
        if op.kind is not None:
            kinds.setdefault(op.kind, []).append(t)
    total_items = total_time = 0.0
    for op, t, n in zip(ops, own, items):
        if op.kind is not None:
            t = statistics.median(kinds[op.kind])
        if op.expected_items is not None and n:
            t, n = t * op.expected_items / n, op.expected_items
        total_items += n
        total_time += t
    return total_items / total_time


def judge(wl, ops, first, differed, rounds):
    """Check the first round's outputs.  Returns (correct, failed, items
    per operation); an operation whose check fails fails in every round."""
    correct, failed = True, 0
    items = [0] * len(ops)
    for k, (op, output) in enumerate(zip(ops, first)):
        if isinstance(output, Raised):
            errors = [output.text]
        else:
            errors = wl.check(k, output)
            items[k] = wl.items(k, op, output)
        if errors:
            correct &= op.known_fault or isinstance(output, Raised)
            failed += rounds
            print(f"perfbench: {op.name}: {'; '.join(errors)}", file=sys.stderr)
        elif differed[k]:
            correct = False
            failed += differed[k]
            print(
                f"perfbench: {op.name}: output changed in {differed[k]} later rounds",
                file=sys.stderr,
            )
    return correct, failed, items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        probe = SpeedProbe()
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            wl.setup()
        else:
            setup_times = time_setup(wl, SETUP_REPEATS, probe)
        ops = wl.ops()
        rounds, first, differed, durations, round_times = run_rounds(
            ops, args.seconds, tracer, probe
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, failed, items = judge(wl, ops, first, differed, rounds)
        print(f"perfbench: inputs {json.dumps(wl.describe())}", file=sys.stderr)
        print(
            f"perfbench: reference loop {1000 * statistics.median(probe.samples):.3f} ms "
            f"(median of {len(probe.samples)}; {1000 * REFERENCE_S:g} ms reads as wall time)",
            file=sys.stderr,
        )
        if tracer:
            metrics = tracer.layer_metrics(len(round_times[True]))
            metrics["trace.overhead_s"] = (
                statistics.mean(round_times[True]) - statistics.mean(round_times[False]),
                "s",
            )
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "items_per_s": (throughput(ops, durations, items), "items/s"),
                "op_p50_ms": (1000.0 * statistics.median(t for ts in durations for t in ts), "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": bool(correct),
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
