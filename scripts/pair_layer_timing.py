#!/usr/bin/env python3
"""Build time of the pair layer (``BallCollection.pairs``) and run time
of the four 2D selectors on disks of the ``select`` benchmark law, one
JSON line per size.

The law: centres uniform in a square, radii log-uniform in
[0.005, 1]; the square's side, 22 at 3000 disks, grows with the square
root of the count, so each disk keeps about five overlapping
neighbours.  Each line gives the disk count ``n``, the pairs whose open
interiors meet ``pairs``, the best of ``repeats`` build times
``best_s`` in wall seconds, each on a new collection made outside the
timer, the best of ``repeats`` runs of each selector on the built
layer (``vitali_s``, ``besicovitch_s``, ``perimeter_besicovitch_s``
and ``perimeter_vitali_s``, the last at eps 0.01, the benchmark's), the
processors this process may use ``nproc`` and the ``commit`` of the
``ballcover`` sources measured.

    PYTHONPATH=src python3 scripts/pair_layer_timing.py --sizes 3000,100000
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ballcover import geometry, selection


def select_law(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of n disks of the ``select`` law."""
    rng = np.random.default_rng([seed, 5])
    side = 22.0 * math.sqrt(n / 3000.0)
    centers = rng.uniform(0.0, side, size=(n, 2))
    radii = np.exp(rng.uniform(math.log(0.005), 0.0, size=n))
    return centers, radii


# The selectors timed on a built layer, by their key.
SELECTORS = {
    "vitali_s": selection.vitali_select,
    "besicovitch_s": selection.besicovitch_select,
    "perimeter_besicovitch_s": selection.perimeter_besicovitch_select,
    "perimeter_vitali_s": lambda balls: selection.perimeter_vitali_select(balls, 0.01),
}


def best_time(select, balls, repeats: int) -> float:
    """Least wall time of ``repeats`` calls of ``select(balls)``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        select(balls)
        best = min(best, time.perf_counter() - start)
    return best


def commit() -> str | None:
    """HEAD of the checkout ``ballcover`` was imported from, if git can
    read it."""
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=Path(geometry.__file__).resolve().parent,
        capture_output=True,
        text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", default="3000,100000,1000000", help="comma-separated disk counts"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="builds and selector runs timed per size"
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    head = commit()
    for n in (int(v) for v in args.sizes.split(",")):
        centers, radii = select_law(n, args.seed)
        best = math.inf
        for _ in range(args.repeats):
            # a collection keeps its layer, so each repeat needs a new one
            balls = geometry.BallCollection.from_arrays(centers, radii)
            start = time.perf_counter()
            owner = balls.pairs[1]
            best = min(best, time.perf_counter() - start)
        row = {
            "n": n,
            "pairs": owner.size // 2,
            "best_s": best,
            **{key: best_time(f, balls, args.repeats) for key, f in SELECTORS.items()},
            "repeats": args.repeats,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": head,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
