#!/usr/bin/env python3
"""Time of the Monte Carlo estimates per ball on collections of the
corpus law, one JSON line per dimension and ball count.

The law is ``harness.random_collection``'s: centres uniform in
[-3, 3]^d, radii log-uniform in [0.05, 1].  Each line gives the
dimension ``d`` and ball count ``n``; the pair layer's build time
``pairs_s``; the seconds per ball of ``union_perimeter_mc`` at
``samples`` draws per ball, ``perimeter_s_per_ball``, and of
``union_volume_mc`` at ``volume_samples`` draws, ``volume_s_per_ball``;
each the best of ``repeats`` runs in wall seconds on a new collection
made outside the timer, whose pair layer the estimates then share.
``drawing_balls`` counts the spheres that draw samples, those with a
neighbour that blocks some direction, and ``one_neighbour_balls`` those
of them with exactly one such neighbour.
``nproc`` is the processors this process may use and ``commit`` the
commit of the ``ballcover`` sources measured.

    PYTHONPATH=src python3 scripts/mc_timing.py --dims 2,3 --sizes 2,20,40,300
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

from ballcover import geometry
from ballcover.harness import random_collection


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
    parser.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    parser.add_argument("--sizes", default="2,20,40,300", help="comma-separated ball counts")
    parser.add_argument("--samples", type=int, default=5000, help="perimeter draws per ball")
    parser.add_argument(
        "--volume-samples", type=int, default=20000, help="volume draws per collection"
    )
    parser.add_argument("--repeats", type=int, default=3, help="runs timed per line")
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    head = commit()
    for d in (int(v) for v in args.dims.split(",")):
        for n in (int(v) for v in args.sizes.split(",")):
            balls = random_collection(d, [args.seed, d, n], count=n)
            _, spheres, start, *_ = geometry._mc_blockers(balls)
            blockers = np.diff(start)[spheres]
            best = {"pairs": math.inf, "perimeter": math.inf, "volume": math.inf}
            for _ in range(args.repeats):
                # a collection keeps its layer, so each repeat needs a new one
                fresh = geometry.BallCollection.from_arrays(balls.centers, balls.radii)
                runs = {
                    "pairs": lambda: fresh.pairs,
                    "perimeter": lambda: geometry.union_perimeter_mc(
                        fresh, args.samples, args.seed
                    ),
                    "volume": lambda: geometry.union_volume_mc(
                        fresh, args.volume_samples, args.seed
                    ),
                }
                for name, run in runs.items():
                    start = time.perf_counter()
                    run()
                    best[name] = min(best[name], time.perf_counter() - start)
            row = {
                "d": d,
                "n": n,
                "samples": args.samples,
                "volume_samples": args.volume_samples,
                "pairs_s": best["pairs"],
                "perimeter_s_per_ball": best["perimeter"] / n,
                "volume_s_per_ball": best["volume"] / n,
                "drawing_balls": int(np.count_nonzero(blockers)),
                "one_neighbour_balls": int(np.count_nonzero(blockers == 1)),
                "repeats": args.repeats,
                "nproc": len(os.sched_getaffinity(0)),
                "commit": head,
            }
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
