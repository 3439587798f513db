#!/usr/bin/env python3
"""Cost of the surrounded-ball packing (``build_surrounded_ball``) and of
its radius search (``counterexample._PocketQueue``), one JSON line per eps.

Each line gives the packing's ``eps``, its small ``disks`` and why it
stopped, ``stop`` ("radius floor" or "n_max"); the placements whose
radius shrank below the previous one, ``shrinking``; the calls the
search made in the whole build: ``pocket_solves`` (pockets whose shut
radius was bracketed by ``_shut_radius``), ``rejections`` (top pockets'
radii the full probe rejected, after which the pocket learns the disks
that reached its gap and is solved again), ``retired`` (the rejections
after which the pocket learned no disk and was retired), ``trials``
(trial radii of the secant searches, on estimated and on solved
distances),
``solves`` (overlap solves, the two cold solves before the first
placement not counted) and ``cap_volumes`` (scalar cap kernel calls,
all inside the overlap solves); ``probes``, the full probes of the
build; ``probe_s`` and ``solve_s``, the wall seconds spent inside the
full probes and inside the ``_shut_radius`` calls of that build, with
the cost of counting the calls within them; the best of ``repeats``
build times ``best_s`` in wall seconds;
the processors this process may use ``nproc`` and the ``commit`` of the
``ballcover`` sources measured.  The calls are counted in one extra
build, outside the timed ones.

    PYTHONPATH=src python3 scripts/packing_timing.py --eps-list 0.0316,0.01
"""

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

from ballcover import counterexample, geometry
from ballcover.counterexample import SurroundedBallConfig, build_surrounded_ball_detailed


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


@contextlib.contextmanager
def counted():
    """Count, under the names of the JSON line, the calls the packing
    makes while the block runs."""
    calls = Counter()

    def counting(key, real, seconds=None):
        def wrapper(*args):
            calls[key] += 1
            if seconds is None:
                return real(*args)
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                calls[seconds] += time.perf_counter() - start

        return wrapper

    search = counterexample
    queue, secant = search._PocketQueue, search._secant
    learn = queue._learn

    def trials(opening, distance, *args):
        return secant(opening, counting("trials", distance), *args)

    def rejections(*args):
        learned = learn(*args)
        calls["rejections"] += 1
        calls["retired"] += not learned
        return learned

    with contextlib.ExitStack() as patches:
        for owner, name, wrapper in [
            (geometry, "_cap_volume", counting("cap_volumes", geometry._cap_volume)),
            (search, "_overlap_distance", counting("solves", search._overlap_distance)),
            (queue, "gaps", counting("probes", queue.gaps, "probe_s")),
            (search, "_shut_radius", counting("pocket_solves", search._shut_radius, "solve_s")),
            (queue, "_learn", rejections),
            (search, "_secant", trials),
        ]:
            patches.enter_context(mock.patch.object(owner, name, wrapper))
        yield calls


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--eps-list", default=f"{10.0**-1.5!r},0.01", help="comma-separated overlap fractions"
    )
    parser.add_argument("--delta", type=float, default=0.3)
    parser.add_argument("--n-max", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="builds timed per eps")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    head = commit()
    for eps in (float(v) for v in args.eps_list.split(",")):
        cfg = SurroundedBallConfig(eps=eps, delta=args.delta, n_max=args.n_max, seed=args.seed)
        with counted() as calls:
            packing, stop = build_surrounded_ball_detailed(cfg)
        best = math.inf
        for _ in range(args.repeats):
            start = time.perf_counter()
            build_surrounded_ball_detailed(cfg)
            best = min(best, time.perf_counter() - start)
        radii = packing.radii[1:]
        row = {
            "eps": eps,
            "disks": radii.size,
            "stop": stop,
            "shrinking": int((radii[1:] < radii[:-1]).sum()),
            "pocket_solves": calls["pocket_solves"],
            "rejections": calls["rejections"],
            "retired": calls["retired"],
            "trials": calls["trials"],
            "solves": calls["solves"],
            "cap_volumes": calls["cap_volumes"],
            "probes": calls["probes"],
            "probe_s": calls["probe_s"],
            "solve_s": calls["solve_s"],
            "best_s": best,
            "repeats": args.repeats,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": head,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
