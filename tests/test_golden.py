"""Byte-level regression of every CLI command against recorded outputs.

Each run below is a small fixed-seed invocation of one subcommand, and
``tests/golden/`` holds the file it wrote when the outputs were last
recorded.  The runs share one working directory, so later runs read
the collections that earlier ones generate.  Paths stay relative
because the ``# config`` header of every output embeds them.

After a deliberate output change, rewrite the recorded files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from ballcover.cli import main
from ballcover.formats import save_step_function
from ballcover.maximal1d import StepFunction

GOLDEN = Path(__file__).parent / "golden"

STEP = StepFunction(
    (0.0, 0.7, 1.5, 2.25, 3.0, 4.1, 5.0),
    (1.2, 0.3, 2.6, 0.0, 1.7, 0.9),
)

_SELECT = {
    "vitali": [],
    "besicovitch": [],
    "perimeter-besicovitch": [],
    "perimeter-vitali": ["--eps", "0.02"],
}

# (output file, argv without --output), in execution order.
RUNS = [
    ("random1d.txt", ["generate", "--kind", "random", "--dim", "1", "--count", "15", "--seed", "2"]),
    ("random2d.txt", ["generate", "--kind", "random", "--dim", "2", "--count", "30", "--seed", "5"]),
    ("random3d.txt", ["generate", "--kind", "random", "--dim", "3", "--seed", "3"]),
    ("fig1.txt", ["generate", "--kind", "fig1", "--count", "40", "--tiny-radius", "0.05"]),
    ("surrounded.txt", ["generate", "--kind", "surrounded", "--eps", "0.2", "--delta", "0.5", "--seed", "7"]),
    ("reverse.txt", ["generate", "--kind", "reverse", "--eps", "0.1", "--box-half-width", "3"]),
    *(
        (f"select{d}d-{alg}.txt", ["select", "--algorithm", alg, "--input", f"random{d}d.txt", *extra])
        for d in (1, 2, 3)
        for alg, extra in _SELECT.items()
    ),
    ("select1d-interval-1d.txt", ["select", "--algorithm", "interval-1d", "--input", "random1d.txt"]),
    ("measure2d.txt", ["measure", "--input", "random2d.txt", "--samples", "500", "--seed", "4"]),
    ("measure3d.txt", ["measure", "--input", "random3d.txt", "--samples", "500", "--seed", "4"]),
    ("check-thm12.txt", ["check", "--check", "thm12", "--dim", "2", "--count", "4", "--seed", "1"]),
    *(
        (f"check-thm13-{d}d.txt", ["check", "--check", "thm13", "--dim", str(d), "--count", "3", "--seed", "1"])
        for d in (1, 2, 3)
    ),
    ("check-prop16.txt", ["check", "--check", "prop16", "--dim", "2", "--count", "4", "--seed", "1"]),
    ("check-iso.txt", ["check", "--check", "isoperimetric", "--d-list", "2,3,4", "--grid", "50"]),
    ("rate.csv", ["rate", "--eps-list", "0.05,0.02", "--delta", "0.9", "--seed", "7"]),
    ("maxfn-grid.txt", ["maxfn", "--input", "step.txt", "--levels", "40"]),
    ("maxfn-level.txt", ["maxfn", "--input", "step.txt", "--level", "1.1"]),
    # Larger collections, for both pair-lookup paths: random2d-300 has
    # more than geometry._GROUP_BALLS = 256 balls and takes the grouped
    # kd-trees, random3d-100 the one tree.
    ("random2d-300.txt", ["generate", "--kind", "random", "--dim", "2", "--count", "300", "--seed", "6"]),
    *(
        (f"select2d-300-{alg}.txt", ["select", "--algorithm", alg, "--input", "random2d-300.txt", *extra])
        for alg, extra in _SELECT.items()
    ),
    ("random3d-100.txt", ["generate", "--kind", "random", "--dim", "3", "--count", "100", "--seed", "8"]),
    ("measure3d-100.txt", ["measure", "--input", "random3d-100.txt", "--samples", "500", "--seed", "4"]),
]


def _run_all(workdir: Path) -> None:
    """Run every command inside workdir, leaving its outputs there."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        save_step_function("step.txt", STEP)
        for name, argv in RUNS:
            code = main([*argv, "--output", name])
            assert code == 0, f"{name}: exit status {code}"
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    _run_all(workdir)
    return workdir


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_output_matches_recorded_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_every_recorded_file_has_a_run():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(n for n, _ in RUNS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _run_all(GOLDEN)
    (GOLDEN / "step.txt").unlink()
