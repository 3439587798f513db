"""Every top-level function and class of the package, and every
non-dunder method of its classes, has a caller in the program, the
ball-pair lookup stays in one module, only that module builds a
collection from ``Ball`` values, only ``maximal1d`` builds ``Interval``
values, and the selectors, checks and union measures read a collection
through its arrays, never one ``Ball`` at a time.

A definition counts as used when its name is read, imported or taken as
an attribute in ``src/`` outside ``__init__.py``, in ``scripts/`` or in
``perfbench/``, outside its own body.  Re-exports and tests are not
uses.  Names are matched without their module, so the guard errs toward
keeping code alive.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ballcover.geometry import BallCollection, union_perimeter, union_volume_mc
from ballcover.harness import (
    check_prop16_ratio,
    check_thm12,
    check_thm13,
    random_collection,
)
from ballcover.selection import (
    besicovitch_select,
    interval_select_1d,
    overlap_eps_max,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
    vitali_select,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ballcover"
PROGRAM = ("src", "scripts", "perfbench")

# Definitions kept without a caller in the program, each with its reason.
ALLOWED_UNUSED = {
    "free_arc_length_in_disk": "per(E; B) of the planned 2D maximal-function check",
}


def _names(node) -> Counter:
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
    return found


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of
    those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, kinds[:2]) and not method.name.startswith("__"):
                    yield method


def _unused_definitions() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    }
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _definitions(trees[path]):
            if uses[node.name] - _names(node)[node.name] <= 0:
                unused.append(node.name)
    return unused


def test_every_top_level_definition_is_referenced():
    assert sorted(_unused_definitions()) == sorted(ALLOWED_UNUSED)


def _imported_modules(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_only_geometry_looks_up_ball_pairs():
    # Which balls meet is decided by geometry.meeting_pairs alone.
    users = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if "scipy.spatial" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert users == ["geometry"]


def _calls(tree, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_only_geometry_builds_collections_from_balls():
    # Producers hand arrays to BallCollection.from_arrays; the constructor
    # that takes Ball values is for callers outside the package.
    users = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if _calls(ast.parse(path.read_text()), "BallCollection")
    ]
    assert set(users) <= {"geometry"}


def test_only_maximal1d_builds_intervals():
    # Everything else reads 1D balls as the arrays c - r and c + r;
    # Interval is the value type of maximal1d's results.
    users = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if _calls(ast.parse(path.read_text()), "Interval")
    ]
    assert users == ["maximal1d"]


def _half_eps_max(balls):
    return 0.5 * overlap_eps_max(balls.dimension)


_ARRAY_PATHS = {
    "vitali_select": vitali_select,
    "besicovitch_select": besicovitch_select,
    "perimeter_besicovitch_select": perimeter_besicovitch_select,
    "perimeter_vitali_select": lambda b: perimeter_vitali_select(b, _half_eps_max(b)),
    "interval_select_1d": interval_select_1d,
    "check_thm12": lambda b: check_thm12(b, samples_per_ball=200),
    "check_thm13": lambda b: check_thm13(b, _half_eps_max(b), volume_samples=1000),
    "check_prop16_ratio": lambda b: check_prop16_ratio(b, 0.2),
    "union_perimeter": lambda b: union_perimeter(b, samples_per_ball=200),
    "union_volume_mc": lambda b: union_volume_mc(b, samples=1000, seed=0),
}
_ONLY_IN = {"interval_select_1d": 1, "check_prop16_ratio": 2}


@pytest.mark.parametrize(
    "name, d",
    [
        (name, d)
        for name in _ARRAY_PATHS
        for d in (1, 2, 3)
        if _ONLY_IN.get(name, d) == d
    ],
)
def test_collection_read_through_arrays(monkeypatch, name, d):
    # Random balls plus a far pair of unit balls whose lens is small
    # enough that both are chosen, so the chosen balls meet too.
    base = random_collection(d, [31, d], count=20)
    pair = np.zeros((2, d))
    pair[:, 0] = (20.0, 21.9)
    balls = BallCollection.from_arrays(
        np.vstack([base.centers, pair]), np.append(base.radii, [1.0, 1.0])
    )

    def refuse(*args):
        raise AssertionError("a collection was read as Ball values")

    monkeypatch.setattr(BallCollection, "__iter__", refuse)
    monkeypatch.setattr(BallCollection, "__getitem__", refuse)
    _ARRAY_PATHS[name](balls)


def test_import_leaves_kdtree_unloaded():
    # scipy.spatial costs more to import than the whole package; only
    # the first pair lookup should pay for it.
    code = "import sys, ballcover, ballcover.cli; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
