"""Every top-level function and class of the package, and every
non-dunder method of its classes, has a caller in the program, the
ball-pair lookup stays in one module and is built only by
``BallCollection.pairs``, only that module builds a
collection from ``Ball`` values, only ``maximal1d`` builds ``Interval``
values, and the selectors, checks and union measures read a collection
only through its arrays: none of them builds a ``Ball`` value.

A top-level function or class counts as used when its name is read
bare, imported or taken as ``<its module>.<name>`` in ``src/`` outside
``__init__.py``, in ``scripts/`` or in ``perfbench/``, outside its own
body; an attribute of some other object of the same name is not a use.
A method counts as used when its name is read or taken as an attribute
of anything, since the type of the object is not known.  Re-exports and
tests are not uses.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ballcover.geometry import Ball, BallCollection, union_perimeter, union_volume_mc
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
ALLOWED_UNUSED = {}


def _names(node) -> tuple[Counter, Counter]:
    """Names read bare or imported under ``node``, and attributes keyed
    by (owner, name), the owner being the last name of the object they
    are taken from (None when that has no name)."""
    bare, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare[sub.id] += 1
        elif isinstance(sub, ast.alias):
            bare[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Attribute):
            owner = getattr(sub.value, "id", None) or getattr(sub.value, "attr", None)
            attrs[owner, sub.attr] += 1
    return bare, attrs


def _uses(names: tuple[Counter, Counter], name: str, module: str | None) -> int:
    """Uses of the top-level definition ``name`` of ``module``, or of a
    method ``name`` when ``module`` is None, among ``_names`` counts."""
    bare, attrs = names
    if module is None:
        return bare[name] + sum(n for (_, attr), n in attrs.items() if attr == name)
    return bare[name] + attrs[module, name]


def _definitions(tree):
    """Top-level functions and classes with None, and the non-dunder
    methods of those classes with their class name."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node, None
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, kinds[:2]) and not method.name.startswith("__"):
                    yield method, node.name


def _unused_definitions(trees: dict[Path, ast.Module], package: list[Path]) -> list[str]:
    """Definitions of the ``package`` modules that no tree in ``trees``
    uses outside their own body."""
    program = [_names(tree) for tree in trees.values()]
    unused = []
    for path in package:
        for node, owner in _definitions(trees[path]):
            module = path.stem if owner is None else None
            total = sum(_uses(names, node.name, module) for names in program)
            if total - _uses(_names(node), node.name, module) <= 0:
                unused.append(node.name)
    return unused


def _program_trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_top_level_definition_is_referenced():
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert sorted(_unused_definitions(_program_trees(), package)) == sorted(ALLOWED_UNUSED)


@pytest.mark.parametrize(
    "use, flagged",
    [
        ("mean = ref.average(xs)", True),  # some other object's attribute
        ("mean = stats.average(xs)", False),
        ("mean = pkg.stats.average(xs)", False),
        ("mean = average(xs)", False),
        ("from pkg.stats import average", False),
    ],
)
def test_module_function_needs_its_module_or_a_bare_name(use, flagged):
    # A module function that shares its name with a method elsewhere
    # (maximal1d.average against StepRef.average) is not kept alive by
    # the method's calls.
    stats, report = Path("pkg/stats.py"), Path("pkg/report.py")
    trees = {
        stats: ast.parse("def average(xs):\n    return sum(xs) / len(xs)\n"),
        report: ast.parse(use),
    }
    assert ("average" in _unused_definitions(trees, [stats])) is flagged


def test_method_counts_any_attribute_of_its_name():
    stats, report = Path("pkg/stats.py"), Path("pkg/report.py")
    trees = {
        stats: ast.parse("class Ref:\n    def average(self):\n        return 0.0\n"),
        report: ast.parse("def show(ref):\n    return ref.average()\n"),
    }
    assert _unused_definitions(trees, [stats]) == ["Ref"]


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
    # Which balls meet is decided by the pair layer of geometry alone:
    # its radius-class kd-trees are the only ones the package builds.
    users = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if "scipy.spatial" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert users == ["geometry"]


def _calls(tree, name: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_only_the_pair_layer_runs_the_candidate_search():
    # BallCollection.pairs is the one builder of the pair layer; another
    # caller of its candidate search would be a second way to build one.
    trees = _program_trees()
    callers = [
        (path.stem, f"{owner}.{node.name}" if owner else node.name)
        for path, tree in trees.items()
        for node, owner in _definitions(tree)
        if not isinstance(node, ast.ClassDef) and _calls(node, "_candidate_pairs")
    ]
    total = sum(_calls(tree, "_candidate_pairs") for tree in trees.values())
    assert callers == [("geometry", "BallCollection.pairs")] and total == 1


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

    def refuse(*args, **kwargs):
        raise AssertionError("a Ball value was built")

    monkeypatch.setattr(Ball, "__init__", refuse)
    _ARRAY_PATHS[name](balls)


def test_import_leaves_scipy_unloaded():
    # scipy costs more to import than the whole package; only the first
    # pair lookup (scipy.spatial) and the first cap volume for d >= 3
    # (scipy.special) should pay for it.
    code = (
        "import sys, ballcover, ballcover.cli; "
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_selection_orders_balls_once():
    # Every selector runs the one largest-first scan of selection.py.
    assert (PACKAGE / "selection.py").read_text().count("argsort(-radii") == 1
