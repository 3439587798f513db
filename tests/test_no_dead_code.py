"""Every top-level function and class of the package is used somewhere,
the ball-pair lookup stays in one module, and only that module builds a
collection from ``Ball`` values.

A definition counts as used when its name is read, imported or taken as
an attribute anywhere in ``src/``, ``scripts/`` or ``tests/`` outside
its own body.  Names are matched without their module, so the guard
errs toward keeping code alive.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ballcover"
SEARCHED = ("src", "scripts", "tests")


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


def _unused_definitions() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if uses[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_top_level_definition_is_referenced():
    assert _unused_definitions() == []


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


def test_import_leaves_kdtree_unloaded():
    # scipy.spatial costs more to import than the whole package; only
    # the first pair lookup should pay for it.
    code = "import sys, ballcover, ballcover.cli; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
