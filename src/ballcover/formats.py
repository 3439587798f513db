"""Line-oriented text formats shared by the library and the CLI.

Ball collections: a header line ``d n`` followed by n lines of
``x_1 ... x_d r`` in full float precision.  Step functions: one line of
k+1 breakpoints, one line of k values.  Lines starting with ``#`` are
comments and are ignored on read.  All write helpers are atomic
(temp file plus rename) so partially written outputs never appear.
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np

from .geometry import BallCollection, PerimeterEstimate
from .maximal1d import StepFunction
from .selection import SelectionResult


def _fmt(value) -> str:
    """Shortest round-trip text of a float (numpy scalars included), and
    of dicts, lists and tuples of them; anything else as ``str``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, dict):
        inner = ",".join(f"{k}:{_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_fmt(v) for v in value) + ")"
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temporary sibling file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _data_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def dump_balls(balls: BallCollection, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append(f"{balls.dimension} {len(balls)}")
    rows = np.column_stack((balls.centers, balls.radii)).tolist()
    lines.extend(" ".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def load_balls(text: str) -> BallCollection:
    """Parse a header ``d n`` and n lines of ``x_1 ... x_d r`` with
    ``float()``.  A malformed header, a dimension below 1, a wrong count
    of lines or numbers, and the balls that ``BallCollection.from_arrays``
    rejects (a center coordinate that is not finite, a radius that is not
    finite and positive) raise ``ValueError``."""
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty ball collection file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'd n'")
    d, n = int(head[0]), int(head[1])
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} ball lines, found {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    for line, row in zip(lines[1:], rows):
        if len(row) != d + 1:
            raise ValueError(f"ball line needs {d + 1} numbers: {line!r}")
    values = np.fromiter(
        map(float, itertools.chain.from_iterable(rows)), float, n * (d + 1)
    ).reshape(n, d + 1)
    return BallCollection.from_arrays(values[:, :d], values[:, d])


def save_balls(path: str, balls: BallCollection, header_comments=None) -> None:
    atomic_write_text(path, dump_balls(balls, header_comments))


def read_balls(path: str) -> BallCollection:
    with open(path) as fh:
        return load_balls(fh.read())


def dump_step_function(f: StepFunction, header_comments=None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append(" ".join(_fmt(x) for x in f.breakpoints))
    lines.append(" ".join(_fmt(v) for v in f.values))
    return "\n".join(lines) + "\n"


def load_step_function(text: str) -> StepFunction:
    lines = _data_lines(text)
    if len(lines) != 2:
        raise ValueError("step function file needs a breakpoint line and a value line")
    xs = [float(p) for p in lines[0].split()]
    vs = [float(p) for p in lines[1].split()]
    if len(xs) != len(vs) + 1:
        raise ValueError("need k+1 breakpoints for k values")
    return StepFunction(tuple(xs), tuple(vs))


def save_step_function(path: str, f: StepFunction, header_comments=None) -> None:
    atomic_write_text(path, dump_step_function(f, header_comments))


def read_step_function(path: str) -> StepFunction:
    with open(path) as fh:
        return load_step_function(fh.read())


def dump_estimate(label: str, est: PerimeterEstimate) -> str:
    return (
        f"{label} value={_fmt(est.value)} std_error={_fmt(est.std_error)} "
        f"method={est.method} sample_count={est.sample_count}\n"
    )


def dump_selection(result: SelectionResult, header_comments=None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("selected " + " ".join(map(str, result.selected)))
    for key in sorted(result.groups):
        lines.append(f"group {key} " + " ".join(map(str, result.groups[key])))
    if result.families is not None:
        for k, fam in enumerate(result.families):
            lines.append(f"family {k} " + " ".join(map(str, fam)))
    for key in sorted(result.params):
        lines.append(f"param {key}={result.params[key]}")
    return "\n".join(lines) + "\n"

