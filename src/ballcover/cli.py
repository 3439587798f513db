"""Command-line entry point for reproducible ball-cover experiments.

Wires the generators, selection procedures, measures, and check corpora
into six subcommands::

    generate  build a ball collection (random / ring / surrounded / reverse)
    select    run a selection algorithm over a stored collection
    measure   boundary and volume measures of a stored collection
    check     run a check corpus and write a structured report
    rate      perimeter-growth sweep over a list of overlap fractions (CSV)
    maxfn     level-by-level maximal-function report for a step function

Configuration comes from flags and/or a flat ``key=value`` file
(``--config``); flags override file values and unknown keys are
rejected.  Outputs are written atomically, embed the package version
and the configuration fields the command read, and are byte-identical
across reruns with the same configuration and seed, including under
``--jobs`` variation.  Exit codes: 0 success, 1 validation error, 2
check failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields

from . import __version__
from .counterexample import (
    SurroundedBallConfig,
    build_fig1,
    build_reverse_example,
    build_surrounded_ball,
)
from .formats import (
    _fmt,
    atomic_write_text,
    dump_balls,
    dump_estimate,
    dump_selection,
    read_balls,
    read_step_function,
)
from .geometry import union_perimeter, union_volume_mc
from .harness import (
    check_example14_rate,
    check_isoperimetric,
    format_report,
    format_summary,
    random_collection,
    run_corpus,
)
from .maximal1d import level_report, maximal_variation_check
from .selection import (
    besicovitch_select,
    interval_select_1d,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
    vitali_select,
)

COMMANDS = ("generate", "select", "measure", "check", "rate", "maxfn")
ALGORITHMS = (
    "vitali",
    "besicovitch",
    "perimeter-besicovitch",
    "perimeter-vitali",
    "interval-1d",
)
GENERATOR_KINDS = ("random", "fig1", "surrounded", "reverse")
CHECKS = ("thm12", "thm13", "prop16", "isoperimetric")


class ValidationError(ValueError):
    """A malformed configuration (exit status 1)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command plus every tunable field."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    seed: int = 0
    dimension: int = 2
    eps: float | None = None
    eps_list: tuple[float, ...] | None = None
    delta: float | None = None
    lam: float | None = None
    level: float | None = None
    levels: int = 200
    samples: int = 20000
    algorithm: str | None = None
    jobs: int = 1
    kind: str | None = None
    count: int | None = None
    tiny_radius: float | None = None
    n_max: int = 8000
    box_half_width: float = 4.0
    check: str | None = None
    grid: int = 200
    d_list: tuple[int, ...] = (2, 3, 4)


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


# Config-file key -> (RunConfig field, parser).  Each key is also a flag:
# "--" plus the key with underscores written as dashes.
_KEY_SPECS: dict[str, tuple[str, object]] = {
    "input": ("input_path", str),
    "output": ("output_path", str),
    "seed": ("seed", int),
    "dim": ("dimension", int),
    "eps": ("eps", float),
    "eps_list": ("eps_list", _parse_float_list),
    "delta": ("delta", float),
    "lambda": ("lam", float),
    "level": ("level", float),
    "levels": ("levels", int),
    "samples": ("samples", int),
    "algorithm": ("algorithm", str),
    "jobs": ("jobs", int),
    "kind": ("kind", str),
    "count": ("count", int),
    "tiny_radius": ("tiny_radius", float),
    "n_max": ("n_max", int),
    "box_half_width": ("box_half_width", float),
    "check": ("check", str),
    "grid": ("grid", int),
    "d_list": ("d_list", _parse_int_list),
}

_CHOICE_KEYS = {"algorithm": ALGORITHMS, "kind": GENERATOR_KINDS, "check": CHECKS}


def _read_config_file(path: str) -> dict[str, object]:
    """Parse a flat key=value file into RunConfig field values."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValidationError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        if key not in _KEY_SPECS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        field_name, parse = _KEY_SPECS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}")
        if key in _CHOICE_KEYS and parsed not in _CHOICE_KEYS[key]:
            raise ValidationError(
                f"{path}:{lineno}: {key} must be one of {', '.join(_CHOICE_KEYS[key])}"
            )
        values[field_name] = parsed
    return values


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on bad usage; remap to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built once per process: every default is SUPPRESS, so a parse leaves
# nothing behind in the parser for the next one to read.
@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--config", metavar="FILE", help="flat key=value config file")
    for key, (field_name, parse) in _KEY_SPECS.items():
        add(
            "--" + key.replace("_", "-"),
            dest=field_name,
            type=parse,
            choices=_CHOICE_KEYS.get(key),
            metavar="FILE" if field_name.endswith("_path") else None,
        )
    for action in common._actions:
        action.default = argparse.SUPPRESS

    parser = _Parser(prog="ballcover", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"ballcover {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, desc in (
        ("generate", "build a ball collection and write it to a file"),
        ("select", "run a selection algorithm over a stored collection"),
        ("measure", "boundary and volume measures of a stored collection"),
        ("check", "run a check corpus and write a structured report"),
        ("rate", "perimeter-growth sweep over overlap fractions (CSV)"),
        ("maxfn", "level-by-level maximal-function report"),
    ):
        sub.add_parser(name, parents=[common], help=desc, description=desc)
    return parser


def resolve_config(argv) -> RunConfig:
    """Parse argv into a RunConfig: file values first, flags override."""
    namespace = _build_parser().parse_args(argv)
    provided = vars(namespace)
    command = provided.pop("command")
    values: dict[str, object] = {}
    config_path = provided.pop("config", None)
    if config_path is not None:
        values.update(_read_config_file(config_path))
    values.update(provided)
    return RunConfig(command=command, **values)


# The RunConfig fields each command reads, and for generate, select,
# check and maxfn those its choice of work reads; "!" marks a field the
# command requires.  Only these fields reach the provenance header.
_READS = {
    "generate": "kind! output_path!",
    "generate random": "dimension seed count",
    "generate fig1": "count! tiny_radius!",
    "generate surrounded": "eps! delta! n_max seed",
    "generate reverse": "eps! box_half_width",
    "select": "input_path! output_path! algorithm!",
    "select perimeter-vitali": "eps!",
    "measure": "input_path! output_path! samples seed",
    "check": "check! output_path!",
    "check thm12": "count dimension seed",
    "check thm13": "count dimension seed eps_list",
    "check prop16": "count dimension seed lam",
    "check isoperimetric": "d_list grid",
    "rate": "eps_list! delta! output_path! n_max seed",
    "maxfn": "input_path! output_path!",
    "maxfn level": "level",
    "maxfn levels": "levels",
}


def _reads(cfg: RunConfig) -> list[str]:
    """The ``_READS`` entries of cfg's command and of its choice of work."""
    choice = {
        "generate": cfg.kind,
        "select": cfg.algorithm,
        "check": cfg.check,
        "maxfn": "levels" if cfg.level is None else "level",
    }.get(cfg.command)
    return f"{_READS[cfg.command]} {_READS.get(f'{cfg.command} {choice}', '')}".split()


def validate(cfg: RunConfig) -> None:
    """Per-command required-field checks before any work happens."""
    if cfg.command not in COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    for name in _reads(cfg):
        if name.endswith("!") and getattr(cfg, name[:-1]) is None:
            flag = name[:-1].removesuffix("_path").replace("_", "-")
            raise ValidationError(f"{cfg.command} requires --{flag}")


def _config_header(cfg: RunConfig) -> list[str]:
    """Provenance lines for output files: the command and each field it
    reads that is set.  ``jobs`` is never among them; worker count must
    not influence output bytes.
    """
    read = {"command", *(name.rstrip("!") for name in _reads(cfg))}
    pairs = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in read and value is not None:
            # str of a float is its shortest round-trip repr
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            pairs.append(f"{f.name}={text}")
    return [f"ballcover {__version__}", "config " + " ".join(pairs)]


def _cmd_generate(cfg: RunConfig) -> int:
    if cfg.kind == "random":
        balls = random_collection(cfg.dimension, cfg.seed, cfg.count)
    elif cfg.kind == "fig1":
        balls = build_fig1(cfg.count, cfg.tiny_radius)
    elif cfg.kind == "surrounded":
        balls = build_surrounded_ball(
            SurroundedBallConfig(
                eps=cfg.eps, delta=cfg.delta, n_max=cfg.n_max, seed=cfg.seed
            )
        )
    else:
        balls = build_reverse_example(cfg.eps, cfg.box_half_width)
    atomic_write_text(cfg.output_path, dump_balls(balls, _config_header(cfg)))
    print(
        f"generate: kind={cfg.kind} wrote {len(balls)} balls "
        f"(dim {balls.dimension}) to {cfg.output_path}"
    )
    return 0


def _cmd_select(cfg: RunConfig) -> int:
    balls = read_balls(cfg.input_path)
    if cfg.algorithm == "vitali":
        result = vitali_select(balls)
    elif cfg.algorithm == "besicovitch":
        result = besicovitch_select(balls)
    elif cfg.algorithm == "perimeter-besicovitch":
        result = perimeter_besicovitch_select(balls)
    elif cfg.algorithm == "perimeter-vitali":
        result = perimeter_vitali_select(balls, cfg.eps)
    else:
        result = interval_select_1d(balls)
    atomic_write_text(cfg.output_path, dump_selection(result, _config_header(cfg)))
    print(
        f"select: algorithm={cfg.algorithm} kept {len(result.selected)}/"
        f"{len(balls)} balls to {cfg.output_path}"
    )
    return 0


def _cmd_measure(cfg: RunConfig) -> int:
    balls = read_balls(cfg.input_path)
    perimeter = union_perimeter(
        balls, samples_per_ball=cfg.samples, seed=cfg.seed
    )
    # exact in d = 1, where the sample count only has to be valid
    volume = union_volume_mc(
        balls, samples=max(1000, cfg.samples * len(balls)), seed=cfg.seed
    )
    text = "".join(
        [
            "".join(f"# {line}\n" for line in _config_header(cfg)),
            dump_estimate("perimeter", perimeter),
            dump_estimate("volume", volume),
        ]
    )
    atomic_write_text(cfg.output_path, text)
    print(
        f"measure: perimeter={_fmt(perimeter.value)} ({perimeter.method}) "
        f"volume={_fmt(volume.value)} ({volume.method}) to {cfg.output_path}"
    )
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    if cfg.check == "isoperimetric":
        reports = [check_isoperimetric(cfg.d_list, cfg.grid)]
    else:
        count = 50 if cfg.count is None else cfg.count
        reports = run_corpus(
            cfg.check,
            count,
            cfg.dimension,
            master_seed=cfg.seed,
            jobs=cfg.jobs,
            eps_values=cfg.eps_list,
            lam=0.2 if cfg.lam is None else cfg.lam,
        )
    header = "".join(f"# {line}\n" for line in _config_header(cfg))
    body = [format_report(r) for r in reports]
    body.append(format_summary(reports))
    atomic_write_text(cfg.output_path, header + "\n".join(body) + "\n")
    passed = sum(r.passed for r in reports)
    print(
        f"check: {cfg.check} passed {passed}/{len(reports)} to {cfg.output_path}"
    )
    return 0 if passed == len(reports) else 2


def _cmd_rate(cfg: RunConfig) -> int:
    fit = check_example14_rate(
        cfg.eps_list, delta=cfg.delta, n_max=cfg.n_max, seed=cfg.seed
    )
    lines = [f"# {line}\n" for line in _config_header(cfg)]
    lines.append(
        f"# slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
        f"r_squared={_fmt(fit.r_squared)}\n"
    )
    lines.extend(
        f"# uncovered={_fmt(u)} raw_ratio={_fmt(raw)} eps={_fmt(x)}\n"
        for x, u, raw in zip(fit.xs, fit.uncovered, fit.raw_ratios)
    )
    lines.append("eps,ratio\n")
    lines.extend(f"{_fmt(x)},{_fmt(y)}\n" for x, y in zip(fit.xs, fit.ys))
    atomic_write_text(cfg.output_path, "".join(lines))
    print(
        f"rate: slope={_fmt(fit.slope)} r_squared={_fmt(fit.r_squared)} "
        f"over {len(fit.xs)} points to {cfg.output_path}"
    )
    return 0


def _cmd_maxfn(cfg: RunConfig) -> int:
    f = read_step_function(cfg.input_path)
    lines = [f"# {line}\n" for line in _config_header(cfg)]
    if cfg.level is not None:
        report = level_report(f, cfg.level)
        lines.append(
            f"level {_fmt(report.level)} "
            f"count_maximal={report.maximal_boundary_count} "
            f"count_function={report.superlevel_boundary_count} "
            f"intervals={len(report.maximal_intervals)}\n"
        )
        atomic_write_text(cfg.output_path, "".join(lines))
        ok = report.maximal_boundary_count <= report.superlevel_boundary_count
        print(
            f"maxfn: level={_fmt(report.level)} counts "
            f"{report.maximal_boundary_count}<={report.superlevel_boundary_count}"
            f" passed={ok} to {cfg.output_path}"
        )
        return 0 if ok else 2
    report = maximal_variation_check(f, cfg.levels)
    lines.append(
        f"var_function {_fmt(report.var_f)}\n"
        f"var_maximal_lower_bound {_fmt(report.var_mf_lower_bound)}\n"
    )
    for rec in report.levels:
        lines.append(
            f"level {_fmt(rec.level)} count_maximal={rec.count_maximal} "
            f"count_function={rec.count_function} skipped={rec.skipped} "
            f"passed={rec.passed}\n"
        )
    lines.append(f"passed {report.passed}\n")
    atomic_write_text(cfg.output_path, "".join(lines))
    print(
        f"maxfn: var_mf={_fmt(report.var_mf_lower_bound)} "
        f"var_f={_fmt(report.var_f)} levels={len(report.levels)} "
        f"passed={report.passed} to {cfg.output_path}"
    )
    return 0 if report.passed else 2


_COMMANDS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "measure": _cmd_measure,
    "check": _cmd_check,
    "rate": _cmd_rate,
    "maxfn": _cmd_maxfn,
}


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = resolve_config(args)
        validate(cfg)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError, OverflowError) as exc:  # ValidationError included
        print(f"ballcover: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
