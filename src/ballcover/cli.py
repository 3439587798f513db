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


def _list_parser(convert, noun):
    """A parser of comma-separated lists of convert's values; argparse
    names it in its error text as ``_parse_<type>_list``."""

    def parse(text: str) -> tuple:
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"expected a comma-separated list of {noun}")
        return tuple(convert(p) for p in parts)

    parse.__name__ = f"_parse_{convert.__name__}_list"
    return parse


# Config-file key -> (RunConfig field, parser).  Each key is also a flag:
# "--" plus the key with underscores written as dashes.
_KEY_SPECS: dict[str, tuple[str, object]] = {
    "input": ("input_path", str),
    "output": ("output_path", str),
    "seed": ("seed", int),
    "dim": ("dimension", int),
    "eps": ("eps", float),
    "eps_list": ("eps_list", _list_parser(float, "numbers")),
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
    "d_list": ("d_list", _list_parser(int, "integers")),
}


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
    for name, command in _COMMANDS.items():
        sub.add_parser(
            name, parents=[common], help=command.help, description=command.help
        )
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


def _chosen(cfg: RunConfig) -> tuple[str, object]:
    """The (reads, call) of cfg's choice of work; ("", None) for a command
    that has no choice, or while none is made."""
    work = _COMMANDS[cfg.command].work
    return (work and work(cfg)) or ("", None)


def _reads(cfg: RunConfig) -> list[str]:
    """The RunConfig fields that cfg's command and its choice of work
    read; "!" marks a field the command requires.  Only these fields
    reach the provenance header."""
    return f"{_COMMANDS[cfg.command].reads} {_chosen(cfg)[0]}".split()


def validate(cfg: RunConfig) -> None:
    """Per-command required-field checks before any work happens."""
    if cfg.command not in _COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    for name in _reads(cfg):
        if name.endswith("!") and getattr(cfg, name[:-1]) is None:
            flag = name[:-1].removesuffix("_path").replace("_", "-")
            raise ValidationError(f"{cfg.command} requires --{flag}")


def _config_header(cfg: RunConfig) -> str:
    """Provenance comment lines for output files: the command and each
    field it reads that is set.  ``jobs`` is never among them; worker
    count must not influence output bytes.
    """
    read = {"command", *(name.rstrip("!") for name in _reads(cfg))}
    pairs = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in read and value is not None:
            # str of a float is its shortest round-trip repr
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            pairs.append(f"{f.name}={text}")
    return f"# ballcover {__version__}\n# config {' '.join(pairs)}\n"


# Each handler takes cfg and the call of its choice of work and returns
# the output body, a one-line summary and the exit status; ``main``
# writes the header and the body and prints the summary.


def _cmd_generate(cfg: RunConfig, make) -> tuple[str, str, int]:
    balls = make(cfg)
    summary = f"kind={cfg.kind} wrote {len(balls)} balls (dim {balls.dimension})"
    return dump_balls(balls), summary, 0


def _cmd_select(cfg: RunConfig, select) -> tuple[str, str, int]:
    balls = read_balls(cfg.input_path)
    result = select(cfg, balls)
    summary = f"algorithm={cfg.algorithm} kept {len(result.selected)}/{len(balls)} balls"
    return dump_selection(result), summary, 0


def _cmd_measure(cfg: RunConfig, _) -> tuple[str, str, int]:
    balls = read_balls(cfg.input_path)
    perimeter = union_perimeter(
        balls, samples_per_ball=cfg.samples, seed=cfg.seed
    )
    # exact in d = 1, where the sample count only has to be valid
    volume = union_volume_mc(
        balls, samples=max(1000, cfg.samples * len(balls)), seed=cfg.seed
    )
    body = dump_estimate("perimeter", perimeter) + dump_estimate("volume", volume)
    summary = (
        f"perimeter={_fmt(perimeter.value)} ({perimeter.method}) "
        f"volume={_fmt(volume.value)} ({volume.method})"
    )
    return body, summary, 0


def _corpus(cfg: RunConfig):
    count = 50 if cfg.count is None else cfg.count
    return run_corpus(
        cfg.check,
        count,
        cfg.dimension,
        master_seed=cfg.seed,
        jobs=cfg.jobs,
        eps_values=cfg.eps_list,
        lam=0.2 if cfg.lam is None else cfg.lam,
    )


def _cmd_check(cfg: RunConfig, run) -> tuple[str, str, int]:
    reports = run(cfg)
    body = [format_report(r) for r in reports]
    body.append(format_summary(reports))
    passed = sum(r.passed for r in reports)
    summary = f"{cfg.check} passed {passed}/{len(reports)}"
    return "\n".join(body) + "\n", summary, 0 if passed == len(reports) else 2


def _cmd_rate(cfg: RunConfig, _) -> tuple[str, str, int]:
    fit = check_example14_rate(
        cfg.eps_list, delta=cfg.delta, n_max=cfg.n_max, seed=cfg.seed
    )
    lines = [
        f"# slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
        f"r_squared={_fmt(fit.r_squared)}\n"
    ]
    lines.extend(
        f"# uncovered={_fmt(u)} raw_ratio={_fmt(raw)} eps={_fmt(x)}\n"
        for x, u, raw in zip(fit.xs, fit.uncovered, fit.raw_ratios)
    )
    lines.append("eps,ratio\n")
    lines.extend(f"{_fmt(x)},{_fmt(y)}\n" for x, y in zip(fit.xs, fit.ys))
    summary = (
        f"slope={_fmt(fit.slope)} r_squared={_fmt(fit.r_squared)} "
        f"over {len(fit.xs)} points"
    )
    return "".join(lines), summary, 0


def _cmd_maxfn(cfg: RunConfig, report) -> tuple[str, str, int]:
    return report(cfg, read_step_function(cfg.input_path))


def _maxfn_level(cfg: RunConfig, f) -> tuple[str, str, int]:
    report = level_report(f, cfg.level)
    body = (
        f"level {_fmt(report.level)} "
        f"count_maximal={report.maximal_boundary_count} "
        f"count_function={report.superlevel_boundary_count} "
        f"intervals={len(report.maximal_intervals)}\n"
    )
    ok = report.maximal_boundary_count <= report.superlevel_boundary_count
    summary = (
        f"level={_fmt(report.level)} counts "
        f"{report.maximal_boundary_count}<={report.superlevel_boundary_count}"
        f" passed={ok}"
    )
    return body, summary, 0 if ok else 2


def _maxfn_levels(cfg: RunConfig, f) -> tuple[str, str, int]:
    report = maximal_variation_check(f, cfg.levels)
    lines = [
        f"var_function {_fmt(report.var_f)}\n"
        f"var_maximal_lower_bound {_fmt(report.var_mf_lower_bound)}\n"
    ]
    for rec in report.levels:
        lines.append(
            f"level {_fmt(rec.level)} count_maximal={rec.count_maximal} "
            f"count_function={rec.count_function} skipped={rec.skipped} "
            f"passed={rec.passed}\n"
        )
    lines.append(f"passed {report.passed}\n")
    summary = (
        f"var_mf={_fmt(report.var_mf_lower_bound)} "
        f"var_f={_fmt(report.var_f)} levels={len(report.levels)} "
        f"passed={report.passed}"
    )
    return "".join(lines), summary, 0 if report.passed else 2


# Each choice of work: its name -> (the RunConfig fields it reads, the
# call it makes).  These tables hold only this module's own functions;
# program functions are looked up in the module's globals when a call
# runs, so one rebound there (by a tracer or a test) is the one called.
_KINDS = {
    "random": (
        "dimension seed count",
        lambda c: random_collection(c.dimension, c.seed, c.count),
    ),
    "fig1": ("count! tiny_radius!", lambda c: build_fig1(c.count, c.tiny_radius)),
    "surrounded": (
        "eps! delta! n_max seed",
        lambda c: build_surrounded_ball(
            SurroundedBallConfig(eps=c.eps, delta=c.delta, n_max=c.n_max, seed=c.seed)
        ),
    ),
    "reverse": (
        "eps! box_half_width",
        lambda c: build_reverse_example(c.eps, c.box_half_width),
    ),
}
_ALGORITHMS = {
    "vitali": ("", lambda c, balls: vitali_select(balls)),
    "besicovitch": ("", lambda c, balls: besicovitch_select(balls)),
    "perimeter-besicovitch": ("", lambda c, balls: perimeter_besicovitch_select(balls)),
    "perimeter-vitali": ("eps!", lambda c, balls: perimeter_vitali_select(balls, c.eps)),
    "interval-1d": ("", lambda c, balls: interval_select_1d(balls)),
}
_CHECKS = {
    "thm12": ("count dimension seed", _corpus),
    "thm13": ("count dimension seed eps_list", _corpus),
    "prop16": ("count dimension seed lam", _corpus),
    "isoperimetric": ("d_list grid", lambda c: [check_isoperimetric(c.d_list, c.grid)]),
}
# The config keys whose value names a choice of work.
_CHOICE_KEYS = {"kind": _KINDS, "algorithm": _ALGORITHMS, "check": _CHECKS}


@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler, its help line, the RunConfig fields it
    reads ("!" marks a required one) and, for a command with a choice of
    work, cfg -> that choice's (reads, call), or None while none is made."""

    run: object
    help: str
    reads: str
    work: object = None


_COMMANDS = {
    "generate": _Command(
        _cmd_generate, "build a ball collection and write it to a file",
        "kind! output_path!", lambda c: _KINDS.get(c.kind),
    ),
    "select": _Command(
        _cmd_select, "run a selection algorithm over a stored collection",
        "input_path! output_path! algorithm!", lambda c: _ALGORITHMS.get(c.algorithm),
    ),
    "measure": _Command(
        _cmd_measure, "boundary and volume measures of a stored collection",
        "input_path! output_path! samples seed",
    ),
    "check": _Command(
        _cmd_check, "run a check corpus and write a structured report",
        "check! output_path!", lambda c: _CHECKS.get(c.check),
    ),
    "rate": _Command(
        _cmd_rate, "perimeter-growth sweep over overlap fractions (CSV)",
        "eps_list! delta! output_path! n_max seed",
    ),
    "maxfn": _Command(
        _cmd_maxfn, "level-by-level maximal-function report",
        "input_path! output_path!",
        lambda c: ("levels", _maxfn_levels) if c.level is None
        else ("level", _maxfn_level),
    ),
}


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = resolve_config(args)
        validate(cfg)
        body, summary, status = _COMMANDS[cfg.command].run(cfg, _chosen(cfg)[1])
        atomic_write_text(cfg.output_path, _config_header(cfg) + body)
        print(f"{cfg.command}: {summary} to {cfg.output_path}")
        return status
    except (ValueError, OSError, OverflowError) as exc:  # ValidationError included
        print(f"ballcover: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
