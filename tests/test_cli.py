"""End-to-end tests of the command-line interface.

Every subcommand runs against real files in a temp directory; the
config-file/flag precedence rules, exit statuses, and byte-level
determinism of outputs (including across worker counts) are checked on
the produced artifacts.
"""

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ballcover import cli
from ballcover.cli import RunConfig, ValidationError, main, resolve_config
from ballcover.formats import read_balls, save_balls, save_step_function
from ballcover.harness import random_collection
from ballcover.maximal1d import StepFunction, VariationReport
from ballcover.selection import SelectionResult


def load_selection(text: str) -> SelectionResult:
    """Parse a ``select`` output file; an unknown record kind fails."""
    selected: list[int] = []
    groups: dict[int, list[int]] = {}
    families: list[list[int]] = []
    params: dict[str, str] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "selected":
            selected = [int(p) for p in parts[1:]]
        elif parts[0] == "group":
            groups[int(parts[1])] = [int(p) for p in parts[2:]]
        elif parts[0] == "family":
            families.append([int(p) for p in parts[2:]])
        elif parts[0] == "param":
            key, _, val = line.split(None, 1)[1].partition("=")
            params[key] = val
        else:
            raise ValueError(f"unknown selection record {parts[0]!r}")
    return SelectionResult(selected, groups, families or None, params)


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture
def balls_file(tmp_path):
    path = tmp_path / "balls.txt"
    save_balls(str(path), random_collection(2, seed=11))
    return str(path)


@pytest.fixture
def step_file(tmp_path):
    path = tmp_path / "f.txt"
    save_step_function(
        str(path), StepFunction((0.0, 1.0, 2.0, 4.0), (2.0, 0.5, 3.0))
    )
    return str(path)


# ---------------------------------------------------------------------------
# resolve_config
# ---------------------------------------------------------------------------


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config(["measure", "--input", "a", "--output", "b"])
        assert cfg.command == "measure"
        assert cfg.seed == 0
        assert cfg.dimension == 2
        assert cfg.samples == 20000
        assert cfg.jobs == 1
        assert cfg.n_max == 8000
        assert cfg.levels == 200
        assert cfg.grid == 200
        assert cfg.d_list == (2, 3, 4)
        assert cfg.box_half_width == 4.0
        assert cfg.eps is None

    def test_flags_parse(self):
        cfg = resolve_config(
            [
                "rate",
                "--eps-list",
                "0.05,0.01",
                "--delta",
                "0.3",
                "--output",
                "r.csv",
                "--seed",
                "7",
                "--n-max",
                "123",
            ]
        )
        assert cfg.eps_list == (0.05, 0.01)
        assert cfg.delta == 0.3
        assert cfg.seed == 7
        assert cfg.n_max == 123

    def test_config_file_applies(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment line\n"
            "\n"
            "kind = reverse\n"
            "eps = 0.05\n"
            "output = out.txt\n"
            "seed=9\n"
        )
        cfg = resolve_config(["generate", "--config", str(conf)])
        assert cfg.kind == "reverse"
        assert cfg.eps == 0.05
        assert cfg.output_path == "out.txt"
        assert cfg.seed == 9

    def test_flags_override_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed=9\neps=0.05\n")
        cfg = resolve_config(
            ["generate", "--config", str(conf), "--seed", "3", "--kind", "reverse"]
        )
        assert cfg.seed == 3
        assert cfg.eps == 0.05
        assert cfg.kind == "reverse"

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon=0.05\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            resolve_config(["generate", "--config", str(conf)])

    def test_malformed_config_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just some words\n")
        with pytest.raises(ValidationError, match="expected key=value"):
            resolve_config(["generate", "--config", str(conf)])

    def test_bad_choice_in_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("algorithm=quickest\n")
        with pytest.raises(ValidationError, match="must be one of"):
            resolve_config(["select", "--config", str(conf)])

    def test_missing_config_file(self):
        with pytest.raises(ValidationError, match="cannot read config file"):
            resolve_config(["generate", "--config", "/nonexistent/x.conf"])

    def test_lambda_key_maps_to_lam(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lambda=0.25\n")
        cfg = resolve_config(["check", "--config", str(conf)])
        assert cfg.lam == 0.25

    def test_reused_parser_keeps_no_values(self, tmp_path):
        # the parser is built once per process; a second resolve must see
        # none of the first one's file values or flags
        conf = tmp_path / "run.conf"
        conf.write_text("seed=9\neps=0.05\noutput=out.txt\n")
        first = resolve_config(
            ["generate", "--config", str(conf), "--kind", "reverse", "--levels", "40"]
        )
        assert (first.seed, first.eps, first.kind, first.levels) == (9, 0.05, "reverse", 40)
        second = resolve_config(["generate"])
        assert cli._build_parser() is cli._build_parser()
        assert second == RunConfig(command="generate")


# Config key -> (value text, RunConfig field, parsed value); each flag is
# "--" plus the key with "_" written "-".
KEY_SAMPLES = {
    "input": ("in.txt", "input_path", "in.txt"),
    "output": ("out.txt", "output_path", "out.txt"),
    "seed": ("17", "seed", 17),
    "dim": ("3", "dimension", 3),
    "eps": ("0.125", "eps", 0.125),
    "eps_list": ("0.05,0.02", "eps_list", (0.05, 0.02)),
    "delta": ("0.3", "delta", 0.3),
    "lambda": ("0.25", "lam", 0.25),
    "level": ("1.1", "level", 1.1),
    "levels": ("40", "levels", 40),
    "samples": ("500", "samples", 500),
    "algorithm": ("perimeter-vitali", "algorithm", "perimeter-vitali"),
    "jobs": ("2", "jobs", 2),
    "kind": ("surrounded", "kind", "surrounded"),
    "count": ("12", "count", 12),
    "tiny_radius": ("0.05", "tiny_radius", 0.05),
    "n_max": ("123", "n_max", 123),
    "box_half_width": ("2.5", "box_half_width", 2.5),
    "check": ("prop16", "check", "prop16"),
    "grid": ("50", "grid", 50),
    "d_list": ("2,5", "d_list", (2, 5)),
}


def test_every_config_key_has_a_sample():
    assert sorted(KEY_SAMPLES) == sorted(cli._KEY_SPECS)


@pytest.mark.parametrize("key", sorted(KEY_SAMPLES))
def test_flag_and_config_line_give_the_same_config(tmp_path, key):
    text, field, value = KEY_SAMPLES[key]
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key}={text}\n")
    from_file = resolve_config(["generate", "--config", str(conf)])
    from_flag = resolve_config(["generate", "--" + key.replace("_", "-"), text])
    assert from_flag == from_file
    assert getattr(from_flag, field) == value


def _flag_choices(command: str, flag: str) -> list[str]:
    parser = cli._build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return list(commands.choices[command]._option_string_actions[flag].choices)


@pytest.mark.parametrize(
    "label, command, flag",
    [
        ("Selection algorithms", "select", "--algorithm"),
        ("Check corpora", "check", "--check"),
    ],
)
def test_readme_lists_exactly_the_accepted_choices(label, command, flag):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(rf"{label}:(.*?)\.", readme, re.S).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    assert sorted(names) == sorted(_flag_choices(command, flag))


# ---------------------------------------------------------------------------
# exit statuses
# ---------------------------------------------------------------------------


class TestExitStatuses:
    def test_missing_required_flag_is_1(self, capsys):
        assert main(["generate", "--kind", "reverse"]) == 1
        err = capsys.readouterr().err
        assert "generate requires --output" in err

    def test_validation_messages(self, capsys):
        cases = [
            (["generate", "--output", "x"], "--kind"),
            (["generate", "--kind", "fig1", "--output", "x"], "--count"),
            (["generate", "--kind", "surrounded", "--output", "x"], "--eps"),
            (["select", "--input", "a", "--output", "b"], "--algorithm"),
            (
                ["select", "--input", "a", "--output", "b", "--algorithm",
                 "perimeter-vitali"],
                "--eps",
            ),
            (["measure", "--output", "b"], "--input"),
            (["check", "--output", "b"], "--check"),
            (["rate", "--delta", "0.1", "--output", "b"], "--eps-list"),
            (["maxfn", "--input", "a"], "--output"),
        ]
        for argv, needle in cases:
            assert main(argv) == 1
            assert needle in capsys.readouterr().err

    def test_unknown_flag_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--virtue", "2"])
        assert info.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "ballcover" in capsys.readouterr().out

    def test_domain_error_is_1(self, tmp_path, capsys):
        # Valid flags, but the generator rejects the value.
        out = tmp_path / "x.txt"
        code = main(
            ["generate", "--kind", "reverse", "--eps", "0.7", "--output", str(out)]
        )
        assert code == 1
        assert "eps" in capsys.readouterr().err

    def test_single_eps_names_the_count(self, tmp_path, capsys):
        # One value is not a decreasing list that went wrong: the fit
        # needs two.
        out = tmp_path / "rate.csv"
        argv = ["rate", "--eps-list", "0.01", "--delta", "0.3", "--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "at least two values" in err
        assert "decreasing" not in err

    def test_surrounding_disks_larger_than_unit_disk_is_1(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = main(
            ["generate", "--kind", "surrounded", "--eps", "0.1", "--delta", "1.5",
             "--output", str(out)]
        )
        assert code == 1
        assert "delta" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_too_small_for_the_floor_arcs_is_1(self, tmp_path, capsys):
        # At eps 0.05 and delta 3e-16 the first disk's arc at the radius
        # floor starts at 2*pi in floats, so it does not hold the disk's
        # center angle 0 = 2*pi: the build must fail rather than bound
        # its gaps by the wrong disks.  At delta 1e-15 it still places
        # its 5 disks.
        out = tmp_path / "x.txt"
        argv = ["generate", "--kind", "surrounded", "--eps", "0.05", "--n-max", "5",
                "--output", str(out), "--delta"]
        assert main(argv + ["3e-16"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not hold its center" in err
        assert not out.exists()
        assert main(argv + ["1e-15"]) == 0
        assert len(read_balls(str(out))) == 6

    def test_overflow_is_1(self, tmp_path):
        # Two disks of radius 1e308, whose radius sum has no float size;
        # two 3D balls of radius 1e120, whose bounding box has no float
        # volume; two 1D balls of radius 1e308, whose ends and lengths
        # overflow.  Each command runs in its own process, with every
        # RuntimeWarning an error, so that an overflow on the way or an
        # uncaught error would show as a traceback; the one range check
        # rejects the input before any arithmetic overflows.
        cases = [
            ("2 2\n0 0 1e308\n1 0 1e308\n", [["measure"], ["select", "--algorithm", "vitali"]]),
            ("3 2\n0 0 0 1e120\n1 0 0 1e120\n", [["measure"]]),
            ("1 2\n0 1e308\n1 1e308\n", [["measure"], ["select", "--algorithm", "interval-1d"]]),
        ]
        code = "import sys; from ballcover.cli import main; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        path = tmp_path / "big.txt"
        for text, commands in cases:
            path.write_text(text)
            for command in commands:
                argv = [*command, "--input", str(path), "--output", str(tmp_path / "out.txt")]
                out = subprocess.run(
                    [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *argv],
                    env=env, capture_output=True, text=True,
                )
                assert out.returncode == 1, (text, command)
                assert out.stderr == (
                    "ballcover: error: ball radii or extents exceed the float range\n"
                ), (text, command)

    def test_unreadable_input_is_1(self, tmp_path, capsys):
        code = main(
            [
                "measure",
                "--input",
                str(tmp_path / "missing.txt"),
                "--output",
                str(tmp_path / "m.txt"),
            ]
        )
        assert code == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_random_default_corpus_law(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert main(["generate", "--kind", "random", "--output", str(out)]) == 0
        balls = read_balls(str(out))
        assert 2 <= len(balls) <= 40
        assert "generate: kind=random" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("# ballcover ")
        assert "# config " in text
        assert "jobs=" not in text

    def test_random_fixed_count(self, tmp_path):
        out = tmp_path / "r5.txt"
        assert (
            main(
                [
                    "generate", "--kind", "random", "--count", "5",
                    "--dim", "3", "--output", str(out),
                ]
            )
            == 0
        )
        balls = read_balls(str(out))
        assert len(balls) == 5
        assert balls.dimension == 3

    def test_fig1(self, tmp_path):
        out = tmp_path / "fig1.txt"
        argv = [
            "generate", "--kind", "fig1", "--count", "12",
            "--tiny-radius", "0.2", "--output", str(out),
        ]
        assert main(argv) == 0
        balls = read_balls(str(out))
        assert len(balls) == 13

    def test_surrounded(self, tmp_path):
        out = tmp_path / "s.txt"
        argv = [
            "generate", "--kind", "surrounded", "--eps", "0.2", "--delta",
            "0.3", "--n-max", "25", "--output", str(out),
        ]
        assert main(argv) == 0
        balls = read_balls(str(out))
        assert len(balls) == 26

    def test_reverse(self, tmp_path):
        out = tmp_path / "rev.txt"
        argv = [
            "generate", "--kind", "reverse", "--eps", "0.05",
            "--output", str(out),
        ]
        assert main(argv) == 0
        balls = read_balls(str(out))
        assert (balls.radii == 1.0).all()

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "g.txt"
        argv = [
            "generate", "--kind", "surrounded", "--eps", "0.2", "--delta",
            "0.3", "--n-max", "40", "--seed", "5", "--output", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


class TestSelect:
    @pytest.mark.parametrize(
        "algorithm",
        ["vitali", "besicovitch", "perimeter-besicovitch", "interval-1d"],
    )
    def test_algorithms_run(self, tmp_path, balls_file, algorithm):
        src = balls_file
        if algorithm == "interval-1d":
            src = str(tmp_path / "b1.txt")
            save_balls(src, random_collection(1, seed=2))
        out = tmp_path / f"{algorithm}.txt"
        argv = [
            "select", "--input", src, "--output", str(out),
            "--algorithm", algorithm,
        ]
        assert main(argv) == 0
        result = load_selection(out.read_text())
        assert result.selected

    def test_interval_1d_accepts_ball_below_one_ulp(self, tmp_path):
        # The ball at 1e20 has c - r == c + r; it is valid, and
        # measure reads the same file.
        src = tmp_path / "b1.txt"
        src.write_text("1 2\n1e20 1\n0 1\n")
        out = tmp_path / "sel.txt"
        argv = [
            "select", "--input", str(src), "--output", str(out),
            "--algorithm", "interval-1d",
        ]
        assert main(argv) == 0
        assert sorted(load_selection(out.read_text()).selected) == [0, 1]

    @pytest.mark.parametrize(
        "algorithm", [["vitali"], ["besicovitch"], ["perimeter-vitali", "--eps", "0.01"]]
    )
    def test_empty_input_reports_the_params_of_any_other(self, tmp_path, algorithm):
        # An empty collection runs the same scan as a single ball, so
        # it reports the same constants (vitali's disjoint_tol included).
        params = []
        for name, text in (("empty", "2 0\n"), ("one", "2 1\n0 0 1\n")):
            src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}-sel.txt"
            src.write_text(text)
            argv = ["select", "--input", str(src), "--output", str(out), "--algorithm"]
            assert main(argv + algorithm) == 0
            params.append(load_selection(out.read_text()).params)
        assert params[0] == params[1]

    def test_perimeter_vitali_needs_eps(self, tmp_path, balls_file):
        out = tmp_path / "pv.txt"
        argv = [
            "select", "--input", balls_file, "--output", str(out),
            "--algorithm", "perimeter-vitali", "--eps", "0.01",
        ]
        assert main(argv) == 0
        result = load_selection(out.read_text())
        assert float(result.params["eps"]) == 0.01

    def test_rerun_byte_identical(self, tmp_path, balls_file):
        out = tmp_path / "sel.txt"
        argv = [
            "select", "--input", balls_file, "--output", str(out),
            "--algorithm", "vitali",
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class TestMeasure:
    def test_measure_output(self, tmp_path, balls_file, capsys):
        out = tmp_path / "m.txt"
        argv = [
            "measure", "--input", balls_file, "--output", str(out),
            "--samples", "500",
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "perimeter value=" in text
        assert "volume value=" in text
        assert "method=exact2d" in text
        assert "measure: perimeter=" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, balls_file):
        out = tmp_path / "m.txt"
        argv = [
            "measure", "--input", balls_file, "--output", str(out),
            "--samples", "500",
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_isoperimetric_single_report(self, tmp_path):
        out = tmp_path / "iso.txt"
        argv = [
            "check", "--check", "isoperimetric", "--grid", "60",
            "--d-list", "2,3", "--output", str(out),
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "check=isoperimetric" in text
        assert text.rstrip().splitlines()[-1].startswith("isoperimetric 1 1 ")

    def test_corpus_check_and_jobs_bytes(self, tmp_path):
        out = tmp_path / "p16.txt"
        base = [
            "check", "--check", "prop16", "--count", "4", "--seed", "2",
            "--output", str(out),
        ]
        assert main(base) == 0
        first = out.read_bytes()
        assert main(base + ["--jobs", "2"]) == 0
        assert out.read_bytes() == first
        body = first.decode()
        report_lines = [
            l for l in body.splitlines() if l.startswith("check=prop16")
        ]
        assert len(report_lines) == 4
        assert "jobs=" not in body

    def test_failing_corpus_exits_2(self, tmp_path, monkeypatch):
        from ballcover.harness import CheckReport

        def fake_corpus(check_id, count, dimension, **kwargs):
            return [
                CheckReport(check_id, "fake-00000", 2.0, 1.0, 2.0, False, {})
            ]

        monkeypatch.setattr(cli, "run_corpus", fake_corpus)
        out = tmp_path / "fail.txt"
        argv = ["check", "--check", "thm12", "--output", str(out)]
        assert main(argv) == 2
        assert "passed=False" in out.read_text()


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


class TestRate:
    ARGS = [
        "rate", "--eps-list", "0.05,0.04", "--delta", "0.3",
        "--n-max", "40", "--seed", "1",
    ]

    def test_csv_structure(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        assert main(self.ARGS + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        comment = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("slope=" in l and "r_squared=" in l for l in comment)
        assert data[0] == "eps,ratio"
        assert len(data) == 3
        eps0, ratio0 = data[1].split(",")
        assert float(eps0) == 0.05
        assert float(ratio0) > 1.0
        assert "rate: slope=" in capsys.readouterr().out

    def test_uncovered_comment_per_eps(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(self.ARGS + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        notes = [l for l in lines if l.startswith("# uncovered=")]
        assert [l.rsplit("eps=", 1)[1] for l in notes] == ["0.05", "0.04"]
        ratios = [float(l.split(",")[1]) for l in lines[-2:]]
        for note, ratio in zip(notes, ratios):
            fields = dict(kv.split("=") for kv in note[2:].split())
            u, raw = float(fields["uncovered"]), float(fields["raw_ratio"])
            assert 0.0 < u < 1.0
            assert raw == pytest.approx(u + (1.0 - u) * ratio, rel=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "rate.csv"
        argv = self.ARGS + ["--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# maxfn
# ---------------------------------------------------------------------------


class TestMaxfn:
    def test_grid_mode(self, tmp_path, step_file, capsys):
        out = tmp_path / "g.txt"
        argv = [
            "maxfn", "--input", step_file, "--output", str(out),
            "--levels", "25",
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "var_function " in text
        assert "var_maximal_lower_bound " in text
        assert text.rstrip().endswith("passed True")
        assert text.count("level ") == 25
        var_mf = text.split("var_maximal_lower_bound ")[1].split()[0]
        summary = capsys.readouterr().out
        assert summary.startswith(f"maxfn: var_mf={var_mf} var_f=")
        assert "passed=True" in summary

    def test_single_level_mode(self, tmp_path, step_file):
        out = tmp_path / "l.txt"
        argv = [
            "maxfn", "--input", step_file, "--output", str(out),
            "--level", "1.3",
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "level 1.3 count_maximal=" in text

    def test_failing_report_exits_2(self, tmp_path, step_file, monkeypatch):
        def fake_check(f, levels):
            return VariationReport((), 1.0, 2.0, False)

        monkeypatch.setattr(cli, "maximal_variation_check", fake_check)
        out = tmp_path / "f.txt"
        argv = ["maxfn", "--input", step_file, "--output", str(out)]
        assert main(argv) == 2
        assert "passed False" in out.read_text()

    def test_values_near_the_smallest_normal_float(self, tmp_path, capsys):
        # every tolerance is relative to max|f|, so no level is critical
        path = tmp_path / "tiny.txt"
        save_step_function(
            str(path), StepFunction((0.0, 1.0, 2.0, 3.0), (3e-300, 1e-300, 2e-300))
        )
        out = tmp_path / "t.txt"
        assert main(["maxfn", "--input", str(path), "--output", str(out)]) == 0
        assert out.read_text().rstrip().endswith("passed True")
        assert "passed=True" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, step_file):
        out = tmp_path / "g.txt"
        argv = [
            "maxfn", "--input", step_file, "--output", str(out),
            "--levels", "25",
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _config_fields(path) -> dict[str, str]:
    line = next(l for l in path.read_text().splitlines() if l.startswith("# config "))
    return dict(pair.split("=", 1) for pair in line.split()[2:])


class TestProvenance:
    def test_measure_of_3d_file_names_no_dimension(self, tmp_path):
        balls = tmp_path / "b3.txt"
        save_balls(str(balls), random_collection(3, seed=4, count=5))
        out = tmp_path / "m.txt"
        argv = ["measure", "--input", str(balls), "--output", str(out),
                "--samples", "500", "--seed", "2"]
        assert main(argv) == 0
        assert _config_fields(out) == {
            "command": "measure", "input_path": str(balls),
            "output_path": str(out), "seed": "2", "samples": "500",
        }

    @pytest.mark.parametrize("level", [[], ["--level", "1.1"]])
    def test_maxfn_names_only_what_it_reads(self, tmp_path, step_file, level):
        out = tmp_path / "g.txt"
        assert main(["maxfn", "--input", step_file, "--output", str(out), *level]) in (0, 2)
        names = _config_fields(out).keys()
        for unread in ("samples", "n_max", "grid", "dimension", "seed"):
            assert unread not in names
        assert ("level" in names, "levels" in names) == (bool(level), not level)

    def test_generate_names_the_fields_of_its_kind(self, tmp_path):
        out = tmp_path / "r.txt"
        argv = ["generate", "--kind", "random", "--count", "4", "--output", str(out),
                "--eps", "0.1", "--dim", "3"]
        assert main(argv) == 0
        assert _config_fields(out) == {
            "command": "generate", "output_path": str(out), "seed": "0",
            "dimension": "3", "kind": "random", "count": "4",
        }

    def test_select_names_eps_only_where_read(self, tmp_path, balls_file):
        out = tmp_path / "s.txt"
        base = ["select", "--input", balls_file, "--output", str(out), "--eps", "0.01"]
        assert main([*base, "--algorithm", "vitali"]) == 0
        assert "eps" not in _config_fields(out)
        assert main([*base, "--algorithm", "perimeter-vitali"]) == 0
        assert _config_fields(out)["eps"] == "0.01"


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


class TestPipelines:
    def test_generate_select_measure(self, tmp_path):
        gen = tmp_path / "gen.txt"
        sel = tmp_path / "sel.txt"
        mea = tmp_path / "mea.txt"
        assert (
            main(
                [
                    "generate", "--kind", "fig1", "--count", "20",
                    "--tiny-radius", "0.1", "--output", str(gen),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "select", "--input", str(gen), "--output", str(sel),
                    "--algorithm", "vitali",
                ]
            )
            == 0
        )
        result = load_selection(sel.read_text())
        # The central disk meets every ring disk, so one ball suffices.
        assert result.selected == [0]
        assert main(["measure", "--input", str(gen), "--output", str(mea)]) == 0
        text = mea.read_text()
        value = float(
            [l for l in text.splitlines() if l.startswith("perimeter")][0]
            .split("value=")[1]
            .split()[0]
        )
        assert value > 2.0 * math.pi

    def test_config_file_end_to_end(self, tmp_path):
        out = tmp_path / "from_conf.txt"
        conf = tmp_path / "gen.conf"
        conf.write_text(
            f"kind=surrounded\neps=0.2\ndelta=0.3\nn_max=20\noutput={out}\n"
        )
        assert main(["generate", "--config", str(conf)]) == 0
        assert read_balls(str(out)).radii[0] == 1.0
