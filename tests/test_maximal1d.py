"""Tests for the one-dimensional maximal-function machinery.

The exact evaluator is cross-checked against a brute-force oracle, the
level-set routines against direct component counting, and the
variation comparison against a summed-jumps oracle, on hand-built and
randomly generated step functions.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballcover import maximal1d
from ballcover.formats import dump_step_function, load_step_function
from ballcover.geometry import Interval, union_components
from ballcover.maximal1d import (
    LevelRecord,
    LevelSetReport,
    StepFunction,
    VariationReport,
    _superlevel_components,
    level_report,
    maximal_intervals,
    maximal_superlevel,
    maximal_variation_check,
    variation,
)

from oracles import (
    antiderivative,
    average,
    exact_antiderivative,
    exact_average,
    exact_maximal_function_at,
    exact_maximal_variation,
    exact_zigzag_variation,
    maximal_chain_oracle,
    maximal_function_oracle_at,
    maximal_function_oracle_grid,
    random_step_function,
    superlevel_components_per_level,
    union_component_count_oracle,
    variation_check_levels_oracle,
    variation_oracle,
)


TENT = StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 0.5))
SPIKY = StepFunction((0.0, 1.0, 2.0, 4.0, 7.0), (2.0, 0.5, 3.0, 1.0))
SIGNED = StepFunction((-1.0, 0.0, 2.0, 3.0), (-2.0, 1.0, -0.5))
# Integer-valued: grid levels j/3 land exactly on its critical levels.
INTEGER_STEP = StepFunction((0.0, 1.0, 2.0, 3.0), (4.0, 2.0, 4.0))


# ---------------------------------------------------------------------------
# StepFunction
# ---------------------------------------------------------------------------


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction((0.0,), ())
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((1.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((0.0, float("inf")), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (float("nan"),))

    def test_abs_function(self):
        g = SIGNED.abs_function()
        assert g.breakpoints == SIGNED.breakpoints
        assert g.values == (2.0, 1.0, 0.5)

    def test_abs_function_shares_the_arrays(self):
        # |f| skips the checks and takes f's arrays, which are those a
        # checked |f| builds, bit for bit
        for f in (SIGNED, TENT, StepFunction((0.0, 1.0, 3.0), (-0.0, -2.5))):
            g = f.abs_function()
            checked = StepFunction(f.breakpoints, tuple(abs(v) for v in f.values))
            assert g == checked and g._arrays is f._arrays
            for a, b in zip(g._arrays, checked._arrays, strict=True):
                assert a.tobytes() == b.tobytes()

    def test_piece_count(self):
        assert TENT.piece_count == 3

    def test_serialization_roundtrip(self):
        for f in (TENT, SPIKY, SIGNED):
            text = dump_step_function(f)
            back = load_step_function(text)
            assert back.breakpoints == f.breakpoints
            assert back.values == f.values


# ---------------------------------------------------------------------------
# average / variation
# ---------------------------------------------------------------------------


class TestAverageAndVariation:
    # average is the float oracle of tests/oracles.py, which the
    # maximal-interval tests below use.
    def test_average_exact(self):
        # |TENT| on (0,3): masses 1, 2, 0.5 on unit/unit/unit pieces.
        assert average(TENT, 0.0, 3.0) == pytest.approx(3.5 / 3.0)
        assert average(TENT, 0.0, 1.0) == pytest.approx(1.0)
        assert average(TENT, 0.5, 1.5) == pytest.approx(1.5)
        # Outside the hull the function vanishes.
        assert average(TENT, -2.0, 0.0) == 0.0
        assert average(TENT, -1.0, 1.0) == pytest.approx(0.5)

    def test_average_uses_absolute_value(self):
        assert average(SIGNED, -1.0, 0.0) == pytest.approx(2.0)

    def test_average_validation(self):
        with pytest.raises(ValueError):
            average(TENT, 1.0, 1.0)

    def test_antiderivative_oracle_matches_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            f = random_step_function(rng)
            xs = np.asarray(f.breakpoints)
            mids = 0.5 * (xs[1:] + xs[:-1])
            ts = np.concatenate([xs, mids, [xs[0] - 1.0, xs[-1] + 1.0]])
            F = exact_antiderivative(f)
            want = [float(F(t)) for t in ts]
            got = antiderivative(f, ts)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_variation_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = random_step_function(rng)
            assert variation(f) == pytest.approx(variation_oracle(f), abs=1e-12)

    def test_variation_examples(self):
        # Jumps of TENT: 0->1->2->0.5->0.
        assert variation(TENT) == pytest.approx(1.0 + 1.0 + 1.5 + 0.5)
        # SIGNED jumps: 0->-2->1->-0.5->0.
        assert variation(SIGNED) == pytest.approx(2.0 + 3.0 + 1.5 + 0.5)


# ---------------------------------------------------------------------------
# Mf at points, read off the superlevel sets
# ---------------------------------------------------------------------------


def _in_superlevel(f, level, x) -> bool:
    """Whether x lies in a component of {Mf >= level}."""
    return any(c.lo <= x <= c.hi for c in maximal_superlevel(f, level))


def _assert_mf(f, x, mf, rel=1e-9):
    """Mf(x) equals mf to within rel: x is in {Mf >= mf (1 - rel)} and
    not in {Mf >= mf (1 + rel)}."""
    assert _in_superlevel(f, mf * (1.0 - rel), x)
    assert not _in_superlevel(f, mf * (1.0 + rel), x)


def _components(f, level):
    return np.array([(c.lo, c.hi) for c in maximal_superlevel(f, level)])


class TestMaximalFunctionAt:
    def test_matches_oracle_pointwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_step_function(rng)
            if max(f.values) == 0.0:
                continue
            lo, hi = f.breakpoints[0], f.breakpoints[-1]
            span = hi - lo
            xs = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=12)
            for x in xs:
                _assert_mf(f, float(x), maximal_function_oracle_at(f, float(x)))

    def test_matches_oracle_on_grid(self):
        rng = np.random.default_rng(2)
        f = random_step_function(rng)
        xs = np.linspace(f.breakpoints[0] - 1.0, f.breakpoints[-1] + 1.0, 200)
        for x, mf in zip(xs.tolist(), maximal_function_oracle_grid(f, xs).tolist()):
            _assert_mf(f, x, mf)

    def test_dominates_function(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_step_function(rng)
            xs, vs = f.breakpoints, f.values
            for i, v in enumerate(vs):
                if v != 0.0:
                    mid = 0.5 * (xs[i] + xs[i + 1])
                    assert _in_superlevel(f, abs(v) * (1.0 - 1e-12), mid)

    def test_value_scaling(self):
        scaled = StepFunction(TENT.breakpoints, tuple(3.0 * v for v in TENT.values))
        for level in (0.2, 0.7, 1.0, 1.4, 1.9):
            np.testing.assert_allclose(
                _components(scaled, 3.0 * level), _components(TENT, level), rtol=1e-12
            )

    def test_translation_covariance(self):
        shifted = StepFunction(
            tuple(x + 5.0 for x in SPIKY.breakpoints), SPIKY.values
        )
        for level in (0.3, 0.9, 1.5, 2.2, 2.9):
            np.testing.assert_allclose(
                _components(shifted, level), _components(SPIKY, level) + 5.0, rtol=1e-12
            )

    def test_single_piece_closed_form(self):
        # Indicator of (0, 1): outside the support the best interval
        # anchors at x and swallows the whole support, so Mf(x) is
        # 1 / (1 + dist(x, (0, 1))) and {Mf >= level} is
        # [1 - 1 / level, 1 / level].
        f = StepFunction((0.0, 1.0), (1.0,))
        for level in (1.0, 0.5, 1.0 / 3.0):
            (lo, hi), = _components(f, level)
            assert lo == pytest.approx(1.0 - 1.0 / level, rel=1e-15)
            assert hi == pytest.approx(1.0 / level, rel=1e-15)

    def test_zero_function(self):
        f = StepFunction((0.0, 1.0), (0.0,))
        assert maximal_superlevel(f, 1e-300) == []


# ---------------------------------------------------------------------------
# maximal_intervals / maximal_superlevel
# ---------------------------------------------------------------------------


class TestMaximalIntervals:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            maximal_intervals(TENT, 0.0)
        with pytest.raises(ValueError):
            maximal_superlevel(TENT, -1.0)

    def test_above_max_empty(self):
        assert maximal_intervals(TENT, 2.5) == []

    def test_each_interval_has_level_average(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = random_step_function(rng)
            g = f.abs_function()
            top = max(g.values)
            if top == 0.0:
                continue
            for frac in (0.17, 0.44, 0.81):
                lam = top * frac
                for iv in maximal_intervals(f, lam):
                    got = average(f, iv.lo, iv.hi)
                    assert got == pytest.approx(lam, rel=1e-9, abs=1e-12)

    def test_intervals_are_maximal(self):
        # Nudging either endpoint outward must strictly drop the average.
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_step_function(rng)
            top = max(f.abs_function().values)
            lam = 0.37 * top
            for iv in maximal_intervals(f, lam):
                width = iv.hi - iv.lo
                for grow in (1e-6 * width, 0.3 * width):
                    assert average(f, iv.lo - grow, iv.hi + grow) < lam + 1e-9

    def test_closures_cover_superlevel(self):
        # The union of returned closures is exactly {Mf >= level}.
        rng = np.random.default_rng(6)
        for _ in range(15):
            f = random_step_function(rng)
            top = max(f.abs_function().values)
            if top == 0.0:
                continue
            for frac in (0.23, 0.61):
                lam = top * frac
                ivs = maximal_intervals(f, lam)
                spans = maximal_superlevel(f, lam)
                lo, hi = union_components(
                    [iv.lo for iv in ivs], [iv.hi for iv in ivs]
                )
                assert len(lo) == len(spans)
                for a, b, span in zip(lo, hi, spans):
                    assert a == pytest.approx(span.lo, rel=1e-9, abs=1e-9)
                    assert b == pytest.approx(span.hi, rel=1e-9, abs=1e-9)

    def test_function_superlevel_inside_maximal(self):
        # {|f| >= lam} sits inside {Mf >= lam}.
        rng = np.random.default_rng(7)
        for _ in range(15):
            f = random_step_function(rng)
            g = f.abs_function()
            top = max(g.values)
            if top == 0.0:
                continue
            lam = 0.52 * top
            spans = maximal_superlevel(f, lam)
            for i, v in enumerate(g.values):
                if v >= lam:
                    lo, hi = g.breakpoints[i], g.breakpoints[i + 1]
                    assert any(
                        s.lo - 1e-9 <= lo and hi <= s.hi + 1e-9 for s in spans
                    )

    def test_tent_intervals_at_unit_level(self):
        # At level 1 the central piece of TENT pulls in mass from both
        # sides; the superlevel set of Mf is a single interval that
        # contains the support of the value-2 piece.
        spans = maximal_superlevel(TENT, 1.0)
        assert len(spans) == 1
        assert spans[0].lo <= 1.0 and spans[0].hi >= 2.0


# A level 4.9e-6 above the first piece value, where the span of the
# pair (left zero tail, first piece) used to end 2.6e-11 past the
# piece's left end and count as a second component.
SLIVER = StepFunction(
    (1.9154774178137899, 2.7422401681813993, 3.7704821654176355, 3.99574720969287),
    (1.6653959921176158, 0.0, 2.016543660499813),
)


class TestSuperlevelSlivers:
    def test_level_just_above_piece_value(self):
        comps = maximal_superlevel(SLIVER, 1.665404217129199)
        assert [(c.lo, c.hi) for c in comps] == [(3.722986523552375, 4.04324285155813)]
        assert maximal_variation_check(SLIVER, 200).passed

    def test_counts_just_above_piece_values_match_brute_force(self):
        for seed in range(40):
            f = random_step_function(np.random.default_rng([seed, 99]))
            g = f.abs_function()
            xs = np.asarray(g.breakpoints)
            values = sorted({v for v in g.values if v > 0.0})
            if not values:
                continue
            # Mf < level beyond mass / level of the support
            reach = float(antiderivative(g, xs[-1])) / values[0] + 1.0
            grid = np.linspace(xs[0] - reach, xs[-1] + reach, 200_001)
            mf = maximal_function_oracle_grid(f, grid)
            for v in values:
                lam = v * (1.0 + 1e-9)
                above = mf >= lam
                brute = int(above[0]) + int(np.count_nonzero(above[1:] & ~above[:-1]))
                assert len(maximal_superlevel(f, lam)) == brute, (seed, v)


# ---------------------------------------------------------------------------
# components and maximal intervals against the exact oracle
# ---------------------------------------------------------------------------


@st.composite
def dyadic_step_functions(draw, max_pieces=7):
    """A nonzero step function with breakpoints in 1/16 steps and values
    in 1/8 steps, so that floats hold the data and the exact oracle
    sees it without rounding."""
    k = draw(st.integers(1, max_pieces))
    start = draw(st.integers(-48, 48))
    gaps = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
    steps = draw(st.lists(st.integers(0, 24), min_size=k, max_size=k))
    if max(steps) == 0:
        steps[draw(st.integers(0, k - 1))] = draw(st.integers(1, 24))
    xs = np.cumsum([start] + gaps) / 16.0
    return StepFunction(tuple(xs.tolist()), tuple(v / 8.0 for v in steps))


@st.composite
def dyadic_levels(draw):
    """A dyadic step function and a level j / 1024 of its largest value."""
    f = draw(dyadic_step_functions())
    level = max(f.values) * draw(st.integers(1, 1024)) / 1024.0
    return f, level


@st.composite
def scaled_step_functions(draw):
    """A nonzero step function of the criterion-4 law with 1 to 40
    pieces, its values scaled by 10^e for e in [-100, 100]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_step_function(rng, max_pieces=draw(st.integers(1, 40)))
    assume(max(f.values) > 0.0)
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    return StepFunction(f.breakpoints, tuple(scale * v for v in f.values))


def _offset(f):
    return 1e-9 * max(1.0, max(abs(x) for x in f.breakpoints))


class TestAgainstExactOracle:
    @given(dyadic_levels())
    @settings(max_examples=80)
    def test_component_ends(self, case):
        # Mf >= level just inside each end, Mf < level just outside,
        # unless the outside point falls in a neighbouring component.
        f, level = case
        h = _offset(f)
        comps = [(c.lo, c.hi) for c in maximal_superlevel(f, level)]
        assert comps
        for lo, hi in comps:
            assert hi - lo > 2 * h
            assert exact_maximal_function_at(f, lo + h) >= level
            assert exact_maximal_function_at(f, hi - h) >= level
            for t in (lo - h, hi + h):
                if not any(a - h <= t <= b + h for a, b in comps if (a, b) != (lo, hi)):
                    assert exact_maximal_function_at(f, t) < level

    @given(dyadic_levels())
    @settings(max_examples=80)
    def test_members_average_the_level_and_are_maximal(self, case):
        f, level = case
        h = _offset(f)
        members = maximal_intervals(f, level)
        assert members
        for iv in members:
            avg = exact_average(f, iv.lo, iv.hi)
            assert abs(avg - level) <= 1e-12 * level
            assert exact_average(f, iv.lo - h, iv.hi) < level
            assert exact_average(f, iv.lo, iv.hi + h) < level


# ---------------------------------------------------------------------------
# level_report
# ---------------------------------------------------------------------------


class TestLevelReport:
    def test_structure(self):
        rep = level_report(SPIKY, 1.3)
        assert isinstance(rep, LevelSetReport)
        assert rep.level == 1.3
        assert rep.superlevel_boundary_count % 2 == 0
        assert rep.maximal_boundary_count % 2 == 0
        assert rep.maximal_boundary_count == 2 * len(
            maximal_superlevel(SPIKY, 1.3)
        )

    def test_boundary_comparison_at_generic_levels(self):
        # At levels away from the critical averages, {Mf >= lam} never
        # has more components than {|f| >= lam}.
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = random_step_function(rng)
            g = f.abs_function()
            top = max(g.values)
            for frac in (0.199, 0.512, 0.897):
                lam = top * frac
                rep = level_report(f, lam)
                assert (
                    rep.maximal_boundary_count <= rep.superlevel_boundary_count
                ) or _near_critical(g, lam)

    def test_one_rising_sun_and_one_component_pass(self, monkeypatch):
        calls = []
        for name in ("_rising_sun", "_superlevel_components"):
            inner = getattr(maximal1d, name)

            def spy(f, level, name=name, inner=inner):
                calls.append(name)
                return inner(f, level)

            monkeypatch.setattr(maximal1d, name, spy)
        rep = level_report(GOLDEN_STEP, 1.1)
        assert sorted(calls) == ["_rising_sun", "_superlevel_components"]
        assert len(rep.maximal_intervals) == 2

    @given(
        f=scaled_step_functions(),
        fracs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_chain_matches_the_numpy_walk(self, f, fracs):
        # the walk on Python floats and bisect takes the same steps, and
        # rounds the same, as the numpy searches and scalars it replaced
        top = max(f.abs_function().values)
        for frac in fracs:
            level = top * frac
            ivals, count = maximal1d._maximal_chain(f, level)
            want, want_count = maximal_chain_oracle(f, level)
            assert [(iv.lo, iv.hi) for iv in ivals] == want, level
            assert count == want_count


def _critical(g):
    """Piece values and breakpoint-pair averages of g = |f|."""
    return variation_check_levels_oracle(g, 10)[0]


def _near_critical(g, lam, tol=1e-6):
    return bool(np.any(np.abs(_critical(g) - lam) <= tol * max(1.0, lam)))


# ---------------------------------------------------------------------------
# maximal_variation_check
# ---------------------------------------------------------------------------


class TestMaximalVariationCheck:
    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            maximal_variation_check(TENT, level_grid_size=9)

    def test_zero_function_trivial(self):
        f = StepFunction((0.0, 1.0, 2.0), (0.0, 0.0))
        rep = maximal_variation_check(f)
        assert rep.passed
        assert rep.var_f == 0.0
        assert rep.var_mf_lower_bound == 0.0
        assert rep.levels == ()

    def test_report_structure(self):
        rep = maximal_variation_check(SPIKY, level_grid_size=50)
        assert isinstance(rep, VariationReport)
        assert len(rep.levels) == 50
        assert all(isinstance(r, LevelRecord) for r in rep.levels)
        assert rep.var_f == pytest.approx(variation_oracle(SPIKY.abs_function()))
        assert rep.passed

    def test_variation_bound_random_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            f = random_step_function(rng)
            rep = maximal_variation_check(f, level_grid_size=40)
            assert rep.passed
            assert rep.var_mf_lower_bound <= rep.var_f + 1e-9
            # The maximal function of a nonzero step function really
            # does vary: var(Mf) is strictly positive.
            if max(f.abs_function().values) > 0:
                assert rep.var_mf_lower_bound > 0.0

    def test_level_records_consistent(self):
        rep = maximal_variation_check(SPIKY, level_grid_size=30)
        for rec in rep.levels:
            assert 0.0 < rec.level < 3.0
            if not rec.skipped:
                assert rec.passed == (rec.count_maximal <= rec.count_function)

    def test_degenerate_grid_raises(self):
        # With max value M and grid levels M*j/(size+1), a function
        # whose critical set contains every grid level forces a skip at
        # each of them.  Piece values M*j/11 for j = 1..10 plus the peak
        # M make all ten levels of a size-10 grid critical.
        M = 11.0
        values = tuple(M * j / 11.0 for j in range(1, 11)) + (M,)
        xs = tuple(float(i) for i in range(len(values) + 1))
        f = StepFunction(xs, values)
        with pytest.raises(ValueError, match="degenerate level grid"):
            maximal_variation_check(f, level_grid_size=10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_property_random_functions(self, seed):
        rng = np.random.default_rng(seed)
        f = random_step_function(rng, max_pieces=8)
        rep = maximal_variation_check(f, level_grid_size=25)
        assert rep.passed
        assert rep.var_mf_lower_bound <= rep.var_f + 1e-9

    def test_reports_match_recorded_digest(self):
        # sha256 of the reprs of the reports' level records and var(|f|),
        # recorded before var(Mf) was computed exactly: the change had to
        # leave every count and skip flag unchanged.  var(Mf) itself is
        # pinned by TestExactVariation.
        rng = np.random.default_rng([204, 5])
        functions = [random_step_function(rng) for _ in range(60)] + [SLIVER]
        digest = hashlib.sha256()
        for f in functions:
            rep = maximal_variation_check(f, 200)
            digest.update(repr((rep.levels, rep.var_f)).encode())
        assert digest.hexdigest() == (
            "acaad736839c23591aa78c9db958b3d74e90c5bf47df38c764a0e43460338a4e"
        )

    @pytest.mark.parametrize("n", [10, 57, 200])
    @given(f=scaled_step_functions())
    @settings(max_examples=20)
    def test_grid_and_cuts_match_the_oracle(self, n, f):
        # the grid is max_mf * j / (n + 1), float for float, and a level
        # is skipped exactly when it lies within 1e-9 max_mf of a piece
        # value or of an average over a breakpoint pair
        g = f.abs_function()
        critical, _, grid = variation_check_levels_oracle(g, n)
        rep = maximal_variation_check(f, n)
        assert [rec.level for rec in rep.levels] == grid
        tol = 1e-9 * max(g.values)
        near = np.abs(np.subtract.outer(np.array(grid), critical)) <= tol
        assert [rec.skipped for rec in rep.levels] == near.any(axis=1).tolist()

    def test_power_of_two_scaling_is_exact(self):
        # floats scale by 2^k exactly, and every tolerance is relative,
        # so the records keep their counts and flags and the levels and
        # both variations scale bit for bit
        rng = np.random.default_rng(204)
        functions = [random_step_function(rng) for _ in range(40)]
        for f in functions:
            if max(f.values) == 0.0:
                continue
            rep = maximal_variation_check(f, 200)
            flags = [(r.count_maximal, r.count_function, r.skipped, r.passed)
                     for r in rep.levels]
            for k in range(-60, 61, 8):
                scaled = StepFunction(
                    f.breakpoints, tuple(math.ldexp(v, k) for v in f.values)
                )
                got = maximal_variation_check(scaled, 200)
                assert [(r.count_maximal, r.count_function, r.skipped, r.passed)
                        for r in got.levels] == flags, k
                assert [r.level for r in got.levels] == [
                    math.ldexp(r.level, k) for r in rep.levels
                ]
                assert got.var_f == math.ldexp(rep.var_f, k)
                assert got.var_mf_lower_bound == math.ldexp(rep.var_mf_lower_bound, k)
                assert got.passed == rep.passed

    def test_level_records_are_plain_values(self):
        # the benchmark's corrupted-report check rebuilds records and
        # reports with dataclasses.replace, and the digests hash reprs
        rep = maximal_variation_check(TENT, level_grid_size=12)
        rec = rep.levels[0]
        assert repr(rec) == (
            "LevelRecord(level=0.15384615384615385, count_maximal=2, "
            "count_function=2, skipped=False, passed=True)"
        )
        crossed = dataclasses.replace(rec, count_maximal=4)
        assert crossed == LevelRecord(0.15384615384615385, 4, 2, False, True)
        assert crossed != rec
        assert dataclasses.replace(crossed, count_maximal=2) == rec
        new = dataclasses.replace(rep, levels=(crossed,) + rep.levels[1:])
        assert new.levels == (crossed,) + rep.levels[1:]
        assert (new.var_f, new.var_mf_lower_bound, new.passed) == (
            rep.var_f, rep.var_mf_lower_bound, rep.passed
        )
        assert new != rep
        assert dataclasses.replace(new, levels=rep.levels) == rep


# The input of tests/golden/maxfn-*.txt.
GOLDEN_STEP = StepFunction(
    (0.0, 0.7, 1.5, 2.25, 3.0, 4.1, 5.0),
    (1.2, 0.3, 2.6, 0.0, 1.7, 0.9),
)


def _var_mf(f):
    return maximal_variation_check(f, 200).var_mf_lower_bound


def _cuts(g):
    """0 and the critical levels of g = |f|: the ends of every gap."""
    return np.union1d(0.0, _critical(g))


class TestExactVariation:
    @pytest.mark.parametrize("v", [0.25, 1.0, 3.7])
    def test_single_piece(self, v):
        # Mf = v on the piece and falls to 0 on both sides.
        assert _var_mf(StepFunction((-1.0, 2.5), (v,))) == pytest.approx(
            2.0 * v, rel=1e-12
        )

    def test_tent(self):
        # Mf rises from 0 to 2 and falls back.
        assert _var_mf(TENT) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("gap", [0.25, 1.0, 2.0, 5.5])
    def test_two_bumps(self, gap):
        # Two unit bumps of width 1: Mf dips to 2 / (2 + gap) midway,
        # the average over both bumps or over one and half the gap.
        f = StepFunction((0.0, 1.0, 1.0 + gap, 2.0 + gap), (1.0, 0.0, 1.0))
        assert _var_mf(f) == pytest.approx(4.0 - 4.0 / (2.0 + gap), rel=1e-12)
        if gap == 2.0:
            assert _var_mf(f) == 3.0

    def test_unimodal_equality_passes_at_any_scale(self):
        # For unimodal |f|, Mf rises to max|f| and falls back, so
        # var(Mf) = var(|f|); at 1e9 the rounding of var(Mf) alone is
        # about 1e-6, far above an absolute tolerance.
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(2, 8))
            up = np.sort(rng.uniform(0.0, 3.0, k))
            peak = int(rng.integers(0, k))
            values = np.concatenate([up[:peak], up[peak:][::-1]])
            xs = np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 2.0, k)]))
            for scale in (1.0, 1e9):
                f = StepFunction(tuple(xs.tolist()), tuple((scale * values).tolist()))
                rep = maximal_variation_check(f, 50)
                assert rep.var_mf_lower_bound == pytest.approx(rep.var_f, rel=1e-12)
                assert rep.passed

    def test_golden_step(self):
        want = exact_maximal_variation(GOLDEN_STEP)
        assert float(want) == 5.661538461538462
        assert _var_mf(GOLDEN_STEP) == pytest.approx(float(want), rel=1e-12)

    @given(dyadic_step_functions(max_pieces=8))
    @settings(max_examples=60)
    def test_matches_exact_oracle(self, f):
        want = exact_maximal_variation(f)
        rep = maximal_variation_check(f, 200)
        assert abs(Fraction(rep.var_mf_lower_bound) - want) <= 1e-12 * want
        # the paper's statement, in rational arithmetic
        assert want <= sum(
            abs(Fraction(b) - Fraction(a))
            for a, b in zip((0.0,) + f.values, f.values + (0.0,))
        )
        assert rep.passed

    def test_matches_exact_oracle_on_criterion_4_law(self):
        rng = np.random.default_rng(204)
        for _ in range(12):
            f = random_step_function(rng)
            want = exact_maximal_variation(f)
            assert abs(Fraction(_var_mf(f)) - want) <= 1e-12 * want

    @given(dyadic_step_functions(max_pieces=8))
    @settings(max_examples=60)
    def test_closed_form_oracle_matches_the_pointwise_oracle(self, f):
        # the zigzag's length in Fractions is var(Mf) itself, with no
        # rounding: Mf evaluated exactly at every point where it turns
        assert exact_zigzag_variation(f) == exact_maximal_variation(f)

    def test_matches_closed_form_oracle_at_hundreds_of_pieces(self):
        # sizes where the pointwise oracle, O(k^3) points at O(k^2)
        # each, cannot run
        rng = np.random.default_rng([204, 31])
        for _ in range(3):
            f = random_step_function(rng, max_pieces=400, min_pieces=100)
            want = exact_zigzag_variation(f)
            assert abs(Fraction(_var_mf(f)) - want) <= 1e-12 * want

    def test_sampled_variation_is_a_close_lower_bound(self):
        # Mf is monotone on each zero tail, so its values at the hull
        # ends stand for the tails, and a grid on the hull can only
        # miss variation between its points.  The float oracle's few
        # ulp of rounding per value add up over the steps where Mf is
        # flat (about 1e-11 here), so the upper bound allows for that.
        rng = np.random.default_rng(204)
        for _ in range(30):
            f = random_step_function(rng)
            var_mf = _var_mf(f)
            grid = np.linspace(f.breakpoints[0], f.breakpoints[-1], 20_000)
            mf = maximal_function_oracle_grid(f, grid)
            sampled = mf[0] + mf[-1] + np.abs(np.diff(mf)).sum()
            noise = 4 * grid.size * np.finfo(float).eps * mf.max()
            assert sampled <= var_mf * (1.0 + 1e-12) + noise
            assert sampled >= var_mf * (1.0 - 1e-3)

    @given(
        st.one_of(
            dyadic_step_functions(max_pieces=8),
            st.integers(0, 10_000).map(
                lambda seed: random_step_function(np.random.default_rng(seed))
            ),
        )
    )
    @settings(max_examples=40)
    def test_component_count_constant_between_critical_levels(self, f):
        # Probes of a gap a few ulp wide can round onto its ends, which
        # lie outside the open gap; those are left out, and a gap one
        # ulp wide holds no float at all.
        g = f.abs_function()
        for u, w in zip(_cuts(g), _cuts(g)[1:]):
            probes = [u + s * (w - u) for s in (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6)]
            counts = {
                len(_superlevel_components(g, np.array([level]))[0])
                for level in probes
                if u < level < w
            }
            assert len(counts) <= 1, (u, w, counts)

    @pytest.mark.parametrize("size", [10, 11, 37, 200])
    def test_one_component_pass_per_gap_and_skipped_level(
        self, monkeypatch, size
    ):
        # no rising-sun pass at all when nothing is skipped, and one
        # root-kernel call per block of skipped levels otherwise
        calls = {"_rising_sun": [], "_superlevel_components": []}
        for name, rows in calls.items():
            inner = getattr(maximal1d, name)

            def spy(g, levels, rows=rows, inner=inner):
                rows.append(levels.size)
                return inner(g, levels)

            monkeypatch.setattr(maximal1d, name, spy)
        for block in (maximal1d._BLOCK_ELEMENTS, 8):
            monkeypatch.setattr(maximal1d, "_BLOCK_ELEMENTS", block)
            for f in (TENT, SPIKY, SIGNED, GOLDEN_STEP, INTEGER_STEP):
                for rows in calls.values():
                    rows.clear()
                rep = maximal_variation_check(f, size)
                skipped = sum(rec.skipped for rec in rep.levels)
                step = max(1, block // len(f.breakpoints))
                blocks = [min(step, skipped - i) for i in range(0, skipped, step)]
                assert calls["_superlevel_components"] == blocks
                assert calls["_rising_sun"] == blocks
                if f is INTEGER_STEP and size == 11:
                    assert skipped == 3

    def test_skipped_levels_keep_their_direct_counts(self):
        # Grid levels j/3 of INTEGER_STEP land on its critical levels 2,
        # 3 and 10/3 (the average over the whole support).  The float
        # 40/12 lies just above 10/3, where {Mf >= level} has two
        # components; on the gap below, (3, 10/3), it is one interval.
        # A skipped level must keep its own count, not its gap's.
        rep = maximal_variation_check(INTEGER_STEP, 11)
        skipped = [rec for rec in rep.levels if rec.skipped]
        assert [rec.level for rec in skipped] == [2.0, 3.0, 40.0 / 12.0]
        g = INTEGER_STEP.abs_function()
        for rec in skipped:
            assert rec.count_maximal == 2 * len(maximal_superlevel(g, rec.level))
            assert rec.count_function == 2 * union_component_count_oracle(
                [(a, b) for a, b, v in zip(g.breakpoints, g.breakpoints[1:], g.values)
                 if v >= rec.level]
            )
            assert rec.passed
        assert skipped[-1].count_maximal == 4
        assert len(maximal_superlevel(g, 3.2)) == 1


# ---------------------------------------------------------------------------
# the batched rising-sun kernel
# ---------------------------------------------------------------------------


def _probe_levels(g):
    """Positive levels at gap midpoints, at critical levels, one ulp to
    either side of them, and at piece values."""
    crit = _critical(g)
    cuts = _cuts(g)
    levels = np.concatenate([
        0.5 * (cuts[:-1] + cuts[1:]),
        crit,
        np.nextafter(crit, np.inf),
        np.nextafter(crit, -np.inf),
        np.asarray(g.values),
    ])
    return levels[levels > 0.0]


class TestBatchedKernel:
    @given(
        st.one_of(
            dyadic_step_functions(max_pieces=8),
            st.integers(0, 10_000).map(
                lambda seed: random_step_function(np.random.default_rng(seed))
            ),
        )
    )
    @settings(max_examples=60)
    def test_rows_match_per_level_passes(self, f):
        g = f.abs_function()
        levels = _probe_levels(g)
        row, lo, hi, _ = _superlevel_components(g, levels)
        assert np.all(np.diff(row) >= 0)
        for k, level in enumerate(levels.tolist()):
            want_lo, want_hi = superlevel_components_per_level(g, level)
            assert lo[row == k].tolist() == want_lo.tolist(), level
            assert hi[row == k].tolist() == want_hi.tolist(), level

    @given(f=scaled_step_functions(), n=st.integers(10, 200))
    @settings(max_examples=80)
    def test_zigzag_counts_match_the_roots(self, f, n):
        # at a level clear of every critical level the rising steps of
        # the zigzag across it count the components the roots find
        g = f.abs_function()
        rep = maximal_variation_check(f, n)
        levels = np.array([rec.level for rec in rep.levels])
        roots = np.bincount(_superlevel_components(g, levels)[0], minlength=levels.size)
        for rec, count in zip(rep.levels, roots.tolist(), strict=True):
            if not rec.skipped:
                assert rec.count_maximal == 2 * count, rec.level

    @pytest.mark.parametrize("block", [1, 37])
    def test_block_edges_leave_reports_unchanged(self, monkeypatch, block):
        rng = np.random.default_rng([204, 16])
        functions = [random_step_function(rng) for _ in range(20)]
        functions += [random_step_function(rng, max_pieces=40) for _ in range(3)]
        functions += [TENT, SPIKY, SIGNED, GOLDEN_STEP, INTEGER_STEP, SLIVER]
        want = [repr(maximal_variation_check(f, 200)) for f in functions]
        monkeypatch.setattr(maximal1d, "_BLOCK_ELEMENTS", block)
        assert [repr(maximal_variation_check(f, 200)) for f in functions] == want

    def test_criterion_4_reports_are_byte_identical(self):
        # sha256 of the whole reports on the criterion-4 functions,
        # var(Mf) bits included, recorded when var(Mf) became the length
        # of the zigzag (test_reports_match_recorded_digest pins the
        # levels, which that left as they were).
        rng = np.random.default_rng(204)
        digest = hashlib.sha256()
        for _ in range(200):
            rep = maximal_variation_check(random_step_function(rng), 200)
            digest.update(repr(rep).encode())
        assert digest.hexdigest() == (
            "0356570e6643d38a8184ca74930a46d1572f990ea8363bfabfac198c672f58c2"
        )
