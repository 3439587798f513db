"""Covering selections for balls and intervals, with the measures to check them."""

__version__ = "0.1.0"

from .geometry import (
    Ball,
    BallCollection,
    Interval,
    PerimeterEstimate,
    center_distance_for_overlap,
    lens_volume,
    union_perimeter,
    union_perimeter_2d,
    union_perimeter_mc,
    union_volume_mc,
)
from .selection import (
    SelectionResult,
    besicovitch_select,
    interval_select_1d,
    overlap_eps_max,
    perimeter_besicovitch_select,
    perimeter_vitali_select,
    vitali_select,
)
from .counterexample import (
    SurroundedBallConfig,
    build_fig1,
    build_reverse_example,
    build_surrounded_ball,
)
from .maximal1d import (
    LevelSetReport,
    StepFunction,
    level_report,
    maximal_intervals,
    maximal_superlevel,
    maximal_variation_check,
    variation,
)

__all__ = [
    "Ball",
    "BallCollection",
    "Interval",
    "PerimeterEstimate",
    "SelectionResult",
    "StepFunction",
    "LevelSetReport",
    "SurroundedBallConfig",
    "besicovitch_select",
    "build_fig1",
    "build_reverse_example",
    "build_surrounded_ball",
    "center_distance_for_overlap",
    "interval_select_1d",
    "lens_volume",
    "level_report",
    "maximal_intervals",
    "maximal_superlevel",
    "maximal_variation_check",
    "overlap_eps_max",
    "perimeter_besicovitch_select",
    "perimeter_vitali_select",
    "union_perimeter",
    "union_perimeter_2d",
    "union_perimeter_mc",
    "union_volume_mc",
    "variation",
    "vitali_select",
]
