"""evjoint: joint motion compensation and denoising for event-camera streams."""

from .baselines import BafConfig, baf_filter, cmax_solve, sequential_pipeline
from .contrast import (
    ConfidenceMap,
    ContrastMap,
    hard_map,
    smooth_map,
    weighted_map,
)
from .events import (
    Events,
    EventWindow,
    FixedCount,
    FixedDuration,
    FormatError,
    LoadedStream,
    SensorGeometry,
    read_events,
    window_stream,
    write_events,
)
from .joint import (
    ExplicitBaseline,
    JointConfig,
    JointResult,
    ObjectiveParts,
    WarmStartScaled,
    interpolate_confidence,
    objective,
    objective_gradients,
    solve,
)
from .metrics import ConfusionCounts, ConfusionResult, confusion, esr, motion_rmse
from .synth import Dot, MultiEdge, SceneSpec, VerticalEdge, generate
from .warp import MotionParams, warp, warp_pullback

__version__ = "0.1.0"

__all__ = [
    "BafConfig",
    "ConfidenceMap",
    "ConfusionCounts",
    "ConfusionResult",
    "ContrastMap",
    "Dot",
    "Events",
    "EventWindow",
    "ExplicitBaseline",
    "FixedCount",
    "FixedDuration",
    "FormatError",
    "JointConfig",
    "JointResult",
    "LoadedStream",
    "MotionParams",
    "MultiEdge",
    "ObjectiveParts",
    "SceneSpec",
    "SensorGeometry",
    "VerticalEdge",
    "WarmStartScaled",
    "baf_filter",
    "cmax_solve",
    "confusion",
    "esr",
    "generate",
    "hard_map",
    "interpolate_confidence",
    "motion_rmse",
    "objective",
    "objective_gradients",
    "read_events",
    "sequential_pipeline",
    "smooth_map",
    "solve",
    "warp",
    "warp_pullback",
    "weighted_map",
    "window_stream",
    "write_events",
]
