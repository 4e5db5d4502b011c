"""The benchmark's workloads: one synthetic scene and one `denoise` command each.

Every scene is built by `evjoint.synth` from the workload seed; only the
noise events depend on the seed, so the event count, the window layout and
every work count (evaluations, taps) are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    pattern: str  # "dot" or "multi-edge"
    pattern_arg: tuple  # dot: (cx, cy, radius); multi-edge: (spacing,)
    velocity: tuple[float, float]  # pattern velocity v in px/s; the collapsing warp is -v
    noise_rate: float
    duration: float
    input_name: str  # the suffix picks the format the program reads
    method: str  # `denoise --method`: "joint" (motion is checked) or "baf"
    window_ms: float | None  # None: the whole stream is one window
    sensitivity_floor: float | None
    specificity_floor: float | None

    @property
    def solver(self) -> bool:
        return self.method == "joint"

    def flags(self) -> list[str]:
        """`denoise` flags besides -i and -o."""
        flags = ["--method", self.method]
        if self.window_ms is not None:
            flags += ["--window-ms", f"{self.window_ms:g}"]
        if self.input_name.endswith(".csv"):  # CSV carries no geometry
            flags += ["--geometry", f"{self.width}x{self.height}"]
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-3 scene, twice as long: 8 windows of ~800 events, where the
        # fixed per-evaluation costs (per-call and per-chunk Python, work sized
        # by the 9,216-pixel map) are about half of each evaluation.
        Workload(
            name="small-windows", width=96, height=96,
            pattern="dot", pattern_arg=(24.0, 40.0, 8.0), velocity=(40.0, 25.0),
            noise_rate=0.10, duration=2.0, input_name="input.evj",
            method="joint", window_ms=250.0, sensitivity_floor=0.80, specificity_floor=0.80,
        ),
        # One 16,926-event window: the per-tap splat and position gradient take
        # about 90% of the solve, so per-event cost and memory show here.
        Workload(
            name="large-window", width=128, height=128,
            pattern="multi-edge", pattern_arg=(16.0,), velocity=(30.0, -10.0),
            noise_rate=0.05, duration=0.2, input_name="input.evj",
            method="joint", window_ms=None, sensitivity_floor=0.80, specificity_floor=None,
        ),
        # The ROADMAP item-1 stream (257,687 events) as CSV, BAF only: no solver
        # runs, so time goes to the CSV parse, the per-event BAF loop, the
        # binary write and the per-event confidence sidecar.
        Workload(
            name="baf-csv", width=128, height=128,
            pattern="multi-edge", pattern_arg=(8.0,), velocity=(60.0, -20.0),
            noise_rate=0.10, duration=1.0, input_name="input.csv",
            method="baf", window_ms=100.0, sensitivity_floor=None, specificity_floor=None,
        ),
    )
}


def scene_spec(w: Workload):
    """The `evjoint.synth.SceneSpec` of a workload."""
    from evjoint.events import SensorGeometry
    from evjoint.synth import Dot, MultiEdge, SceneSpec
    from evjoint.warp import MotionParams

    if w.pattern == "dot":
        cx, cy, r = w.pattern_arg
        pattern = Dot((cx, cy), r)
    else:
        pattern = MultiEdge(w.pattern_arg[0])
    return SceneSpec(SensorGeometry(w.width, w.height), pattern,
                     MotionParams.translation(*w.velocity), w.duration,
                     noise_rate=w.noise_rate)
