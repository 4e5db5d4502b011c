"""Smoke test of the benchmark's per-layer table, benchmarks/layers.py.

The table calls package internals (`joint._evaluate`, `joint._resolve_alpha`,
`joint._denoise_baseline`, `contrast.SplatCache`, ...). Running each of its
steps once on the smallest size makes a change to those names or signatures
fail here instead of in `benchmarks/run.py --layers`.
"""

import importlib.util
from pathlib import Path

from evjoint.events import SensorGeometry
from evjoint.synth import MultiEdge, SceneSpec
from evjoint.warp import MotionParams

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_step_runs_on_the_smallest_size(tmp_path):
    layers = _load_layers()
    # the first entry of layers.sizes(), built alone: sizes() also builds
    # the two large windows, which this test does not use
    spec = SceneSpec(SensorGeometry(16, 16), MultiEdge(4.0),
                     MotionParams.translation(30.0, -10.0), 0.05, noise_rate=0.10)
    window = layers._first(spec, 1, 200)
    assert len(window) == 200
    steps = layers.steps(window, tmp_path / "layers")
    assert steps
    for _, step in steps:
        step()
