"""Smoke test of the benchmark's per-layer table, benchmarks/layers.py, and
of the traced names in benchmarks/spans.py.

The table calls package internals (`joint._evaluate`, `joint._resolve_alpha`,
`joint._denoise_baseline`, `contrast.SplatCache`, `contrast._HAVE_NUMBA`,
...). Running each of its steps, and then the whole table, once on the
smallest size makes a change to those names or signatures fail here instead
of in `benchmarks/run.py --layers`. The traced run drops every name it cannot
find, so the kernel's spans are checked here by name.
"""

import importlib.util
from pathlib import Path

from evjoint.events import SensorGeometry
from evjoint.synth import MultiEdge, SceneSpec
from evjoint.warp import MotionParams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _smallest(layers):
    # the first entry of layers.sizes(), built alone: sizes() also builds
    # the two large windows, which these tests do not use
    spec = SceneSpec(SensorGeometry(16, 16), MultiEdge(4.0),
                     MotionParams.translation(30.0, -10.0), 0.05, noise_rate=0.10)
    window = layers._first(spec, 1, 200)
    assert len(window) == 200
    return window


def test_every_layer_step_runs_on_the_smallest_size(tmp_path):
    layers = _load("layers")
    steps = layers.steps(_smallest(layers), tmp_path / "layers")
    assert steps
    for _, step in steps:
        step()


def test_table_prints_on_the_smallest_size(tmp_path, monkeypatch, capsys):
    layers = _load("layers")
    window = _smallest(layers)
    monkeypatch.setattr(layers, "sizes", lambda seed: [("200 ev, 16x16", window)])
    monkeypatch.setattr(layers, "TARGET_S", 0.0)
    monkeypatch.setattr(layers, "MIN_CALLS", 1)
    assert layers.main(["--workdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("backend numpy, ")
    assert "| splat | " in out and "| position_gradient | " in out
    assert list(tmp_path.iterdir()) == []


def test_traced_run_still_patches_the_kernel():
    # spans.patch_points() skips names it cannot find, so a renamed entry
    # point would read 0 in its per-layer metric without any error
    names = {name for _, _, name, _ in _load("spans").patch_points()}
    assert {
        "events.read_events", "events.write_events", "events.window_stream", "cli._sidecar",
        "joint.solve", "baselines.baf_filter", "warp.warp", "contrast.hard_map",
        "joint._evaluate", "contrast.splat", "warp.warp_positions", "joint.adam_step",
        "joint.interpolate_confidence", "contrast.position_gradient",
    } <= names
