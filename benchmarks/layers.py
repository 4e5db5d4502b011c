"""Per-layer reference table: each public layer step timed on its own.

    python3 benchmarks/run.py --layers [--seed N]

Not a workload and without bounds: it reproduces the per-layer baseline of
ROADMAP item 1 at three sizes and prints one markdown row per step with the
median milliseconds per call. Sizes: the first 200 events of a 16x16
multi-edge stream, the criterion-2 scene (4,967 events on 64x64) and the
first 30,000 events of the 128x128 baf-csv stream.
"""

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from evjoint import contrast, joint
from evjoint.baselines import BafConfig, baf_filter
from evjoint.events import EventWindow, SensorGeometry, read_events, write_events
from evjoint.synth import MultiEdge, SceneSpec, generate
from evjoint.warp import MotionParams, warp_positions

# Each step repeats until it has run this long (and at least MIN_CALLS times).
TARGET_S = 0.5
MIN_CALLS = 5


def _first(spec: SceneSpec, seed: int, n: int) -> EventWindow:
    window, _, _ = generate(spec, seed)
    ev = window.events[:n]
    t0, t1 = float(ev.t[0]), float(ev.t[-1])
    return EventWindow(ev, spec.geometry, t0, t1, 0.5 * (t0 + t1))


def sizes(seed: int):
    g16, g64, g128 = SensorGeometry(16, 16), SensorGeometry(64, 64), SensorGeometry(128, 128)
    crit2, _, _ = generate(
        SceneSpec(g64, MultiEdge(6.5), MotionParams.translation(30.0, -10.0), 0.1), seed)
    return [
        ("200 ev, 16x16", _first(SceneSpec(g16, MultiEdge(4.0), MotionParams.translation(
            30.0, -10.0), 0.05, noise_rate=0.10), seed, 200)),
        ("4,967 ev, 64x64 (criterion 2)", crit2),
        ("30k ev, 128x128", _first(SceneSpec(g128, MultiEdge(8.0), MotionParams.translation(
            60.0, -20.0), 0.1, noise_rate=0.10), seed, 30_000)),
    ]


def median_ms(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < TARGET_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def steps(window: EventWindow, stem: Path):
    cfg = joint.JointConfig(b_ea=joint.ExplicitBaseline(0.0))
    geom = window.geometry
    theta = MotionParams.translation(-30.0, 10.0)
    dt = window.times - window.t_ref
    positions = window.positions
    cache = contrast.SplatCache(positions, geom, cfg.sigma)
    coef = cache.values - cache.values.mean()
    logits = np.zeros(geom.shape)
    state = joint.AdamState.zeros_like(logits)
    weights = np.full(geom.shape, 0.5)
    alpha = joint._resolve_alpha(cfg)
    b_ed = joint._denoise_baseline(window, cfg.sigma)
    evj, csv = stem.with_suffix(".evj"), stem.with_suffix(".csv")
    write_events(window.events, evj, geometry=geom)
    write_events(window.events, csv)
    return [
        ("warp_positions", lambda: warp_positions(positions, dt, theta)),
        ("splat", lambda: contrast.SplatCache(positions, geom, cfg.sigma)),
        ("position_gradient", lambda: cache.position_gradient(coef)),
        ("objective evaluation", lambda: joint._evaluate(
            window, theta, logits, cfg, alpha, 0.0, b_ed, want_grads=True)),
        ("adam_step (logits)", lambda: joint.adam_step(logits, coef, state, 0.1)),
        ("interpolate_confidence", lambda: joint.interpolate_confidence(weights, positions)),
        ("baf_filter", lambda: baf_filter(window, BafConfig())),
        ("binary write", lambda: write_events(window.events, evj, geometry=geom)),
        ("binary read", lambda: read_events(evj)),
        ("CSV write", lambda: write_events(window.events, csv)),
        ("CSV read", lambda: read_events(csv)),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    backend = "numba" if contrast._HAVE_NUMBA else "numpy"
    print(f"backend {backend}, support +-ceil({contrast.TRUNCATE_SIGMAS:g} sigma), "
          f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()}, seed {args.seed}\n")
    columns = sizes(args.seed)
    stems = [args.workdir / f"layers-{k}" for k in range(len(columns))]
    table = [dict(steps(window, stem)) for (_, window), stem in zip(columns, stems)]
    print("| step | " + " | ".join(name for name, _ in columns) + " |")
    print("|---|" + "---:|" * len(columns))
    for step in table[0]:
        cells = [f"{median_ms(t[step]):.3f}" for t in table]
        print(f"| {step} | " + " | ".join(cells) + " |")
    print("\nmedian ms per call")
    for stem in stems:
        for suffix in (".evj", ".csv"):
            stem.with_suffix(suffix).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
