"""Spans recorded around evjoint's layer calls, from outside the package.

Each wrapped name is replaced where its caller looks it up (`cli` binds
`solve`, `read_events`, ... by name; `joint` binds `_splat`,
`warp_positions`, `warp_jacobian`, `adam_step`, ...), so every call made by
`denoise` passes through exactly one wrapper. A span is (round, name, start
ns, end ns, parent index, work); spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns


def _taps_per_event(sigma: float) -> int:
    from evjoint import contrast

    half = math.ceil(getattr(contrast, "TRUNCATE_SIGMAS", 4.0) * sigma)
    return (2 * half + 1) ** 2


def _splat_taps(args, kwargs) -> int:
    positions, _, sigma = args[:3]
    return len(positions) * _taps_per_event(sigma)


def _gradient_taps(args, kwargs) -> int:
    cache = args[0]
    return len(cache.positions) * _taps_per_event(cache.sigma)


def _window_events(args, kwargs) -> int:
    return len(args[0])


def patch_points():
    """(owner, attribute, span name, work counter) for every traced call.

    Names a refactor has removed are skipped, so the traced run keeps
    working and the metric built on them reads 0.
    """
    # by module path: the package re-exports a function named `warp`
    cli, contrast, joint, warp = (importlib.import_module(f"evjoint.{name}")
                                  for name in ("cli", "contrast", "joint", "warp"))
    points = [
        (cli, "read_events", "events.read_events", None),
        (cli, "write_events", "events.write_events", None),
        (cli, "window_stream", "events.window_stream", None),
        (cli, "_sidecar", "cli._sidecar", None),
        (cli, "solve", "joint.solve", None),
        (cli, "baf_filter", "baselines.baf_filter", _window_events),
        (cli, "interpolate_confidence", "joint.interpolate_confidence", None),
        (cli, "warp", "warp.warp", None),
        (cli, "hard_map", "contrast.hard_map", None),
        (joint, "ea_ascent", "joint.ea_ascent", None),
        (joint, "_evaluate", "joint._evaluate", None),
        (joint, "_ea_value_and_grad", "joint._ea_value_and_grad", None),
        (joint, "_splat", "contrast.splat", _splat_taps),
        (joint, "warp_positions", "warp.warp_positions", None),
        (joint, "warp_jacobian", "warp.warp_jacobian", None),
        (joint, "adam_step", "joint.adam_step", None),
        (joint, "interpolate_confidence", "joint.interpolate_confidence", None),
        (warp, "warp_positions", "warp.warp_positions", None),
        (contrast.SplatCache, "position_gradient", "contrast.position_gradient", _gradient_taps),
    ]
    return [pt for pt in points if hasattr(pt[0], pt[1])]


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """Records nested spans; `round` tags the spans of one `denoise` call."""

    def __init__(self):
        self.spans: list = []
        self.round = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.round, name, start, end, parent,
                              work(args, kwargs) if work else 0)

        return traced

    @contextmanager
    def installed(self):
        with patched([(owner, attr, self.wrap(name, getattr(owner, attr), work))
                      for owner, attr, name, work in patch_points()]):
            yield

    def dump(self, path) -> None:
        keys = ("round", "name", "start_ns", "end_ns", "parent", "work")
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


class WindowTimer:
    """Wall time of each per-window method call (`solve` or `baf_filter`),
    the only timing an untraced run adds inside `denoise`."""

    def __init__(self):
        self.seconds: list[float] = []

    def _timed(self, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds.append(perf_counter() - start)

        return timed

    @contextmanager
    def installed(self):
        from evjoint import cli

        with patched([(cli, name, self._timed(getattr(cli, name)))
                      for name in ("solve", "baf_filter")]):
            yield


def round_totals(spans, round_id: int) -> dict:
    """Per span name: total ns, self ns (minus direct children), calls, work."""
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    child_ns = defaultdict(int)
    mine = [(i, s) for i, s in enumerate(spans) if s[0] == round_id]
    for _, (_, _, start, end, parent, _) in mine:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (_, name, start, end, _, units) in mine:
        total[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1
        work[name] += units
    return {"total": total, "self": self_ns, "calls": calls, "work": work}


# (metric, unit) of the traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("synth.generate_s", "s"),
    ("events.read_s", "s"),
    ("events.write_s", "s"),
    ("events.window_stream_s", "s"),
    ("cli.sidecar_s", "s"),
    ("cli.self_s", "s"),
    ("baselines.baf_s", "s"),
    ("baselines.baf_events_per_s", "events/s"),
    ("contrast.splat_s", "s"),
    ("contrast.gradient_s", "s"),
    ("contrast.splat_calls", "count"),
    ("contrast.gradient_calls", "count"),
    ("contrast.taps", "count"),
    ("contrast.splat_ns_per_tap", "ns/tap"),
    ("contrast.gradient_ns_per_tap", "ns/tap"),
    ("joint.self_s", "s"),
    ("joint.adam_s", "s"),
    ("warp.warp_positions_s", "s"),
    ("warp.warp_jacobian_s", "s"),
    ("joint.solve_s", "s"),
    ("joint.evaluations", "count"),
    ("joint.evals_per_s", "evals/s"),
    ("joint.label_s", "s"),
    ("joint.motion_rmse", "px/s"),
    ("trace.overhead_s", "s"),
)

# joint spans whose self time is `joint.self_s`; adam_step and the confidence
# sampling have metrics of their own.
_JOINT_SELF = ("joint.solve", "joint.ea_ascent", "joint._evaluate", "joint._ea_value_and_grad")


def layer_values(r: dict) -> dict:
    """Per-layer metrics of one traced `denoise` call (everything but the
    set-up and overhead figures, which the caller adds)."""
    total, self_ns, calls, work = r["total"], r["self"], r["calls"], r["work"]

    def s(name):
        return total[name] / 1e9

    def per(num, den):
        return num / den if den else 0.0

    evaluations = calls["joint._evaluate"] + calls["joint._ea_value_and_grad"]
    return {
        "events.read_s": s("events.read_events"),
        "events.write_s": s("events.write_events"),
        "events.window_stream_s": s("events.window_stream"),
        "cli.sidecar_s": s("cli._sidecar"),
        "cli.self_s": self_ns["cli.main"] / 1e9,
        "baselines.baf_s": s("baselines.baf_filter"),
        "baselines.baf_events_per_s": per(work["baselines.baf_filter"], s("baselines.baf_filter")),
        "contrast.splat_s": s("contrast.splat"),
        "contrast.gradient_s": s("contrast.position_gradient"),
        "contrast.splat_calls": calls["contrast.splat"],
        "contrast.gradient_calls": calls["contrast.position_gradient"],
        "contrast.taps": work["contrast.splat"],
        "contrast.splat_ns_per_tap": per(total["contrast.splat"], work["contrast.splat"]),
        "contrast.gradient_ns_per_tap": per(total["contrast.position_gradient"],
                                            work["contrast.position_gradient"]),
        "joint.self_s": sum(self_ns[n] for n in _JOINT_SELF) / 1e9,
        "joint.adam_s": s("joint.adam_step"),
        "warp.warp_positions_s": s("warp.warp_positions"),
        "warp.warp_jacobian_s": s("warp.warp_jacobian"),
        "joint.solve_s": s("joint.solve"),
        "joint.evaluations": evaluations,
        "joint.evals_per_s": per(evaluations, s("joint.solve")),
        "joint.label_s": s("joint.interpolate_confidence"),
    }
