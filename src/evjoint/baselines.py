"""Comparison methods: density filtering, plain contrast maximization, and
their sequential combination."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contrast import ConfidenceMap, hard_map
from .events import EventWindow
from .joint import (DEGENERATE_MIN_EVENTS, JointConfig, JointResult, _descend, _guarded_start,
                    _Workspace, interpolate_confidence)
from .warp import MotionParams, warp

# baf_filter's work, (2r + 1)^2 neighbour offsets times (n events plus a fixed
# per-offset cost worth BAF_OFFSET_EVENTS of them), may not exceed
# BAF_MAX_WORK: about 10 s at the measured 70 ns a unit on a 2-core x86 box.
BAF_MAX_WORK = 1 << 27
BAF_OFFSET_EVENTS = 256


@dataclass(frozen=True)
class BafConfig:
    """Background-activity filter: keep events with enough spatiotemporal neighbors.

    Neighborhoods are L-infinity balls on integer pixel coordinates with
    temporal support |dt| <= dt_max in both directions.
    """

    dt_max: float = 0.010
    radius: int = 1
    min_support: int = 1

    def __post_init__(self) -> None:
        if not (self.dt_max > 0):
            raise ValueError("dt_max must be positive")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        if self.min_support < 1:
            raise ValueError("min_support must be at least 1")


def _squeeze(pixels: np.ndarray, radius: int) -> np.ndarray:
    # integer-valued pixels renumbered from `radius` up, each gap wider than
    # `radius` cut to radius + 1: neighbours stay neighbours. A float gap of
    # integer-valued floats is exact up to radius + 1 and rounds to no less
    px, inv = np.unique(pixels, return_inverse=True)
    steps = np.minimum(np.diff(px), radius + 1).astype(np.int64)
    return np.concatenate(([radius], radius + np.cumsum(steps)))[inv]


def baf_filter(window: EventWindow, cfg: BafConfig) -> np.ndarray:
    """Label each event signal iff enough other events fall in its neighborhood.

    Event j supports event k when j != k, their pixels floor(x), floor(y)
    differ by at most ``radius`` on each axis, and
    ``t_k - dt_max <= t_j <= t_k + dt_max`` with both bounds rounded to
    float64. The count is exact, ties included. Each event gets one integer
    key, its pixel id times (N + 1) plus its time rank; after one sort, two
    binary searches per neighbour pixel count that pixel's events in the time
    interval: O(N log N) for a fixed radius. A radius past the pixel spread is
    cut to it (the counts stay exact); past BAF_MAX_WORK, ValueError.
    """
    n, ev = len(window), window.events
    t = ev.t  # window events are time-sorted
    px, py = np.floor(ev.x), np.floor(ev.y)
    with np.errstate(over="ignore"):  # a spread or gap past 1.8e308 is inf: wider than r
        r = int(min(cfg.radius, max(np.ptp(px), np.ptp(py)) if n else 0))
        cx, cy = _squeeze(px, r), _squeeze(py, r)
    work = (2 * r + 1) ** 2 * (n + BAF_OFFSET_EVENTS)
    if work > BAF_MAX_WORK:
        raise ValueError(f"BAF radius {r} on a window of {n} events needs {work} units of "
                         f"work, over the filter's work bound of {BAF_MAX_WORK}")
    width = int(cx.max(initial=0)) + r + 1
    if (int(cy.max(initial=0)) + r + 1) * width * (n + 1) >= 2**63:
        raise ValueError("window too large for the BAF filter's int64 keys")
    pixel = cy * width + cx
    key = pixel * (n + 1) + np.searchsorted(t, t, side="left")
    # work in key order: consecutive queries then search nearby keys
    order = np.argsort(key)
    keys, pixel, tk = key[order], pixel[order], t[order]
    lo = np.searchsorted(t, tk - cfg.dt_max, side="left")
    hi = np.searchsorted(t, tk + cfg.dt_max, side="right")
    count = np.full(n, -1)  # discount the event itself
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            base = (pixel + (dy * width + dx)) * (n + 1)
            count += np.searchsorted(keys, base + hi) - np.searchsorted(keys, base + lo)
    labels = np.empty(n, dtype=bool)
    labels[order] = count >= cfg.min_support
    return labels


def _cmax(window: EventWindow, model: str, cfg: JointConfig,
          theta: MotionParams | None = None) -> tuple[MotionParams, dict]:
    """cmax_solve's motion and its record in JointResult's fields (empty for a
    degenerate window): the steps as warm_iterations, since the ascent is
    `solve`'s warm start run to cfg.iterations, stop_reason and seeded."""
    if len(window) < DEGENERATE_MIN_EVENTS:
        return MotionParams.zero(model), {}
    ws = _Workspace(window, cfg, model)
    theta = _guarded_start(ws, theta)
    end, _, steps, _, capped = _descend(ws, cfg.iterations, 0.0, theta=theta)
    return end, {"warm_iterations": steps, "seeded": theta is not None,
                 "stop_reason": "settled" if capped is None else "cap"}


def cmax_solve(window: EventWindow, model: str, cfg: JointConfig,
               theta: MotionParams | None = None) -> MotionParams:
    """Estimate motion by Adam ascent on the alignment variance alone, from
    zero motion or, if its alignment variance is strictly larger, from theta
    (the guard `solve` puts on its `start`)."""
    return _cmax(window, model, cfg, theta)[0]


def kept_result(window: EventWindow, keep: np.ndarray, theta: MotionParams,
                **record) -> JointResult:
    """A density filter's labels `keep` with motion theta. The confidence map
    is the binary mask of pixels holding a kept event warped by theta, the
    frame `solve`'s map is in; each event's confidence samples it there.
    record holds further JointResult fields (the solver record of theta)."""
    warped = warp(window, theta)
    mask = hard_map(warped[keep], window.geometry).values > 0
    return JointResult(theta, ConfidenceMap.from_weights_mask(mask), keep,
                       interpolate_confidence(mask, warped), **record)


def sequential_pipeline(window: EventWindow, baf_cfg: BafConfig, cmax_cfg: JointConfig,
                        model: str = "translation2d",
                        theta: MotionParams | None = None) -> JointResult:
    """Denoise first, then estimate motion on the kept subset.

    Labels come from the density filter and motion from contrast
    maximization over the kept events only (see `kept_result`), seeded with
    theta as cmax_solve is.
    """
    keep = baf_filter(window, baf_cfg)
    kept = replace(window, events=window.events.take(keep), check_sorted=False)  # a sorted subset
    end, record = _cmax(kept, model, cmax_cfg, theta)
    return kept_result(window, keep, end, **record)
