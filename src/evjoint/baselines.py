"""Comparison methods: density filtering, plain contrast maximization, and
their sequential combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrast import ConfidenceMap, hard_map
from .events import EventWindow
from .joint import DEGENERATE_MIN_EVENTS, JointConfig, JointResult, _descend, _time_scale
from .warp import MotionParams


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


def _squeeze(coord: np.ndarray, radius: int) -> np.ndarray:
    # pixels floor(coord) renumbered from `radius` up, each gap wider than
    # `radius` cut to radius + 1 (exact via uint64): neighbours stay neighbours
    px, inv = np.unique(np.floor(coord).astype(np.int64), return_inverse=True)
    steps = np.minimum(np.diff(px.view(np.uint64)), radius + 1).astype(np.int64)
    return np.concatenate(([radius], radius + np.cumsum(steps)))[inv]


def baf_filter(window: EventWindow, cfg: BafConfig) -> np.ndarray:
    """Label each event signal iff enough other events fall in its neighborhood.

    Event j supports event k when j != k, their pixels floor(x), floor(y)
    differ by at most ``radius`` on each axis, and
    ``t_k - dt_max <= t_j <= t_k + dt_max`` with both bounds rounded to
    float64. The count is exact, ties included. Each event gets one integer
    key, its pixel id times (N + 1) plus its time rank; after one sort, two
    binary searches per neighbour pixel count that pixel's events in the time
    interval: O(N log N) for a fixed radius.
    """
    n, r = len(window), cfg.radius
    ev = window.events
    t = ev.t  # window events are time-sorted
    cx, cy = _squeeze(ev.x, r), _squeeze(ev.y, r)
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


def cmax_solve(window: EventWindow, model: str, cfg: JointConfig) -> MotionParams:
    """Estimate motion by Adam ascent on the alignment variance alone."""
    if len(window) < DEGENERATE_MIN_EVENTS:
        return MotionParams.zero(model)
    phi, _, _ = _descend(window, model, cfg, cfg.iterations, 0.0)
    return MotionParams(model, phi / _time_scale(window))


def sequential_pipeline(window: EventWindow, baf_cfg: BafConfig,
                        cmax_cfg: JointConfig, model: str = "translation2d") -> JointResult:
    """Denoise first, then estimate motion on the kept subset.

    Labels come from the density filter; motion from contrast maximization
    over the kept events only; the confidence map is the binary mask of
    pixels holding at least one kept event.
    """
    keep = baf_filter(window, baf_cfg)
    kept_window = EventWindow(
        window.events.take(keep), window.geometry, window.t_start, window.t_end, window.t_ref
    )
    theta = cmax_solve(kept_window, model, cmax_cfg)
    kept_mask = hard_map(kept_window.positions, window.geometry).values > 0
    return JointResult(theta, ConfidenceMap.from_weights_mask(kept_mask), keep)
