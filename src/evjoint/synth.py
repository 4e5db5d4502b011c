"""Labeled synthetic event streams from a moving two-level brightness pattern.

Patterns are reduced to material emitter points on their brightness edges
(one per pixel of edge length). As a point translates, it fires one event
each time it enters a new pixel cell, provided the pattern's log-brightness
step clears the contrast threshold. That yields events lying exactly on the
moving edge, full ground truth per event, and a known collapsing motion.
Noise events are uniform over the sensor and the time span.

A scene may have at most MAX_AXIS_CROSSINGS = 10**7 emitters and noise
events, and cross at most that many pixel lines per axis over all emitters,
inside the sensor or not (about 40 B of working memory each); a larger one
raises ValueError before any emitter, crossing or noise event is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import Events, EventWindow, SensorGeometry
from .warp import TRANSLATION_2D, MotionParams

# log-brightness amplitude of the idealized two-level pattern
PROFILE_STEP = 1.0

MAX_AXIS_CROSSINGS = 10**7


@dataclass(frozen=True)
class VerticalEdge:
    """Single vertical brightness edge starting at column x0."""

    x0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x0):
            raise ValueError(f"edge column must be finite, got {self.x0}")


@dataclass(frozen=True)
class Dot:
    """Disk of the given radius; events come from its boundary."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not (0 < self.radius < math.inf):
            raise ValueError(f"dot radius must be positive and finite, got {self.radius}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"dot center must be finite, got {self.center}")

    @property
    def count(self) -> float:  # boundary emitters, one per pixel of circumference (inf if huge)
        return max(8.0, np.round(2.0 * math.pi * self.radius))


@dataclass(frozen=True)
class MultiEdge:
    """Square grid of edges with the given spacing, both orientations.

    The two line families make both velocity components observable, which
    a lone straight edge cannot (aperture problem).
    """

    spacing: float

    def __post_init__(self) -> None:
        if not (0 < self.spacing < math.inf):
            raise ValueError(f"edge spacing must be positive and finite, got {self.spacing}")


@dataclass(frozen=True)
class SceneSpec:
    geometry: SensorGeometry
    pattern: VerticalEdge | Dot | MultiEdge
    motion: MotionParams
    duration: float
    contrast: float = 1.0
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.motion.model != TRANSLATION_2D:
            raise ValueError("synthetic scenes support the translation model only")
        if not (0 < self.duration < math.inf):
            raise ValueError(f"duration must be positive and finite, got {self.duration} s")
        if not (self.contrast > 0):
            raise ValueError("contrast threshold must be positive")
        if not (0.0 <= self.noise_rate < 1.0):
            raise ValueError("noise_rate must be in [0, 1)")
        g, pat = self.geometry, self.pattern
        if isinstance(pat, MultiEdge):  # np.arange's line counts, times the points per line
            emitters = sum(max(0.0, np.ceil((across - pat.spacing / 2.0) / pat.spacing)) * along
                           for across, along in ((g.width, g.height), (g.height, g.width)))
        else:
            emitters = pat.count if isinstance(pat, Dot) else g.height
        if emitters > MAX_AXIS_CROSSINGS:
            raise ValueError(f"{pat} on a {g.width}x{g.height} sensor has {emitters:.3g} "
                             f"emitters, above the limit of {MAX_AXIS_CROSSINGS:.0e}")


def _pattern_emitters(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Emitter start positions (M, 2) and per-emitter polarities (M,)."""
    g = spec.geometry
    pat = spec.pattern
    if isinstance(pat, VerticalEdge):
        ys = np.arange(g.height) + 0.5
        pts = np.stack([np.full_like(ys, pat.x0), ys], axis=1)
        pol = np.ones(len(pts), dtype=np.int8)
        return pts, pol
    if isinstance(pat, MultiEdge):
        # vertical lines, then horizontal; line by line, one emitter per pixel
        # along it, polarity +1, -1, +1, ... by line
        pts, pol = [], []
        for axis, across, along in ((0, g.width, g.height), (1, g.height, g.width)):
            lines = np.arange(pat.spacing / 2.0, across, pat.spacing)
            family = np.empty((len(lines), along, 2))
            family[..., axis], family[..., 1 - axis] = lines[:, None], np.arange(along) + 0.5
            pts.append(family.reshape(-1, 2))
            pol.append(np.repeat((1 - 2 * (np.arange(len(lines)) % 2)).astype(np.int8), along))
        return np.concatenate(pts), np.concatenate(pol)
    if isinstance(pat, Dot):
        count = int(pat.count)
        ang = 2.0 * math.pi * np.arange(count) / count
        direction = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = np.asarray(pat.center, dtype=np.float64)[None, :] + pat.radius * direction
        v = spec.motion.values
        if np.allclose(v, 0.0):
            pol = np.ones(count, dtype=np.int8)
        else:
            # boundary points facing the motion enter darker pixels
            pol = np.where(direction @ v > 0.0, -1, 1).astype(np.int8)
        return pts, pol
    raise TypeError(f"unknown pattern {pat!r}")


def _axis_crossings(q0: np.ndarray, v: float, duration: float) -> tuple[np.ndarray, np.ndarray]:
    """(emitter index, time) of each integer crossing of q0 + v t in (0, duration]."""
    if v == 0.0:  # none; past 2**53 the lattice below would find one, at time 0 / 0
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    q1 = q0 + float(v) * duration  # a Python float overflows to inf silently
    if v > 0.0:
        first, last = np.floor(q0) + 1.0, np.floor(q1)
    else:
        first, last = np.ceil(q1), np.ceil(q0) - 1.0
    counts = np.maximum(last - first + 1.0, 0.0)
    total = counts.sum()
    if not total <= MAX_AXIS_CROSSINGS:
        raise ValueError(f"motion {v} px/s over {duration} s crosses {total:.3g} pixel lines "
                         f"on one axis, above the limit of {MAX_AXIS_CROSSINGS:.0e}")
    emitter = np.repeat(np.arange(len(q0)), counts.astype(np.int64))
    # each emitter's first + 0, 1, ...; integer-valued floats below 2**53 add exactly
    lattice = np.arange(emitter.size) + (first - np.cumsum(counts) + counts)[emitter]
    times = (lattice - q0[emitter]) / v
    keep = (times > 0.0) & (times <= duration)
    return emitter[keep], times[keep]


def _signal_events(spec: SceneSpec) -> Events:
    if spec.contrast > PROFILE_STEP:
        # the two-level profile never clears the threshold
        return Events.empty()
    g = spec.geometry
    vx, vy = spec.motion.values
    emitters, pol = _pattern_emitters(spec)
    ix, tx = _axis_crossings(emitters[:, 0], vx, spec.duration)
    iy, ty = _axis_crossings(emitters[:, 1], vy, spec.duration)
    emitter, times = np.concatenate([ix, iy]), np.concatenate([tx, ty])
    order = np.argsort(emitter, kind="stable")  # each emitter's x crossings stay first
    emitter, times = emitter[order], times[order]
    ex = emitters[emitter, 0] + vx * times
    ey = emitters[emitter, 1] + vy * times
    inside = (ex >= 0.0) & (ex < g.width) & (ey >= 0.0) & (ey < g.height)
    return Events(ex[inside], ey[inside], times[inside], pol[emitter[inside]], validate=False)


def _noise_count(n_signal: int, rate: float) -> int:
    """Deterministic noise count: the n solving n == round(rate * (n_signal + n))."""
    if rate <= 0.0:
        return 0
    n0 = int(round(n_signal * rate / (1.0 - rate)))
    for cand in (n0 - 1, n0, n0 + 1):
        if cand >= 0 and int(round(rate * (n_signal + cand))) == cand:
            return cand
    return max(n0, 0)


def generate(spec: SceneSpec, seed: int) -> tuple[EventWindow, np.ndarray, MotionParams]:
    """Build one labeled window: (window, is_signal labels, ground-truth theta).

    The returned motion parameters are the collapsing warp, i.e. the value
    an estimator should recover; for a pattern moving at velocity v that is
    -v under the x' = x + (t - t_ref) theta convention.
    """
    signal = _signal_events(spec)
    if len(signal) == 0:
        raise ValueError("pattern produces no events inside the sensor for this scene")
    n_noise = _noise_count(len(signal), spec.noise_rate)
    if n_noise > MAX_AXIS_CROSSINGS:
        raise ValueError(f"noise rate {spec.noise_rate} asks for {n_noise:.3g} noise events, "
                         f"above the limit of {MAX_AXIS_CROSSINGS:.0e}")
    rng = np.random.default_rng(seed)
    g = spec.geometry
    noise = Events(
        rng.uniform(0.0, g.width, n_noise),
        rng.uniform(0.0, g.height, n_noise),
        rng.uniform(0.0, spec.duration, n_noise),
        rng.choice(np.array([-1, 1], dtype=np.int8), n_noise),
        validate=False,
    )
    merged = Events.concatenate([signal, noise])
    labels = np.zeros(len(merged), dtype=bool)
    labels[: len(signal)] = True
    order = np.argsort(merged.t, kind="stable")
    merged = merged.take(order)
    labels = labels[order]
    window = EventWindow(merged, g, 0.0, spec.duration, spec.duration / 2.0)
    vx, vy = spec.motion.values
    return window, labels, MotionParams.translation(-vx, -vy)
