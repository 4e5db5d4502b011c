"""Contrast maps: per-pixel event mass, weighted variants, variance, gradients.

Two accumulation flavors are provided. ``hard_map`` counts events per pixel
cell. ``smooth_map`` replaces each event by an isotropic 2-D Gaussian
evaluated at pixel centers, which makes the map (and everything built on
it) differentiable with respect to event positions. Each kernel is
truncated to +-ceil(4 sigma) pixel taps per axis (``TRUNCATE_SIGMAS``), so
the first dropped tap centre is at least ceil(4 sigma) + 1/2 px from the
event and the dropped mass is of order 1e-5 of a unit kernel at sigma = 1.

``SplatCache`` is the one splat kernel, in numpy: it runs tap-major over
fixed-size event chunks on a padded map, and the same taps serve the
position gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import SensorGeometry

SIGMA_DEFAULT = 1.0

# There is no compiled kernel; benchmarks/layers.py reads this to name the
# backend.
_HAVE_NUMBA = False

# Kernel support half-width in sigmas. An event at x keeps the taps
# floor(x) - ceil(4 sigma) ... floor(x) + ceil(4 sigma) on each axis, so
# every dropped tap centre lies at least d = ceil(4 sigma) + 1/2 px from
# the event along x or y. Summing the decreasing Gaussian tail beyond d on
# both sides of both axes bounds the
# dropped mass of a unit kernel by 4 * (Q(d / sigma) + phi(d / sigma) / sigma),
# with phi and Q the standard normal density and upper tail: 7.8e-5 at
# sigma = 1 (the worst case over sub-pixel offsets is 3.2e-5), and below
# 2e-4 for every sigma since d / sigma > 4. That is small enough that the
# cutoff never shows up in finite-difference gradient checks at 1e-4 steps.
TRUNCATE_SIGMAS = 4.0

# Taps per event chunk in the splat kernel. Each chunk's (S, S, chunk) index
# and weight blocks (256 KB here) stay cache-sized and bound the kernel's
# working memory; much smaller chunks pay numpy's per-call overhead instead.
_CHUNK_TAPS = 32768


@dataclass(frozen=True)
class ContrastMap:
    """H x W grid of accumulated event mass."""

    values: np.ndarray
    geometry: SensorGeometry

    def __post_init__(self) -> None:
        if self.values.shape != self.geometry.shape:
            raise ValueError("map shape does not match geometry")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-pixel signal confidence, stored as unconstrained logits.

    The usable weights are sigmoid(logits), strictly inside (0, 1), so
    gradient-based updates never need projection.
    """

    logits: np.ndarray

    @classmethod
    def zeros(cls, geometry: SensorGeometry) -> "ConfidenceMap":
        return cls(np.zeros(geometry.shape))

    @classmethod
    def from_weights_mask(cls, mask: np.ndarray, logit_scale: float = 1000.0) -> "ConfidenceMap":
        # +-1000 saturates the logistic to exactly 1.0 / 0.0 in float64
        return cls(np.where(mask, logit_scale, -logit_scale))

    @property
    def weights(self) -> np.ndarray:
        return sigmoid(self.logits)

    @property
    def shape(self) -> tuple[int, int]:
        return self.logits.shape


def hard_map(positions: np.ndarray, geometry: SensorGeometry) -> ContrastMap:
    """Count events per pixel cell; positions outside the sensor are ignored."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    h, w = geometry.shape
    jx = np.floor(positions[:, 0]).astype(np.int64)
    iy = np.floor(positions[:, 1]).astype(np.int64)
    inside = (jx >= 0) & (jx < w) & (iy >= 0) & (iy < h)
    lin = iy[inside] * w + jx[inside]
    counts = np.bincount(lin, minlength=h * w).astype(np.float64)
    return ContrastMap(counts.reshape(h, w), geometry)


class SplatCache:
    """One Gaussian splat of a position set; reusable for gradient passes.

    The kernel works on the map padded by S = 2 ceil(4 sigma) + 1 pixels on
    every side, so taps that fall off the sensor land in the padding and need
    no mask; an event whose whole support is off the sensor is pinned just
    outside it.
    """

    __slots__ = ("geometry", "sigma", "positions", "values", "_half", "_base", "_frac")

    def __init__(self, positions: np.ndarray, geometry: SensorGeometry, sigma: float):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.geometry = geometry
        self.sigma = float(sigma)
        self.positions = np.ascontiguousarray(
            np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        )
        half = self._half = int(math.ceil(TRUNCATE_SIGMAS * sigma))
        h, w = geometry.shape
        s = 2 * half + 1
        # each event's first-tap index in the padded map and sub-pixel position
        p = np.ascontiguousarray(self.positions.T)
        f = np.floor(p)
        bx = np.clip(f[0], -half - 1, w + half).astype(np.int64)
        by = np.clip(f[1], -half - 1, h + half).astype(np.int64)
        self._base = (by + half + 1) * (w + 2 * s) + (bx + half + 1)
        self._frac = p - f
        shape, crop = self._padded()
        out = np.zeros(shape[0] * shape[1])
        for _, lin, g, _ in self._chunks():
            np.add.at(out, lin.ravel(), (g[1, :, None, :] * g[0, None, :, :]).ravel())
        self.values = out.reshape(shape)[crop].copy()

    def _padded(self):
        """Shape of the padded map and the slices that crop it to the sensor."""
        h, w = self.geometry.shape
        s = 2 * self._half + 1
        return (h + 2 * s, w + 2 * s), (slice(s, s + h), slice(s, s + w))

    def _chunks(self):
        """Taps of the kernel, about _CHUNK_TAPS per event chunk, in a fixed
        order.

        Yields (events, lin, g, d): the chunk's event slice; the flat padded
        index of every tap, (S, S, C); and per axis, tap-major, the kernel
        weights g and the offsets d of the tap centres from the events,
        (2, S, C), with the 2-D normalization on the y weights.
        """
        w = self.geometry.width
        half = self._half
        s = 2 * half + 1
        offsets = (np.arange(s)[:, None] * (w + 2 * s) + np.arange(s))[:, :, None]
        centres = (np.arange(-half, half + 1) + 0.5)[:, None]
        inv2s2 = -0.5 / (self.sigma * self.sigma)
        norm2 = 1.0 / (2.0 * math.pi * self.sigma * self.sigma)
        step = max(1, _CHUNK_TAPS // (s * s))
        for k in range(0, len(self._base), step):
            c = slice(k, k + step)
            d = centres - self._frac[:, None, c]
            g = d * d
            g *= inv2s2
            np.exp(g, out=g)
            g[1] *= norm2
            yield c, offsets + self._base[c], g, d

    def position_gradient(self, coefficients: np.ndarray) -> np.ndarray:
        """Gradient of sum_ij coefficients_ij * M_ij w.r.t. positions, (N, 2)."""
        coef = np.ascontiguousarray(coefficients, dtype=np.float64)
        if coef.shape != self.geometry.shape:
            raise ValueError("coefficient grid shape does not match geometry")
        shape, crop = self._padded()
        padded = np.zeros(shape)
        padded[crop] = coef
        flat = padded.ravel()
        out = np.empty((len(self._base), 2))
        for c, lin, g, d in self._chunks():
            patch = flat[lin]  # coefficient at each tap
            gd = g * d
            out[c, 0] = np.einsum("ac,abc,bc->c", g[1], patch, gd[0])
            out[c, 1] = np.einsum("ac,abc,bc->c", gd[1], patch, g[0])
        return out * (1.0 / (self.sigma * self.sigma))


def _splat(positions: np.ndarray, geometry: SensorGeometry, sigma: float) -> SplatCache:
    return SplatCache(positions, geometry, sigma)


def smooth_map(
    positions: np.ndarray, geometry: SensorGeometry, sigma: float = SIGMA_DEFAULT
) -> ContrastMap:
    """Accumulate truncated Gaussian kernels, one per event, at pixel centers."""
    cache = _splat(positions, geometry, sigma)
    return ContrastMap(cache.values, geometry)


def weighted_map(cmap: ContrastMap, conf: ConfidenceMap) -> ContrastMap:
    """Elementwise product of the map with the confidence weights."""
    if conf.shape != cmap.values.shape:
        raise ValueError("confidence map shape does not match contrast map")
    return ContrastMap(conf.weights * cmap.values, cmap.geometry)


def map_variance(cmap) -> float:
    """Population variance over all pixels (divide by H*W)."""
    values = getattr(cmap, "values", cmap)
    return float(np.var(values))
