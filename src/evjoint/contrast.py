"""Contrast maps: per-pixel event mass, weighted variants, position gradients.

Two accumulation flavors are provided. ``hard_map`` counts events per pixel
cell. ``smooth_map`` replaces each event by an isotropic 2-D Gaussian
evaluated at pixel centers, which makes the map (and everything built on
it) differentiable with respect to event positions. Each kernel is
truncated to +-ceil(4 sigma) pixel taps per axis (``TRUNCATE_SIGMAS``), so
the first dropped tap centre is at least ceil(4 sigma) + 1/2 px from the
event and the dropped mass is of order 1e-5 of a unit kernel at sigma = 1.

``SplatCache`` is the one splat kernel, in numpy: it runs tap-major over
fixed-size event chunks on a padded map, and the same taps serve the
position gradient, writing into the buffers of a ``SplatWork``.
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

# Bound on a SplatWork (see kernel_size): it admits a 4096 x 4096 sensor at
# sigma = 1 and, on a 1 x 1 sensor, sigma up to 323.5.
WORKSPACE_LIMIT_BYTES = 1 << 29


@dataclass(frozen=True)
class ContrastMap:
    """H x W grid of accumulated event mass."""

    values: np.ndarray
    geometry: SensorGeometry

    def __post_init__(self) -> None:
        if self.values.shape != self.geometry.shape:
            raise ValueError("map shape does not match geometry")


def sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Logistic 1 / (1 + exp(-x)) as 0.5 (1 + tanh(x / 2)), in place into out if
    given: within 2.2e-16 of the exp form, exactly 1.0 / 0.0 at +-1000, and 0.0
    below about x = -37, where the exp form returns about exp(x)."""
    y = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


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
    def from_weights_mask(cls, mask: np.ndarray) -> "ConfidenceMap":
        # +-1000 saturates the logistic to exactly 1.0 / 0.0 in float64
        return cls(np.where(mask, 1000.0, -1000.0))

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


def kernel_size(sigma: float, shape: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """(tap half-width ceil(4 sigma), events per chunk) of the kernel. Raises
    ValueError, before anything is allocated, unless sigma is positive and
    finite and a SplatWork on an H x W sensor fits in WORKSPACE_LIMIT_BYTES."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    half = math.ceil(TRUNCATE_SIGMAS * sigma)
    s = 2 * half + 1
    step = max(1, _CHUNK_TAPS // (s * s))
    h, w = shape
    size = 8 * (2 * (h + 2 * s) * (w + 2 * s) + h * w + 2 * s * s * step + 4 * s * step)
    if size > WORKSPACE_LIMIT_BYTES:
        raise ValueError(f"sigma = {sigma:g} on a {w}x{h} sensor needs a splat workspace "
                         f"over the {WORKSPACE_LIMIT_BYTES >> 20} MiB bound")
    return half, step


class SplatWork:
    """The splat kernel's buffers for one geometry, sigma and event count, at
    most WORKSPACE_LIMIT_BYTES: the padded map, the padded coefficient grid
    (zero padding), the cropped map and one chunk's (S, S, C) int64 and
    float64 tap blocks and two (2, S, C) blocks. Every splat and gradient
    overwrites them. The caller owns it for as many splats of one window as
    it likes; a SplatCache built without one makes its own."""

    __slots__ = ("geometry", "sigma", "half", "step", "crop", "offsets", "centres",
                 "padded", "coef", "values", "lin", "block", "d", "g")

    def __init__(self, geometry: SensorGeometry, sigma: float, n_events: int):
        half, self.step = kernel_size(sigma, geometry.shape)
        self.geometry, self.sigma, self.half = geometry, float(sigma), half
        h, w = geometry.shape
        s = 2 * half + 1
        self.crop = (slice(s, s + h), slice(s, s + w))
        # flat padded index of each tap from the event's first tap, and the
        # tap centres' offsets from the event's pixel corner
        self.offsets = (np.arange(s)[:, None] * (w + 2 * s) + np.arange(s))[:, :, None]
        self.centres = (np.arange(-half, half + 1) + 0.5)[:, None]
        self.padded, self.coef = np.zeros((2, h + 2 * s, w + 2 * s))
        self.values = np.empty((h, w))
        c = min(self.step, n_events)
        self.lin, self.block = np.empty(s * s * c, dtype=np.int64), np.empty(s * s * c)
        self.d, self.g = np.empty((2, 2 * s * c))


class SplatCache:
    """One Gaussian splat of a position set; reusable for gradient passes.

    The kernel works on the map padded by S = 2 ceil(4 sigma) + 1 pixels on
    every side, so taps that fall off the sensor land in the padding and need
    no mask; an event whose whole support is off the sensor is pinned just
    outside it. It writes into `work` (a fresh SplatWork when None), so
    `values` lasts until the next splat into the same work.
    """

    __slots__ = ("geometry", "sigma", "positions", "values", "work", "_base", "_frac")

    def __init__(self, positions: np.ndarray, geometry: SensorGeometry, sigma: float,
                 work: SplatWork | None = None):
        self.positions = np.ascontiguousarray(positions, dtype=np.float64).reshape(-1, 2)
        if work is None:
            work = SplatWork(geometry, sigma, len(self.positions))
        if (work.geometry, work.sigma) != (geometry, float(sigma)):
            raise ValueError("splat workspace was built for another geometry or sigma")
        self.geometry, self.sigma, self.work = geometry, float(sigma), work
        half = work.half
        h, w = geometry.shape
        s = 2 * half + 1
        # each event's first-tap index in the padded map and sub-pixel position
        p = np.ascontiguousarray(self.positions.T)
        f = np.floor(p)
        bx = np.clip(f[0], -half - 1, w + half).astype(np.int64)
        by = np.clip(f[1], -half - 1, h + half).astype(np.int64)
        self._base = (by + half + 1) * (w + 2 * s) + (bx + half + 1)
        self._frac = p - f
        work.padded.fill(0.0)
        for _, lin, g, _ in self._chunks():
            taps = np.multiply(g[1, :, None, :], g[0, None, :, :],
                               out=work.block[:lin.size].reshape(lin.shape))
            np.add.at(work.padded.ravel(), lin.ravel(), taps.ravel())
        np.copyto(work.values, work.padded[work.crop])
        self.values = work.values

    def _chunks(self):
        """Taps of the kernel, about _CHUNK_TAPS per event chunk, in a fixed
        order, in the work's buffers: yields (events, lin, g, d), the chunk's
        event slice, the flat padded index of every tap (S, S, C), and per
        axis, tap-major, the kernel weights g (2-D normalization on y) and
        the offsets d of the tap centres from the events, (2, S, C)."""
        work = self.work
        s = 2 * work.half + 1
        inv2s2 = -0.5 / (self.sigma * self.sigma)
        norm2 = 1.0 / (2.0 * math.pi * self.sigma * self.sigma)
        n = len(self._base)
        for k in range(0, n, work.step):
            c = slice(k, min(k + work.step, n))
            size = c.stop - k
            d = np.subtract(work.centres, self._frac[:, None, c],
                            out=work.d[:2 * s * size].reshape(2, s, size))
            g = np.multiply(d, d, out=work.g[:d.size].reshape(d.shape))
            g *= inv2s2
            np.exp(g, out=g)
            g[1] *= norm2
            lin = np.add(work.offsets, self._base[c],
                         out=work.lin[:s * s * size].reshape(s, s, size))
            yield c, lin, g, d

    def position_gradient(self, coefficients: np.ndarray) -> np.ndarray:
        """Gradient of sum_ij coefficients_ij * M_ij w.r.t. positions, (N, 2)."""
        coef = np.asarray(coefficients, dtype=np.float64)
        if coef.shape != self.geometry.shape:
            raise ValueError("coefficient grid shape does not match geometry")
        work = self.work
        work.coef[work.crop] = coef
        out = np.empty((2, len(self._base)))  # einsum is slow into strided out=
        for c, lin, g, d in self._chunks():
            # coefficient at each tap; mode="wrap" (indices are in range)
            # lets take write into out= without buffering
            patch = np.take(work.coef.ravel(), lin, mode="wrap",
                            out=work.block[:lin.size].reshape(lin.shape))
            gd = np.multiply(g, d, out=d)
            np.einsum("ac,abc,bc->c", g[1], patch, gd[0], out=out[0, c])
            np.einsum("ac,abc,bc->c", gd[1], patch, g[0], out=out[1, c])
        out *= 1.0 / (self.sigma * self.sigma)
        return out.T.copy()


def _splat(positions: np.ndarray, geometry: SensorGeometry, sigma: float, work=None) -> SplatCache:
    return SplatCache(positions, geometry, sigma, work)


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
