"""Contrast maps: per-pixel event mass, weighted variants, variance, gradients.

Two accumulation flavors are provided. ``hard_map`` counts events per pixel
cell. ``smooth_map`` replaces each event by an isotropic 2-D Gaussian
evaluated at pixel centers, which makes the map (and everything built on
it) differentiable with respect to event positions. Each kernel is
truncated to +-ceil(4 sigma) pixel taps per axis (``TRUNCATE_SIGMAS``), so
the first dropped tap centre is at least ceil(4 sigma) + 1/2 px from the
event and the dropped mass is of order 1e-5 of a unit kernel at sigma = 1.

The splatting loops are jitted with numba when available (they dominate the
solver runtime); otherwise a numpy kernel with identical semantics and the
same support runs tap-major over fixed-size event chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


from .events import SensorGeometry

SIGMA_DEFAULT = 1.0

# Kernel support half-width in sigmas, shared by the numba and numpy kernels.
# An event at x keeps the taps floor(x) - ceil(4 sigma) ... floor(x) +
# ceil(4 sigma) on each axis, so every dropped tap centre lies at least
# d = ceil(4 sigma) + 1/2 px from the event along x or y. Summing the
# decreasing Gaussian tail beyond d on both sides of both axes bounds the
# dropped mass of a unit kernel by 4 * (Q(d / sigma) + phi(d / sigma) / sigma),
# with phi and Q the standard normal density and upper tail: 7.8e-5 at
# sigma = 1 (the worst case over sub-pixel offsets is 3.2e-5), and below
# 2e-4 for every sigma since d / sigma > 4. That is small enough that the
# cutoff never shows up in finite-difference gradient checks at 1e-4 steps.
TRUNCATE_SIGMAS = 4.0

# Taps per event chunk in the numpy kernel. Each chunk's (S, S, chunk) index
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

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


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


@njit(cache=True)
def _nb_accumulate(x, y, h, w, half, inv2s2, norm2, out):
    s = 2 * half + 1
    wxbuf = np.empty(s)
    for k in range(x.shape[0]):
        bx = int(math.floor(x[k]))
        by = int(math.floor(y[k]))
        for b in range(s):
            dxc = (bx + b - half) + 0.5 - x[k]
            wxbuf[b] = math.exp(dxc * dxc * inv2s2)
        for a in range(s):
            i = by + a - half
            if i < 0 or i >= h:
                continue
            dyc = i + 0.5 - y[k]
            wyv = norm2 * math.exp(dyc * dyc * inv2s2)
            for b in range(s):
                j = bx + b - half
                if 0 <= j < w:
                    out[i, j] += wyv * wxbuf[b]


@njit(cache=True)
def _nb_position_grad(x, y, coef, h, w, half, inv2s2, norm2, invs2, out):
    s = 2 * half + 1
    wxbuf = np.empty(s)
    dxbuf = np.empty(s)
    for k in range(x.shape[0]):
        bx = int(math.floor(x[k]))
        by = int(math.floor(y[k]))
        for b in range(s):
            dxc = (bx + b - half) + 0.5 - x[k]
            dxbuf[b] = dxc
            wxbuf[b] = math.exp(dxc * dxc * inv2s2)
        gx = 0.0
        gy = 0.0
        for a in range(s):
            i = by + a - half
            if i < 0 or i >= h:
                continue
            dyc = i + 0.5 - y[k]
            wyv = norm2 * math.exp(dyc * dyc * inv2s2)
            for b in range(s):
                j = bx + b - half
                if 0 <= j < w:
                    cw = coef[i, j] * wyv * wxbuf[b]
                    gx += cw * dxbuf[b]
                    gy += cw * dyc
        out[k, 0] = gx * invs2
        out[k, 1] = gy * invs2


class SplatCache:
    """One Gaussian splat of a position set; reusable for gradient passes."""

    __slots__ = ("geometry", "sigma", "positions", "values", "_half", "_np_events")

    def __init__(self, positions: np.ndarray, geometry: SensorGeometry, sigma: float):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.geometry = geometry
        self.sigma = float(sigma)
        self.positions = np.ascontiguousarray(
            np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        )
        self._half = int(math.ceil(TRUNCATE_SIGMAS * sigma))
        self._np_events = None
        h, w = geometry.shape
        n = self.positions.shape[0]
        if n == 0:
            self.values = np.zeros((h, w))
        elif _HAVE_NUMBA:
            out = np.zeros((h, w))
            _nb_accumulate(
                self.positions[:, 0], self.positions[:, 1], h, w,
                self._half, self._inv2s2, self._norm2, out,
            )
            self.values = out
        else:
            self.values = self._numpy_accumulate()

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def _taps(self) -> int:
        """Taps per axis, S; the numpy kernel pads the map by S on every side."""
        return 2 * self._half + 1

    @property
    def _inv2s2(self) -> float:
        return -0.5 / (self.sigma * self.sigma)

    @property
    def _norm2(self) -> float:
        return 1.0 / (2.0 * math.pi * self.sigma * self.sigma)

    def _numpy_chunks(self):
        """Taps of the numpy kernel, about _CHUNK_TAPS per event chunk, in a
        fixed order.

        The kernel works on the map padded by S pixels on every side, so taps
        that fall off the sensor land in the padding and need no mask; an
        event whose whole support is off the sensor is pinned just outside
        it. Yields (events, lin, g, d): the chunk's event slice; the flat
        padded index of every tap, (S, S, C); and per axis, tap-major, the
        kernel weights g and the offsets d of the tap centres from the
        events, (2, S, C), with the 2-D normalization on the y weights.
        """
        h, w = self.geometry.shape
        half = self._half
        s = self._taps
        if self._np_events is None:  # first-tap index and sub-pixel position
            p = np.ascontiguousarray(self.positions.T)
            f = np.floor(p)
            bx = np.clip(f[0], -half - 1, w + half).astype(np.int64)
            by = np.clip(f[1], -half - 1, h + half).astype(np.int64)
            self._np_events = ((by + half + 1) * (w + 2 * s) + (bx + half + 1), p - f)
        base, frac = self._np_events
        offsets = (np.arange(s)[:, None] * (w + 2 * s) + np.arange(s))[:, :, None]
        centres = (np.arange(-half, half + 1) + 0.5)[:, None]
        step = max(1, _CHUNK_TAPS // (s * s))
        for k in range(0, self.n, step):
            c = slice(k, k + step)
            d = centres - frac[:, None, c]
            g = d * d
            g *= self._inv2s2
            np.exp(g, out=g)
            g[1] *= self._norm2
            yield c, offsets + base[c], g, d

    def _padded(self):
        """Shape of the padded map and the slices that crop it to the sensor."""
        h, w = self.geometry.shape
        s = self._taps
        return (h + 2 * s, w + 2 * s), (slice(s, s + h), slice(s, s + w))

    def _numpy_accumulate(self) -> np.ndarray:
        shape, crop = self._padded()
        out = np.zeros(shape[0] * shape[1])
        for _, lin, g, _ in self._numpy_chunks():
            np.add.at(out, lin.ravel(), (g[1, :, None, :] * g[0, None, :, :]).ravel())
        return out.reshape(shape)[crop].copy()

    def position_gradient(self, coefficients: np.ndarray) -> np.ndarray:
        """Gradient of sum_ij coefficients_ij * M_ij w.r.t. positions, (N, 2)."""
        if self.n == 0:
            return np.zeros((0, 2))
        coef = np.ascontiguousarray(coefficients, dtype=np.float64)
        if coef.shape != self.geometry.shape:
            raise ValueError("coefficient grid shape does not match geometry")
        h, w = self.geometry.shape
        invs2 = 1.0 / (self.sigma * self.sigma)
        if _HAVE_NUMBA:
            out = np.empty((self.n, 2))
            _nb_position_grad(
                self.positions[:, 0], self.positions[:, 1], coef, h, w,
                self._half, self._inv2s2, self._norm2, invs2, out,
            )
            return out
        shape, crop = self._padded()
        padded = np.zeros(shape)
        padded[crop] = coef
        flat = padded.ravel()
        out = np.empty((self.n, 2))
        for c, lin, g, d in self._numpy_chunks():
            patch = flat[lin]  # coefficient at each tap
            gd = g * d
            out[c, 0] = np.einsum("ac,abc,bc->c", g[1], patch, gd[0])
            out[c, 1] = np.einsum("ac,abc,bc->c", gd[1], patch, g[0])
        return out * invs2


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
