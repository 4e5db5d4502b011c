"""Contrast maps: per-pixel event mass, weighted variants, position gradients.

``hard_map`` counts events per pixel cell. ``smooth_map``, the image of
events smoothed by a Gaussian of width sigma (Gallego, Rebecq & Scaramuzza,
CVPR 2018), is differentiable in the event positions. Its one kernel,
``SplatCache``, votes each event into 4 x 4 pixels with cubic B-spline
weights (variance 1/3 px^2 per axis, C^2), then blurs the votes once with a
separable sampled Gaussian of variance sigma^2 - 1/3, so sigma > 1/sqrt(3).
The position gradient is the adjoint: blur, then gather 16 taps per event.
Each blur pass is a BLAS matrix-vector product along axis 0 of a C-order
map, then a transposed copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import SensorGeometry

SIGMA_DEFAULT = 1.0

_HAVE_NUMBA = False  # no compiled kernel; benchmarks/layers.py names the backend

_VOTE_VARIANCE = 1.0 / 3.0  # per axis, of the cubic B-spline vote, px^2

# Blur half-width in blur sigmas. The blur is normalized to sum 1, so it
# drops no mass; its cut tails hold at most 2 Q(4) = 6.3e-5 per axis of the
# untruncated sampled Gaussian (7e-9 at sigma = 1).
TRUNCATE_SIGMAS = 4.0

# Vote taps (16 per event) per event chunk. Each chunk's (4, 4, C) index and
# weight blocks (256 KB here) stay cache-sized and bound the kernel's working
# memory; much smaller chunks pay numpy's per-call overhead instead.
_CHUNK_TAPS = 32768

# Bound on a SplatCache's buffers (see kernel_size): it admits a 4096 x 4096
# sensor at sigma = 1 and, on a 1 x 1 sensor, sigma up to 361.5.
WORKSPACE_LIMIT_BYTES = 1 << 29

# Cubic B-spline weights of the taps floor(u) - 1 ... floor(u) + 2 (rows
# 0-3) and their derivatives (rows 4-7): coefficients of 1, t, t^2, t^3.
_SPLINE = np.array([[1, -3, 3, -1], [4, 0, -6, 3], [1, 3, 3, -3], [0, 0, 0, 1],
                    [-3, 6, -3, 0], [0, -12, 9, 0], [3, 6, -9, 0], [0, 0, 3, 0]]) / 6.0


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
    given: within 2.2e-16 of the exp form, exactly 1.0 above about x = 37, and
    0.0 below about x = -38, where the exp form returns about exp(x)."""
    y = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-pixel signal confidence, stored as unconstrained logits: the form
    `objective`, `objective_gradients` and `weighted_map` take.

    The usable weights are sigmoid(logits) in [0, 1], exactly 1.0 / 0.0
    beyond about +37 / -38.
    """

    logits: np.ndarray

    @classmethod
    def zeros(cls, geometry: SensorGeometry) -> "ConfidenceMap":
        return cls(np.zeros(geometry.shape))

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
    x, y = positions.T
    inside = (x >= 0) & (x < w) & (y >= 0) & (y < h)  # before the int64 cast
    lin = np.floor(y[inside]).astype(np.int64) * w + np.floor(x[inside]).astype(np.int64)
    counts = np.bincount(lin, minlength=h * w).astype(np.float64)
    return ContrastMap(counts.reshape(h, w), geometry)


def kernel_size(sigma: float, shape: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """(blur half-width ceil(4 sigma'), sigma'^2 = sigma^2 - 1/3, events per
    chunk). Raises ValueError, before anything is allocated, unless sigma is
    finite and above 1/sqrt(3) and an H x W SplatCache fits the bound."""
    if not (0 < sigma < math.inf and sigma * sigma > _VOTE_VARIANCE):
        raise ValueError(f"sigma must be finite and above 1/sqrt(3) = 0.577, got {sigma}")
    half = math.ceil(TRUNCATE_SIGMAS * sigma * math.sqrt(1.0 - _VOTE_VARIANCE / (sigma * sigma)))
    h, w, step = *shape, _CHUNK_TAPS // 16
    pad = max(2 * half, half + 4)
    size = 8 * (2 * (h + 2 * pad) * (w + 2 * pad) + h * w + 59 * step)
    if size > WORKSPACE_LIMIT_BYTES:
        raise ValueError(f"sigma = {sigma:g} on a {w}x{h} sensor needs a splat workspace "
                         f"over the {WORKSPACE_LIMIT_BYTES >> 20} MiB bound")
    return half, step


class SplatCache:
    """The splat kernel for one geometry and sigma, holding its last splat;
    it splats `positions` when built, and `splat` re-splats in place.

    Votes off the sensor land in the padding, so need no mask; an event the
    blur cannot carry onto the sensor is pinned just outside that reach. Its
    buffers, at most WORKSPACE_LIMIT_BYTES: `padded`, the vote map padded by
    P = max(2 half, half + 4) pixels (in the gradient, the zero-padded and
    then the blurred coefficient grid; between a blur's two passes, its
    transposed intermediate, at its start); `scratch`, of its size, each blur
    pass's C-order output; `values`, the cropped map; and the taps and votes
    of one chunk of at most as many events as the first splat's. `lin` and
    `w` hold the taps of the chunk starting at event `held`, so the gradient
    reuses the last chunk's (all of a window of up to 2,048 events); each
    splat clears `held`. Every splat and gradient overwrites the buffers, so
    `values` lasts until the next splat."""

    __slots__ = ("geometry", "sigma", "half", "step", "pad", "taps", "offsets", "hi", "padded",
                 "regions", "blurs", "scratch", "values", "pw", "f", "base", "w", "lin", "block",
                 "held", "positions")

    def __init__(self, positions: np.ndarray, geometry: SensorGeometry, sigma: float):
        positions = np.ascontiguousarray(positions, dtype=np.float64).reshape(-1, 2)
        half, self.step = kernel_size(sigma, geometry.shape)
        self.geometry, self.sigma, self.half = geometry, float(sigma), half
        h, w = geometry.shape
        p = self.pad = max(2 * half, half + 4)
        taps = np.exp(-0.5 * np.arange(-half, half + 1) ** 2 / (sigma * sigma - _VOTE_VARIANCE))
        self.taps = taps / taps.sum()
        self.padded, self.scratch = np.zeros((2, h + 2 * p, w + 2 * p))
        self.values = np.empty((h, w))
        # the padded map within 0, half and 2 half of the sensor; the blur as
        # two (window view, out, dest) passes for the splat and its adjoint,
        # each a gemv per row into scratch (half the time of an einsum), its
        # transpose copied to padded (consumed by then), then to the output.
        # The views, sliding_window_view's of k taps without its 20 us of
        # checks, are built once: built per call, they grew peak RSS by about
        # 1.5 MB over a small-windows benchmark run.
        self.regions = [self.padded[p - r:p + h + r, p - r:p + w + r] for r in (0, half, 2 * half)]
        view, k, self.blurs = np.lib.stride_tricks.as_strided, 2 * half + 1, []

        def flat(buf, m, n):  # an m x n C-order map at the start of buf
            return buf.reshape(-1)[:m * n].reshape(m, n)

        def axis0_pass(source, dest):
            m, n = len(source) - 2 * half, source.shape[1]
            return (view(source, (m, n, k), source.strides + source.strides[:1]),
                    flat(self.scratch, m, n), dest)

        for source, dest in ((self.regions[1], self.values), (self.regions[2], self.regions[1])):
            mid = flat(self.padded, source.shape[1], len(source) - 2 * half)
            self.blurs.append((axis0_pass(source, mid), axis0_pass(mid, dest)))
        # flat padded index of each vote from the event's first one, and the
        # first vote's upper clip per axis (x, y), in padded pixels
        self.offsets = (np.arange(4)[:, None] * (w + 2 * p) + np.arange(4))[:, :, None]
        self.hi = np.array([[p + w + half], [p + h + half]])
        c = min(self.step, len(positions))
        self.pw, self.f, self.w, self.block = (np.empty(k * c) for k in (8, 2, 16, 16))
        self.base, self.lin = np.empty(c, dtype=np.int64), np.empty(16 * c, dtype=np.int64)
        self.splat(positions)

    def splat(self, positions: np.ndarray) -> "SplatCache":
        """Splat positions, at most as many as the first splat's, in place of
        the last splat; returns self."""
        self.positions = np.ascontiguousarray(positions, dtype=np.float64).reshape(-1, 2)
        self.held = None
        self.padded.fill(0.0)
        for _, lin, w, _ in self._chunks():
            votes = np.multiply(w[:, 1, None, :], w[None, :, 0, :],
                                out=self.block[:lin.size].reshape(lin.shape))
            np.add.at(self.padded.ravel(), lin.ravel(), votes.ravel())
        self.blur(adjoint=False)
        return self

    def blur(self, adjoint: bool) -> None:
        """Blur regions[1] into values, or if adjoint regions[2] into
        regions[1], leaving padded zero outside it for the gradient."""
        (first, out, mid), (second, out2, dest) = self.blurs[adjoint]
        np.matmul(first, self.taps, out=out)
        np.copyto(mid, out.T)
        np.matmul(second, self.taps, out=out2)
        if adjoint:
            self.padded.fill(0.0)
        np.copyto(dest, out2.T)

    def _chunks(self, reverse: bool = False):
        """Votes per event chunk of the last splat, in a fixed order (reversed
        if reverse), computed unless still held: yields (events, lin, w, dw),
        the chunk's event slice, the flat padded index of every vote (4, 4, C)
        (y, x, event), and per tap and axis (x, y) the weights w and their
        position derivatives dw, (4, 2, C)."""
        n = len(self.positions)
        starts = range(0, n, self.step)
        for k in reversed(starts) if reverse else starts:
            c = slice(k, min(k + self.step, n))
            m = c.stop - k
            lin = self.lin[:16 * m].reshape(4, 4, m)
            w = self.w[:16 * m].reshape(8, 2, m)
            if self.held != k:
                # f = floor(u) + P - 1, u = position - 1/2: the first vote in
                # padded pixels; powers 1, t, t^2, t^3 of t = u - floor(u)
                pw = self.pw[:8 * m].reshape(4, 2, m)
                t = np.add(self.positions[c].T, self.pad - 1.5, out=pw[1])
                f = np.floor(t, out=self.f[:2 * m].reshape(2, m))
                t -= f
                pw[0] = 1.0
                np.multiply(t, t, out=pw[2])
                np.multiply(pw[2], t, out=pw[3])
                np.maximum(f, self.pad - self.half - 4, out=f)
                np.minimum(f, self.hi, out=f)
                f[1] *= self.padded.shape[1]
                f[1] += f[0]
                np.copyto(self.base[:m], f[1], casting="unsafe")
                np.add(self.offsets, self.base[:m], out=lin)
                np.matmul(_SPLINE, pw.reshape(4, 2 * m), out=self.w[:16 * m].reshape(8, 2 * m))
                self.held = k
            yield c, lin, w[:4], w[4:]

    def position_gradient(self, coefficients: np.ndarray, out: np.ndarray | None = None
                          ) -> np.ndarray:
        """Gradient of sum_ij coefficients_ij * M_ij w.r.t. the last splat's
        positions, (N, 2): the transpose of out, a (2, N) array (fresh when
        None)."""
        coef = np.asarray(coefficients, dtype=np.float64)
        if coef.shape != self.geometry.shape:
            raise ValueError("coefficient grid shape does not match geometry")
        # the blur is symmetric, so its adjoint blurs the zero-padded grid
        self.padded.fill(0.0)
        self.regions[0][...] = coef
        self.blur(adjoint=True)
        if out is None:  # einsum is slow into strided out=, so it is (2, N)
            out = np.empty((2, len(self.positions)))
        for c, lin, w, dw in self._chunks(reverse=True):
            # blurred coefficient at each vote; mode="wrap" (indices are in
            # range) lets take write into out= without buffering
            patch = np.take(self.padded.ravel(), lin, mode="wrap",
                            out=self.block[:lin.size].reshape(lin.shape))
            np.einsum("ac,abc,bc->c", w[:, 1], patch, dw[:, 0], out=out[0, c])
            np.einsum("ac,abc,bc->c", dw[:, 1], patch, w[:, 0], out=out[1, c])
        return out.T


def _splat(positions: np.ndarray, geometry: SensorGeometry, sigma: float,
           work: SplatCache | None = None) -> SplatCache:
    """Splat positions into work, a SplatCache of this geometry and sigma
    (a fresh one when None), and return it."""
    return SplatCache(positions, geometry, sigma) if work is None else work.splat(positions)


def smooth_map(
    positions: np.ndarray, geometry: SensorGeometry, sigma: float = SIGMA_DEFAULT
) -> ContrastMap:
    """Vote every event into the map and blur it: a Gaussian of width sigma
    per event, to within 1.9% of its peak at sigma = 1 (see the module)."""
    cache = _splat(positions, geometry, sigma)
    return ContrastMap(cache.values, geometry)


def weighted_map(cmap: ContrastMap, conf: ConfidenceMap) -> ContrastMap:
    """Elementwise product of the map with the confidence weights."""
    if conf.shape != cmap.values.shape:
        raise ValueError("confidence map shape does not match contrast map")
    return ContrastMap(conf.weights * cmap.values, cmap.geometry)
