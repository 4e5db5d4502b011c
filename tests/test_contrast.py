import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evjoint.contrast as contrast
from evjoint.contrast import (
    ConfidenceMap,
    ContrastMap,
    hard_map,
    sigmoid,
    smooth_map,
    weighted_map,
)
from evjoint.events import SensorGeometry

G2 = SensorGeometry(2, 2)
G16 = SensorGeometry(16, 16)


def brute_count(positions, geometry):
    out = np.zeros(geometry.shape)
    for x, y in positions:
        j, i = math.floor(x), math.floor(y)
        if 0 <= j < geometry.width and 0 <= i < geometry.height:
            out[i, j] += 1
    return out


class TestSigmoid:
    def test_matches_exp_form(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        assert np.max(np.abs(sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 4.5e-16

    def test_saturates_exactly(self):
        # saturated logits give weights of exactly 1 and 0
        assert sigmoid(np.array([1000.0, -1000.0])).tolist() == [1.0, 0.0]

    def test_writes_out_in_place(self):
        x = np.array([[-3.0, 0.0], [0.5, 7.0]])
        out = np.full_like(x, np.nan)
        assert sigmoid(x, out=out) is out
        assert np.array_equal(out, sigmoid(x)) and out[0, 1] == 0.5
        assert np.array_equal(x, [[-3.0, 0.0], [0.5, 7.0]])


class TestHardMap:
    def test_two_positions(self):
        m = hard_map(np.array([[0.2, 0.7], [0.9, 0.1]]), G2)
        assert m.values[0, 0] == 2
        assert m.values.sum() == 2

    def test_empty(self):
        assert hard_map(np.zeros((0, 2)), G2).values.sum() == 0

    @pytest.mark.parametrize("far", [1e19, 1e300])
    def test_far_positions_are_ignored(self, far):
        # beyond +-2^63, where an int64 cast is undefined
        pos = np.array([[far, 0.5], [-far, 0.5], [0.5, far], [0.5, -far], [1.5, 0.5]])
        assert hard_map(pos, G2).values.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-4, 20, (1000, 2))
        m = hard_map(pos, G16)
        assert np.array_equal(m.values, brute_count(pos, G16))
        inside = ((pos >= 0) & (pos < 16)).all(axis=1)
        assert m.values.sum() == inside.sum()


class TestSmoothMap:
    def test_pixel_center_values(self):
        # an event on a pixel centre votes 1/6, 2/3, 1/6 per axis; the blur
        # is exp(-3 k^2 / 4) (variance 2/3) over |k| <= 4, normalized
        g = SensorGeometry(9, 9)
        m = smooth_map(np.array([[4.5, 4.5]]), g, sigma=1.0)
        blur = [math.exp(-0.75 * k * k) for k in range(5)]
        norm = blur[0] + 2 * sum(blur[1:])
        centre = (2 / 3 * blur[0] + 1 / 3 * blur[1]) / norm
        beside = (2 / 3 * blur[1] + 1 / 6 * (blur[0] + blur[2])) / norm
        assert m.values[4, 4] == pytest.approx(centre * centre, abs=1e-12)
        assert m.values[4, 5] == pytest.approx(centre * beside, abs=1e-12)
        assert m.values[5, 4] == pytest.approx(centre * beside, abs=1e-12)

    @pytest.mark.parametrize("frac", [(0.0, 0.0), (0.25, 0.5), (0.5, 0.125), (0.875, 0.375)])
    def test_interior_event_keeps_mass_and_centroid(self, frac):
        g = SensorGeometry(32, 32)
        x, y = 16.0 + frac[0], 15.0 + frac[1]
        m = smooth_map(np.array([[x, y]]), g, sigma=1.0).values
        centres = np.arange(32) + 0.5
        assert abs(m.sum() - 1.0) <= 1e-12
        assert abs((m.sum(axis=0) * centres).sum() - x) <= 1e-12
        assert abs((m.sum(axis=1) * centres).sum() - y) <= 1e-12

    def test_single_event_within_two_percent_of_the_exact_gaussian(self):
        # at sigma = 1, over an 8 x 8 sub-pixel grid of positions, every pixel
        # of a single event's map lies within 2% of the exact Gaussian's peak
        g = SensorGeometry(32, 32)
        centres = np.arange(32) + 0.5
        worst = 0.0
        for fx in np.arange(8) / 8:
            for fy in np.arange(8) / 8:
                x, y = 16.0 + fx, 15.0 + fy
                m = smooth_map(np.array([[x, y]]), g, sigma=1.0).values
                exact = np.outer(np.exp(-0.5 * (centres - y) ** 2),
                                 np.exp(-0.5 * (centres - x) ** 2)) / (2 * math.pi)
                worst = max(worst, np.max(np.abs(m - exact)))
        assert worst <= 0.02 / (2 * math.pi)

    def test_empty(self):
        assert smooth_map(np.zeros((0, 2)), G16).values.sum() == 0

    def test_mass_bounded_by_count(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 16, (500, 2))
        m = smooth_map(pos, G16)
        assert m.values.min() >= 0
        assert m.values.sum() <= 500.0

    def test_integer_shift_equivariance(self):
        g = SensorGeometry(32, 32)
        rng = np.random.default_rng(1)
        pos = rng.uniform(9, 20, (40, 2))  # well clear of the borders
        base = smooth_map(pos, g).values
        shifted = smooth_map(pos + np.array([1.0, 0.0]), g).values
        assert np.max(np.abs(shifted[:, 1:] - base[:, :-1])) < 1e-9

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            smooth_map(np.zeros((1, 2)), G16, sigma=0.0)

    def test_narrow_sigma_approaches_hard_map(self):
        # the narrowest sigma admitted: the blur is all but the identity
        pos = np.array([[5.3, 7.6]])
        m = smooth_map(pos, G16, sigma=math.nextafter(math.sqrt(1 / 3), math.inf))
        hard = hard_map(pos, G16)
        assert np.unravel_index(m.values.argmax(), m.values.shape) == (7, 5)
        assert hard.values[7, 5] == 1

    @pytest.mark.parametrize("sigma", [0.75, 1.0, 2.0])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_numpy_kernel_matches_per_event_oracle(self, sigma, data):
        # sigma is drawn within 20% of the parametrized value; positions lie
        # inside the sensor, straddle its border or are wholly off it
        s = data.draw(st.floats(0.8 * sigma, 1.2 * sigma), label="sigma")
        g = SensorGeometry(16, 12)
        half = contrast.kernel_size(s)[0]
        # no vote of an event this far beyond an edge reaches the sensor
        # through the blur
        reach = half + 3.0

        def near_edge(size):
            return st.sampled_from([0.0, float(size)]).flatmap(
                lambda e: st.floats(e - reach, e + reach))

        def off(size):
            return st.one_of(st.floats(-1e4, -reach), st.floats(size + reach, 1e4))

        anywhere = st.floats(-1e4, 1e4)
        position = st.one_of(
            st.tuples(st.floats(0, g.width, exclude_max=True),
                      st.floats(0, g.height, exclude_max=True)),
            st.tuples(near_edge(g.width), st.floats(-reach, g.height + reach)),
            st.tuples(st.floats(-reach, g.width + reach), near_edge(g.height)),
            st.tuples(off(g.width), anywhere),
            st.tuples(anywhere, off(g.height)),
        )
        pos = np.array(data.draw(st.lists(position, max_size=30), label="positions"),
                       dtype=np.float64).reshape(-1, 2)
        # events per kernel chunk: a few, so most examples span several
        # chunks, or the kernel's own chunk size
        per_chunk = data.draw(st.one_of(st.integers(1, 4), st.none()), label="per_chunk")
        chunk_taps = contrast._CHUNK_TAPS if per_chunk is None else per_chunk * 16
        _assert_numpy_kernel_matches_oracle(pos, g, s, chunk_taps)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0])
    def test_numpy_kernel_matches_oracle_across_chunks(self, sigma):
        # at the kernel's own chunk size: two full chunks and a partial third
        g = SensorGeometry(16, 12)
        step = contrast._CHUNK_TAPS // 16
        rng = np.random.default_rng(7)
        n_border = 2 * step + step // 2 - 84
        pos = np.concatenate([
            rng.uniform(0, 12, (80, 2)),
            rng.uniform(-3 * sigma, 16 + 3 * sigma, (n_border, 2)),
            [[-40.0, 5.0], [5.0, -40.0], [60.0, 60.0], [-0.5, 11.9]],
        ])
        assert 2 * step < len(pos) < 3 * step
        _assert_numpy_kernel_matches_oracle(pos, g, sigma, contrast._CHUNK_TAPS)


def _spline(t):
    """Cubic B-spline weights of the taps floor(u) - 1 ... floor(u) + 2 at
    t = u - floor(u), and their derivatives in t."""
    s = 1.0 - t
    return ([s ** 3 / 6, 2 / 3 - t * t + t ** 3 / 2, 2 / 3 - s * s + s ** 3 / 2, t ** 3 / 6],
            [-s * s / 2, 1.5 * t * t - 2 * t, 2 * s - 1.5 * s * s, t * t / 2])


def _assert_numpy_kernel_matches_oracle(pos, g, s, chunk_taps):
    """The numpy kernel's map and position gradient against a per-event,
    per-tap loop of the cubic B-spline vote and then the blur, to 1e-12, with
    the kernel's chunk size set to chunk_taps."""
    half = math.ceil(4 * math.sqrt(s * s - 1 / 3))  # the blur is cut at 4 of its sigmas
    blur = [math.exp(-k * k / (2 * (s * s - 1 / 3))) for k in range(-half, half + 1)]
    norm = math.fsum(blur)
    blur = [b / norm for b in blur]
    coef = np.random.default_rng(7).normal(size=g.shape)

    def blurred(i, j):
        """The sensor pixels pixel (i, j) blurs into, with their weights."""
        for a in range(-half, half + 1):
            for b in range(-half, half + 1):
                if 0 <= i + a < g.height and 0 <= j + b < g.width:
                    yield i + a, j + b, blur[a + half] * blur[b + half]

    vote = {}
    adjoint = {}
    grad = np.zeros((len(pos), 2))
    for k, (x, y) in enumerate(pos):
        jx, iy = math.floor(x - 0.5), math.floor(y - 0.5)
        wx, dwx = _spline(x - 0.5 - jx)
        wy, dwy = _spline(y - 0.5 - iy)
        for a in range(4):
            for b in range(4):
                i, j = iy - 1 + a, jx - 1 + b
                if not (-half <= i < g.height + half and -half <= j < g.width + half):
                    continue  # the blur carries nothing from here onto the sensor
                vote[i, j] = vote.get((i, j), 0.0) + wy[a] * wx[b]
                if (i, j) not in adjoint:
                    adjoint[i, j] = sum(coef[p, q] * wk for p, q, wk in blurred(i, j))
                grad[k, 0] += adjoint[i, j] * wy[a] * dwx[b]
                grad[k, 1] += adjoint[i, j] * dwy[a] * wx[b]
    values = np.zeros(g.shape)
    for (i, j), mass in vote.items():
        for p, q, wk in blurred(i, j):
            values[p, q] += mass * wk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contrast, "_CHUNK_TAPS", chunk_taps)
        cache = contrast.SplatCache(pos, g, s)
        got = cache.position_gradient(coef)
    assert np.max(np.abs(cache.values - values)) <= 1e-12
    assert np.max(np.abs(got - grad), initial=0.0) <= 1e-12


class TestWeightedMap:
    def test_saturated_weights_identity(self):
        rng = np.random.default_rng(0)
        m = ContrastMap(rng.uniform(0, 5, G16.shape), G16)
        conf = ConfidenceMap(np.full(G16.shape, 30.0))
        assert np.allclose(weighted_map(m, conf).values, m.values, rtol=1e-10)

    def test_zero_logits_halve(self):
        m = ContrastMap(np.full(G2.shape, 2.0), G2)
        conf = ConfidenceMap.zeros(G2)
        assert np.allclose(weighted_map(m, conf).values, 1.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 5, G16.shape)
        logits = rng.normal(size=G16.shape)
        got = weighted_map(ContrastMap(vals, G16), ConfidenceMap(logits)).values
        oracle = np.empty(G16.shape)
        for i in range(16):
            for j in range(16):
                oracle[i, j] = vals[i, j] / (1.0 + math.exp(-logits[i, j]))
        assert np.array_equal(got, oracle) or np.allclose(got, oracle, atol=1e-15)

    def test_shape_mismatch(self):
        m = ContrastMap(np.zeros(G2.shape), G2)
        with pytest.raises(ValueError):
            weighted_map(m, ConfidenceMap.zeros(G16))


class TestVarianceGradients:
    """The kernel's position gradient, which every variance gradient runs
    through: d/dp sum(coef * smooth_map(p)) for a fixed coefficient grid."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = SensorGeometry(12, 12)
        n = 60
        pos = rng.uniform(0, 12, (n, 2))
        coef = rng.normal(0, 1.5, g.shape)
        dpos = contrast.SplatCache(pos, g, 1.0).position_gradient(coef)

        def value(p):
            return float((coef * smooth_map(p, g, sigma=1.0).values).sum())

        h = 1e-4
        for k in rng.choice(n, 6, replace=False):
            for ax in range(2):
                pp = pos.copy()
                pp[k, ax] += h
                pm = pos.copy()
                pm[k, ax] -= h
                fd = (value(pp) - value(pm)) / (2 * h)
                denom = max(abs(fd), abs(dpos[k, ax]), 1e-10)
                assert abs(fd - dpos[k, ax]) / denom < 1e-4

    def test_zero_events(self):
        cache = contrast.SplatCache(np.zeros((0, 2)), G16, 1.0)
        assert np.all(cache.values == 0.0)
        assert cache.position_gradient(np.ones(G16.shape)).shape == (0, 2)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            contrast.SplatCache(np.zeros((1, 2)), G16, -1.0)

    @pytest.mark.parametrize("sigma", [math.inf, 1e300, 1000.0])
    def test_unusable_sigma_rejected_before_allocating(self, sigma):
        # at sigma = 1000 the padded map alone would take about 2 GB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sigma"):
                contrast.SplatCache(np.array([[3.0, 4.0]]), SensorGeometry(96, 96), sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_workspace_bound(self):
        half, step = contrast.kernel_size(1.0, (96, 96))
        assert (half, step) == (4, contrast._CHUNK_TAPS // 16)
        # no blur makes up the cubic vote's own variance of 1/3 px^2
        for sigma in (0.5, math.sqrt(1 / 3)):
            with pytest.raises(ValueError, match="sigma"):
                contrast.kernel_size(sigma)
        # a large sensor fits at sigma = 1; even the smallest sensor bounds
        # sigma at a few hundred
        contrast.kernel_size(1.0, (4096, 4096))
        contrast.kernel_size(300.0)
        with pytest.raises(ValueError, match="a 1x1 sensor"):
            contrast.kernel_size(400.0)
        with pytest.raises(ValueError, match="a 8192x8192 sensor"):
            contrast.kernel_size(1.0, (8192, 8192))

    def test_splat_into_a_given_workspace(self):
        rng = np.random.default_rng(2)
        work = contrast.SplatCache(rng.uniform(-2, 18, (50, 2)), G16, 1.0)
        values = work.values
        for _ in range(3):
            pos = rng.uniform(-2, 18, (50, 2))
            coef = rng.normal(size=G16.shape)
            fresh = contrast.SplatCache(pos, G16, 1.0)
            reused = contrast._splat(pos, G16, 1.0, work)
            assert reused is work and reused.values is values
            assert reused.values.tobytes() == fresh.values.tobytes()
            assert (reused.position_gradient(coef).tobytes()
                    == fresh.position_gradient(coef).tobytes())
            # into a given (2, N) buffer: the same bytes, returned as its transpose
            buf = np.full((2, 50), np.nan)
            into = reused.position_gradient(coef, buf)
            assert into.base is buf and into.shape == (50, 2)
            assert into.tobytes() == fresh.position_gradient(coef).tobytes()
        # its chunk buffers hold at most as many events as the first splat's
        with pytest.raises(ValueError):
            work.splat(rng.uniform(-2, 18, (51, 2)))


def _separable(grid, taps, mode):
    """grid convolved with taps along axis 0, then along axis 1, by np.convolve."""
    cols = np.stack([np.convolve(col, taps, mode) for col in grid.T], axis=1)
    return np.stack([np.convolve(row, taps, mode) for row in cols])


class TestBlur:
    """SplatCache.blur against a direct separable np.convolve, on square,
    non-square and one-pixel sensors (the passes' transposed intermediate
    has the other orientation from the map it came from)."""

    SHAPES = [(1, 1), (7, 13), (13, 7), (96, 64)]  # (width, height)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("size", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_separable_convolution(self, size, sigma):
        g = SensorGeometry(*size)
        work = contrast.SplatCache(np.zeros((1, 2)), g, sigma)
        rng = np.random.default_rng(5)
        votes = rng.normal(size=work.regions[1].shape)
        coef = rng.normal(size=g.shape)
        # the splat: votes within half of the sensor, blurred onto the sensor
        work.padded.fill(0.0)
        work.regions[1][...] = votes
        work.blur(adjoint=False)
        want = _separable(votes, work.taps, "valid")
        assert work.values.shape == want.shape == g.shape
        assert np.max(np.abs(work.values - want)) <= 1e-14 * np.max(np.abs(want))
        forward = work.values.copy()
        # the adjoint: the zero-padded grid blurred out to half of the sensor,
        # and zero beyond it, where the gradient also gathers
        work.padded.fill(np.nan)
        work.regions[2][...] = 0.0
        work.regions[0][...] = coef
        work.blur(adjoint=True)
        want = _separable(coef, work.taps, "full")
        assert np.max(np.abs(work.regions[1] - want)) <= 1e-14 * np.max(np.abs(want))
        outside = np.ones(work.padded.shape, dtype=bool)
        outside[work.pad - work.half:work.pad + g.height + work.half,
                work.pad - work.half:work.pad + g.width + work.half] = False
        assert not np.any(work.padded[outside])
        # <B v, c> = <v, B^T c>
        lhs, rhs = np.vdot(forward, coef), np.vdot(votes, work.regions[1])
        assert abs(lhs - rhs) <= 1e-14 * np.sum(np.abs(votes)) * np.max(np.abs(work.regions[1]))


class TestHeldTaps:
    """A splat leaves its last chunk's vote indices and weights in the cache;
    the gradient of the same splat reuses them and recomputes any other chunk,
    and the next splat recomputes them all."""

    STEP = contrast._CHUNK_TAPS // 16

    @staticmethod
    def _positions(n, seed):
        return np.random.default_rng(seed).uniform(-3.0, 19.0, (n, 2))

    @pytest.mark.parametrize("n", [1, STEP, STEP + 1, 3 * STEP])
    def test_gradient_after_another_splat_into_the_work(self, n):
        coef = np.random.default_rng(1).normal(size=G16.shape)
        pos = self._positions(n, 2)
        cache = contrast.SplatCache(pos, G16, 1.0)
        grad = cache.position_gradient(coef).copy()
        assert cache.position_gradient(coef).tobytes() == grad.tobytes()
        # a second splat, after the gradient has left taps held, recomputes
        # them all; splatting the first positions again restores its gradient
        other = contrast.SplatCache(self._positions(n, 3), G16, 1.0)
        assert cache.splat(self._positions(n, 3)) is cache
        assert cache.values.tobytes() == other.values.tobytes()
        assert cache.position_gradient(coef).tobytes() == (
            other.position_gradient(coef).tobytes())
        cache.splat(pos)
        fresh = contrast.SplatCache(pos, G16, 1.0).position_gradient(coef)
        assert cache.position_gradient(coef).tobytes() == fresh.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("n", [1, STEP, STEP + 1, 3 * STEP])
    def test_only_the_last_chunk_is_held(self, n):
        # positions changed after the splat reach the gradient only through
        # the chunks it recomputes: all but the last
        coef = np.random.default_rng(1).normal(size=G16.shape)
        pos = self._positions(n, 2)
        cache = contrast.SplatCache(pos, G16, 1.0)
        want = contrast.SplatCache(pos, G16, 1.0).position_gradient(coef)
        pos += 0.25
        got = cache.position_gradient(coef)
        last = (n - 1) // self.STEP * self.STEP
        assert got[last:].tobytes() == want[last:].tobytes()
        assert not np.any(got[:last] == want[:last])


def test_alignment_raises_smooth_variance_on_synthetic_edge():
    from evjoint.synth import MultiEdge, SceneSpec, generate
    from evjoint.warp import MotionParams, warp

    g = SensorGeometry(64, 64)
    spec = SceneSpec(g, MultiEdge(8.0), MotionParams.translation(30.0, -10.0), 0.1)
    window, _, theta_gt = generate(spec, seed=0)
    raw = np.var(smooth_map(window.positions, g).values)
    aligned = np.var(smooth_map(warp(window, theta_gt), g).values)
    assert aligned > raw
