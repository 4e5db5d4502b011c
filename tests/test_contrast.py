import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evjoint.contrast as contrast
from evjoint.contrast import (
    ConfidenceMap,
    ContrastMap,
    hard_map,
    map_variance,
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


class TestHardMap:
    def test_two_positions(self):
        m = hard_map(np.array([[0.2, 0.7], [0.9, 0.1]]), G2)
        assert m.values[0, 0] == 2
        assert m.values.sum() == 2

    def test_empty(self):
        assert hard_map(np.zeros((0, 2)), G2).values.sum() == 0

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
        g = SensorGeometry(9, 9)
        m = smooth_map(np.array([[4.5, 4.5]]), g, sigma=1.0)
        assert m.values[4, 4] == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)
        assert m.values[4, 5] == pytest.approx(math.exp(-0.5) / (2 * math.pi), abs=1e-12)
        assert m.values[5, 4] == pytest.approx(math.exp(-0.5) / (2 * math.pi), abs=1e-12)

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
        pos = np.array([[5.3, 7.6]])
        m = smooth_map(pos, G16, sigma=0.05)
        hard = hard_map(pos, G16)
        assert np.unravel_index(m.values.argmax(), m.values.shape) == (7, 5)
        assert hard.values[7, 5] == 1

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_numpy_kernel_matches_per_event_oracle(self, sigma, data):
        # sigma is drawn within 20% of the parametrized value; positions lie
        # inside the sensor, straddle its border or are wholly off it
        s = data.draw(st.floats(0.8 * sigma, 1.2 * sigma), label="sigma")
        g = SensorGeometry(16, 12)
        half = math.ceil(contrast.TRUNCATE_SIGMAS * s)
        reach = half + 1.0  # no tap of an event this far beyond an edge lands on the sensor

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
        chunk_taps = contrast._CHUNK_TAPS if per_chunk is None else per_chunk * (2 * half + 1) ** 2
        _assert_numpy_kernel_matches_oracle(pos, g, s, chunk_taps)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0])
    def test_numpy_kernel_matches_oracle_across_chunks(self, sigma):
        # at the kernel's own chunk size: two full chunks and a partial third
        g = SensorGeometry(16, 12)
        half = math.ceil(contrast.TRUNCATE_SIGMAS * sigma)
        step = contrast._CHUNK_TAPS // (2 * half + 1) ** 2
        rng = np.random.default_rng(7)
        n_border = 2 * step + step // 2 - 84
        pos = np.concatenate([
            rng.uniform(0, 12, (80, 2)),
            rng.uniform(-3 * sigma, 16 + 3 * sigma, (n_border, 2)),
            [[-40.0, 5.0], [5.0, -40.0], [60.0, 60.0], [-0.5, 11.9]],
        ])
        assert 2 * step < len(pos) < 3 * step
        _assert_numpy_kernel_matches_oracle(pos, g, sigma, contrast._CHUNK_TAPS)


def _assert_numpy_kernel_matches_oracle(pos, g, s, chunk_taps):
    """The numpy kernel's map and position gradient against a per-event,
    per-tap loop, to 1e-12, with the kernel's chunk size set to chunk_taps."""
    half = math.ceil(contrast.TRUNCATE_SIGMAS * s)
    coef = np.random.default_rng(7).normal(size=g.shape)
    values = np.zeros(g.shape)
    grad = np.zeros((len(pos), 2))
    for k, (x, y) in enumerate(pos):
        for i in range(math.floor(y) - half, math.floor(y) + half + 1):
            for j in range(math.floor(x) - half, math.floor(x) + half + 1):
                if 0 <= i < g.height and 0 <= j < g.width:
                    dx, dy = j + 0.5 - x, i + 0.5 - y
                    wk = math.exp(-(dx * dx + dy * dy) / (2 * s * s)) / (2 * math.pi * s * s)
                    values[i, j] += wk
                    grad[k, 0] += coef[i, j] * wk * dx / (s * s)
                    grad[k, 1] += coef[i, j] * wk * dy / (s * s)
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


class TestVariance:
    def test_constant_map_zero(self):
        assert map_variance(np.full((4, 4), 3.7)) == 0.0

    def test_hand_evaluated(self):
        assert map_variance(np.array([[4.0, 0.0], [0.0, 0.0]])) == pytest.approx(3.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0, 5, (8, 8))
        assert map_variance(m + 11.5) == pytest.approx(map_variance(m), rel=1e-9)

    def test_nonnegative_and_zero_iff_constant(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 5, (8, 8))
        assert map_variance(m) > 0


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


def test_alignment_raises_smooth_variance_on_synthetic_edge():
    from evjoint.synth import MultiEdge, SceneSpec, generate
    from evjoint.warp import MotionParams, warp

    g = SensorGeometry(64, 64)
    spec = SceneSpec(g, MultiEdge(8.0), MotionParams.translation(30.0, -10.0), 0.1)
    window, _, theta_gt = generate(spec, seed=0)
    raw = map_variance(smooth_map(window.positions, g))
    aligned = map_variance(smooth_map(warp(window, theta_gt), g))
    assert aligned > raw
