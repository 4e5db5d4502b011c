import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evjoint.baselines import (BAF_MAX_WORK, BAF_OFFSET_EVENTS, BafConfig, baf_filter,
                               cmax_solve, sequential_pipeline)
from evjoint.contrast import hard_map, smooth_map
from evjoint.events import Events, EventWindow, SensorGeometry
from evjoint.joint import ExplicitBaseline, JointConfig, cmax, solve
from evjoint.synth import Dot, MultiEdge, SceneSpec, generate
from evjoint.warp import MotionParams, warp

G = SensorGeometry(64, 64)


def brute_force_baf(window, cfg):
    """O(N^2) neighbor counter on integer pixel coordinates."""
    ev = window.events
    px = np.floor(ev.x).astype(np.int64)
    py = np.floor(ev.y).astype(np.int64)
    t = ev.t
    n = len(ev)
    labels = np.zeros(n, dtype=bool)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        close_x = np.abs(px[lo:hi, None] - px[None, :]) <= cfg.radius
        close_y = np.abs(py[lo:hi, None] - py[None, :]) <= cfg.radius
        close_t = np.abs(t[lo:hi, None] - t[None, :]) <= cfg.dt_max
        near = close_x & close_y & close_t
        near[np.arange(lo, hi) - lo, np.arange(lo, hi)] = False
        labels[lo:hi] = near.sum(axis=1) >= cfg.min_support
    return labels


def _window_from(xs, ys, ts):
    ev = Events(xs, ys, ts, np.ones(len(xs), dtype=np.int8))
    return EventWindow(ev, G, 0.0, max(float(np.max(ts)), 1e-9), 0.0)


class TestBafFilter:
    def test_isolated_event_is_noise(self):
        w = _window_from([10.0], [10.0], [0.1])
        assert not baf_filter(w, BafConfig()).any()

    def test_coincident_pixel_pair_is_signal(self):
        w = _window_from([10.2, 10.7], [10.1, 10.3], [0.100, 0.105])
        assert baf_filter(w, BafConfig()).all()

    def test_pair_outside_time_support_is_noise(self):
        w = _window_from([10.2, 10.7], [10.1, 10.3], [0.100, 0.150])
        assert not baf_filter(w, BafConfig(dt_max=0.010)).any()

    def test_neighbors_count_both_directions_in_time(self):
        # middle event has one past and one future neighbor
        w = _window_from([10.0, 10.4, 10.8], [10.0, 10.0, 10.0], [0.0, 0.008, 0.016])
        labels = baf_filter(w, BafConfig(dt_max=0.010, min_support=2))
        assert labels.tolist() == [False, True, False]

    @pytest.mark.parametrize("seed,min_support,radius", [(0, 1, 1), (1, 2, 1), (2, 1, 2), (3, 3, 2)])
    def test_matches_brute_force(self, seed, min_support, radius):
        rng = np.random.default_rng(seed)
        n = 3000
        ev = Events(
            rng.uniform(0, 64, n), rng.uniform(0, 64, n),
            np.sort(rng.uniform(0, 0.5, n)), rng.choice(np.array([-1, 1], dtype=np.int8), n),
        )
        w = EventWindow(ev, G, 0.0, 0.5, 0.25)
        cfg = BafConfig(dt_max=0.005, radius=radius, min_support=min_support)
        assert np.array_equal(baf_filter(w, cfg), brute_force_baf(w, cfg))

    def test_matches_brute_force_on_synthetic(self):
        spec = SceneSpec(G, MultiEdge(8.0), MotionParams.translation(30.0, -10.0),
                         0.2, noise_rate=0.10)
        window, _, _ = generate(spec, seed=1)
        cfg = BafConfig()
        assert np.array_equal(baf_filter(window, cfg), brute_force_baf(window, cfg))

    @pytest.mark.parametrize("xs, ys", [
        ([1e12, 1e12 + 1.5, -5e9, 3.0], [2.0, 2.0, 7.0, 1e15]),
        ([1e12, 1e12 + 1.5, -1e19, 1e19], [2.0, 2.0, 7.0, 7.0]),
        ([1e12, 1e12 + 1.5, -1e300, 1e300], [2.0, 2.0, 7.0, 7.0]),
        ([1e12, 1e12 + 1.5, -1e308, 1e308], [2.0, 2.0, 7.0, 7.0]),
    ], ids=["billions", "1e19", "1e300", "1e308"])
    def test_far_apart_pixels_are_exact(self, xs, ys):
        # pixels billions apart, or beyond +-2^63 where an int64 cast is
        # undefined, and a pair one pixel apart far off the sensor
        w = _window_from(xs, ys, [0.0, 0.001, 0.002, 0.003])
        assert baf_filter(w, BafConfig()).tolist() == [True, True, False, False]

    def test_key_overflow_rejected(self):
        # ~900k events on distinct, widely spaced pixels would overflow the
        # int64 keys at radius 3; the filter refuses instead of miscounting
        n = 900_000
        coords = np.arange(n) * 10.0
        ev = Events(coords, coords, np.zeros(n), np.ones(n, dtype=np.int8))
        w = EventWindow(ev, G, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="int64"):
            baf_filter(w, BafConfig(radius=3))

    def test_radius_past_the_pixel_spread_is_exact(self):
        # r is cut to the 64x64 window's pixel spread before the loop
        rng = np.random.default_rng(4)
        n = 150
        w = _window_from(rng.uniform(0, 64, n), rng.uniform(0, 64, n),
                         np.sort(rng.uniform(0, 0.05, n)))
        for radius in (40, 3000):
            cfg = BafConfig(dt_max=0.0003, radius=radius, min_support=2)
            assert np.array_equal(baf_filter(w, cfg), brute_force_baf(w, cfg))

    def test_work_bound_rejected_before_the_loop(self):
        # two events 10^6 px apart: the spread does not cut r = 5000, and
        # (2r + 1)^2 (n + BAF_OFFSET_EVENTS) is far past the bound
        w = _window_from([0.5, 1e6], [0.5, 0.5], [0.0, 0.001])
        assert 10001**2 * (2 + BAF_OFFSET_EVENTS) > BAF_MAX_WORK
        with pytest.raises(ValueError, match="work bound"):
            baf_filter(w, BafConfig(radius=5000))
        assert baf_filter(w, BafConfig(radius=10)).tolist() == [False, False]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BafConfig(dt_max=0.0)
        with pytest.raises(ValueError):
            BafConfig(radius=0)
        with pytest.raises(ValueError):
            BafConfig(min_support=0)


def interval_oracle(window, cfg):
    """O(N^2) count with the filter's own interval t - dt_max <= t_j <= t + dt_max."""
    ev = window.events
    px, py, t = np.floor(ev.x), np.floor(ev.y), ev.t
    near = ((np.abs(px[:, None] - px[None, :]) <= cfg.radius)
            & (np.abs(py[:, None] - py[None, :]) <= cfg.radius)
            & (t[:, None] - cfg.dt_max <= t[None, :])
            & (t[None, :] <= t[:, None] + cfg.dt_max))
    np.fill_diagonal(near, False)
    return near.sum(axis=1) >= cfg.min_support


# pixels of a 5x4 sensor, border pixels included; a fraction inside the pixel
_PIXEL_X = st.integers(0, 4).flatmap(lambda i: st.sampled_from([i, i + 0.5, i + 0.999]))
_PIXEL_Y = st.integers(0, 3).flatmap(lambda i: st.sampled_from([i, i + 0.25, i + 0.999]))


@settings(max_examples=150, deadline=None)
@given(events=st.lists(st.tuples(_PIXEL_X, _PIXEL_Y, st.integers(0, 40)), max_size=60),
       dt_ms=st.sampled_from([1, 2, 3, 5]), radius=st.integers(1, 3),
       min_support=st.integers(1, 3))
def test_baf_matches_interval_oracle(events, dt_ms, radius, min_support):
    xs, ys, ks = (np.array(c, dtype=float) for c in zip(*events)) if events else ([], [], [])
    t = np.sort(np.asarray(ks) * 0.001)  # a 1 ms grid: exact ties
    ev = Events(xs, ys, t, np.ones(len(t), dtype=np.int8))
    w = EventWindow(ev, SensorGeometry(5, 4), 0.0, 0.04, 0.02)
    cfg = BafConfig(dt_max=dt_ms * 0.001, radius=radius, min_support=min_support)
    assert np.array_equal(baf_filter(w, cfg), interval_oracle(w, cfg))


class TestCmax:
    def test_recovers_collapsing_motion(self):
        spec = SceneSpec(G, MultiEdge(8.0), MotionParams.translation(30.0, -10.0), 0.1)
        window, _, theta_gt = generate(spec, seed=0)
        theta = cmax_solve(window, "translation2d", JointConfig())
        err = np.linalg.norm(theta.values - theta_gt.values) / np.linalg.norm(theta_gt.values)
        assert err < 0.05

    def test_pure_noise_finds_no_structure(self):
        # On structureless input the only variance the solver can harvest is
        # the border effect of pushing events off the frame, at a local
        # optimum the ascent settles in; genuine structure yields gains an
        # order of magnitude larger.
        rng = np.random.default_rng(8)
        n = 2000
        ev = Events(rng.uniform(0, 64, n), rng.uniform(0, 64, n),
                    np.sort(rng.uniform(0, 0.1, n)),
                    rng.choice(np.array([-1, 1], dtype=np.int8), n))
        w = EventWindow(ev, G, 0.0, 0.1, 0.05)
        cfg = JointConfig()
        res = cmax(w, "translation2d", cfg)
        f0 = np.var(smooth_map(w.positions, G).values)
        f1 = np.var(smooth_map(warp(w, res.theta), G).values)
        noise_gain = f1 / f0 - 1.0
        assert noise_gain < 0.25
        assert res.stop_reason == "settled" and res.warm_iterations < cfg.iterations

        spec = SceneSpec(G, Dot((20.0, 30.0), 6.0), MotionParams.translation(40.0, 20.0), 0.3)
        window, _, _ = generate(spec, seed=0)
        th = cmax_solve(window, "translation2d", cfg)
        s0 = np.var(smooth_map(window.positions, G).values)
        s1 = np.var(smooth_map(warp(window, th), G).values)
        assert s1 / s0 - 1.0 > 4.0 * noise_gain  # structure dwarfs the noise gain

    def test_zero_event_window(self):
        w = EventWindow(Events.empty(), G, 0.0, 0.1, 0.05)
        theta = cmax_solve(w, "translation2d", JointConfig())
        assert np.array_equal(theta.values, [0.0, 0.0])

    def test_rotation_model_recovery(self):
        # sparse constellation of scene points observed many times while
        # rotating about the image center
        rng = np.random.default_rng(5)
        omega_true = 3.0
        center = np.array([(64 - 1) / 2.0, (64 - 1) / 2.0])
        radii = rng.uniform(8, 20, 25)
        phis = rng.uniform(0, 2 * np.pi, 25)
        pts = center + np.stack([radii * np.cos(phis), radii * np.sin(phis)], axis=1)
        base = np.repeat(pts, 30, axis=0)
        t = np.sort(rng.uniform(0, 0.2, base.shape[0]))
        ang = omega_true * (t - 0.1)
        c, s = np.cos(ang), np.sin(ang)
        rel = base - center
        x = center[0] + c * rel[:, 0] - s * rel[:, 1]
        y = center[1] + s * rel[:, 0] + c * rel[:, 1]
        ev = Events(x, y, t, np.ones(base.shape[0], dtype=np.int8))
        w = EventWindow(ev, G, 0.0, 0.2, 0.1)
        theta = cmax_solve(w, "rotation_inplane", JointConfig())
        assert theta.values[0] == pytest.approx(-omega_true, rel=0.10)


class TestSequential:
    def test_noise_free_keeps_everything(self):
        spec = SceneSpec(G, MultiEdge(8.0), MotionParams.translation(30.0, -10.0), 0.1)
        window, _, theta_gt = generate(spec, seed=0)
        res = sequential_pipeline(window, BafConfig(), JointConfig())
        assert res.labels.all()
        direct = cmax_solve(window, "translation2d", JointConfig())
        assert np.allclose(res.theta.values, direct.values, atol=1e-12)

    def test_pure_noise_degenerates_to_zero(self):
        rng = np.random.default_rng(9)
        n = 60
        ev = Events(rng.uniform(0, 64, n), rng.uniform(0, 64, n),
                    np.sort(rng.uniform(0, 1.0, n)),
                    rng.choice(np.array([-1, 1], dtype=np.int8), n))
        w = EventWindow(ev, G, 0.0, 1.0, 0.5)
        strict = BafConfig(dt_max=0.001, radius=1, min_support=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a degenerate window raises no warning
            res = sequential_pipeline(w, strict, JointConfig())
        assert res.labels.sum() < 10
        assert np.array_equal(res.theta.values, [0.0, 0.0])

    def test_confidence_is_kept_mask(self):
        w = _window_from([5.2, 5.4, 40.0], [5.1, 5.2, 40.0], [0.0, 0.001, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sequential_pipeline(w, BafConfig(), JointConfig())
        wts = res.weights
        assert wts[5, 5] == 1.0
        assert wts[40, 40] == 0.0
        assert set(np.unique(wts)) == {0.0, 1.0}

    def test_confidence_mask_in_the_warped_frame(self):
        # the kept-pixel mask is built where the sidecar samples it: at the
        # kept events warped by the estimated motion
        spec = SceneSpec(G, Dot((24.0, 30.0), 6.0), MotionParams.translation(30.0, 12.0),
                         0.25, noise_rate=0.08)
        window, _, _ = generate(spec, seed=13)
        res = sequential_pipeline(window, BafConfig(), JointConfig(iterations=60))
        assert np.linalg.norm(res.theta.values) > 10.0
        expected = hard_map(warp(window, res.theta)[res.labels], G).values > 0
        raw = hard_map(window.positions[res.labels], G).values > 0
        assert not np.array_equal(expected, raw)
        assert np.array_equal(res.weights, expected)

    def test_drifting_sparse_dot_loses_signal(self):
        spec = SceneSpec(G, Dot((16.0, 32.0), 4.0), MotionParams.translation(20.0, 5.0),
                         0.3, noise_rate=0.05)
        window, truth, _ = generate(spec, seed=0)
        res = sequential_pipeline(window, BafConfig(), JointConfig())
        from evjoint.metrics import confusion

        c = confusion(res.labels, truth)
        assert c.sensitivity < 1.0


def test_joint_with_ea_only_setting_matches_cmax_trajectory():
    spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                     MotionParams.translation(30.0, 10.0), 0.15)
    window, _, _ = generate(spec, seed=0)
    for iters in (5, 25, 60):
        cfg = JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1e12),
                          iterations=iters)
        joint_theta = solve(window, cfg).theta
        cmax_theta = cmax_solve(window, "translation2d",
                                JointConfig(iterations=iters))
        assert np.linalg.norm(joint_theta.values - cmax_theta.values) < 1e-9
