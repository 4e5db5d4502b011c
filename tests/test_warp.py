import numpy as np
import pytest

from evjoint.events import Events, EventWindow, SensorGeometry
from evjoint.warp import MotionParams, _rotation_center, warp, warp_positions, warp_pullback

G = SensorGeometry(16, 16)


def _window(xs, ys, ts, t_ref=0.5, t_end=1.0, geometry=G):
    ev = Events(xs, ys, ts, np.ones(len(xs), dtype=np.int8))
    return EventWindow(ev, geometry, 0.0, t_end, t_ref)


def _random_window(rng, n=80):
    return _window(
        rng.uniform(0, 16, n), rng.uniform(0, 16, n), np.sort(rng.uniform(0, 1, n))
    )


def _pullback(w, theta, dpos):
    return warp_pullback(dpos, w.positions, w.times - w.t_ref, theta, _rotation_center(w))


def _assert_pullback_matches_central_differences(w, theta, rng, h=1e-5):
    # the pullback of a random dpos is the gradient of sum_k dpos_k . x'_k
    dpos = rng.normal(size=(len(w), 2))
    got = _pullback(w, theta, dpos)
    assert got.shape == theta.values.shape
    for p in range(theta.dim):
        step = np.zeros(theta.dim)
        step[p] = h
        plus = warp(w, MotionParams(theta.model, theta.values + step))
        minus = warp(w, MotionParams(theta.model, theta.values - step))
        fd = np.sum(dpos * (plus - minus)) / (2 * h)
        assert got[p] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestMotionParams:
    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            MotionParams("translation2d", np.array([1.0]))
        with pytest.raises(ValueError):
            MotionParams("rotation_inplane", np.array([1.0, 2.0]))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            MotionParams("affine", np.zeros(6))

    def test_finite_required(self):
        with pytest.raises(ValueError):
            MotionParams.translation(np.inf, 0.0)


class TestTranslation:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(0)
        w = _random_window(rng)
        out = warp(w, MotionParams.translation(0.0, 0.0))
        assert np.array_equal(out, w.positions)

    def test_single_event_formula(self):
        w = _window([5.0], [5.0], [1.0])
        out = warp(w, MotionParams.translation(2.0, 0.0))
        assert out[0] == pytest.approx([6.0, 5.0])

    def test_composition_equivalence(self):
        rng = np.random.default_rng(1)
        w = _random_window(rng)
        t1 = MotionParams.translation(3.0, -2.0)
        t2 = MotionParams.translation(-1.0, 5.0)
        combined = MotionParams.translation(2.0, 3.0)
        dt = w.times - w.t_ref
        step = warp(w, t1) + dt[:, None] * t2.values[None, :]
        assert np.allclose(step, warp(w, combined), atol=1e-12)

    def test_pullback_values(self):
        # dt = (-0.5, 0, 0.25): sum_k dt_k dpos_k = (-0.5 * 5 + 0.25 * 3, -0.5 * 6 + 0.25 * 4)
        w = _window([7.0, 1.0, 2.0], [9.0, 3.0, 4.0], [0.0, 0.5, 0.75])
        dpos = np.array([[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]])
        got = _pullback(w, MotionParams.translation(1.0, 1.0), dpos)
        assert got.tolist() == [-1.75, -2.0]


class TestRotation:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(2)
        w = _random_window(rng)
        out = warp(w, MotionParams.rotation(0.0))
        assert np.array_equal(out, w.positions)

    def test_half_turn(self):
        cx = cy = (16 - 1) / 2.0
        w = _window([cx + 1.0], [cy], [1.5], t_ref=0.5, t_end=2.0)
        out = warp(w, MotionParams.rotation(np.pi))
        assert out[0] == pytest.approx([cx - 1.0, cy], abs=1e-12)

    def test_warp_without_center_is_a_value_error(self):
        w = _random_window(np.random.default_rng(5))
        with pytest.raises(ValueError, match="rotation center"):
            warp_positions(w.positions, w.times - w.t_ref, MotionParams.rotation(0.3))

    def test_pullback_without_center_is_a_value_error(self):
        w = _random_window(np.random.default_rng(5))
        with pytest.raises(ValueError, match="rotation center"):
            warp_pullback(np.ones((len(w), 2)), w.positions, w.times - w.t_ref,
                          MotionParams.rotation(0.3))

    @pytest.mark.parametrize("seed", range(4))
    def test_pullback_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        w = _random_window(rng, n=40)
        theta = MotionParams.rotation(float(rng.uniform(-4, 4)))
        _assert_pullback_matches_central_differences(w, theta, rng)


def test_translation_pullback_matches_central_differences():
    rng = np.random.default_rng(9)
    w = _random_window(rng, n=40)
    theta = MotionParams.translation(*rng.uniform(-20, 20, 2))
    _assert_pullback_matches_central_differences(w, theta, rng)


def test_warped_events_parallel_to_source():
    rng = np.random.default_rng(3)
    w = _random_window(rng)
    out = warp(w, MotionParams.translation(100.0, 100.0))
    assert out.shape == (len(w), 2)
    # positions may leave the sensor and are kept as-is
    assert out[:, 0].max() > 16


@pytest.mark.parametrize("theta", [MotionParams.translation(3.0, -7.5),
                                   MotionParams.rotation(0.8)])
def test_warp_positions_into_a_given_buffer(theta):
    w = _random_window(np.random.default_rng(6))
    args = (w.positions, w.times - w.t_ref, theta, _rotation_center(w))
    buf = np.full((len(w), 2), np.nan)
    assert warp_positions(*args, buf) is buf
    assert buf.tobytes() == warp_positions(*args).tobytes() == warp(w, theta).tobytes()


@pytest.mark.parametrize("theta", [MotionParams.translation(0.0, 0.0), MotionParams.rotation(0.0)])
def test_zero_motion_is_the_identity(theta):
    # events pinned about 40 px off a 24 x 20 sensor, far from the rotation
    # center, where re-centring a position, center + (x - center), rounds
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 24, 150), rng.uniform(0, 20, 150)
    x[:40:2] = -40.0 - rng.uniform(0, 5, 20)
    y[1:40:2] = 50.0 + rng.uniform(0, 5, 20)
    w = _window(x, y, np.sort(rng.uniform(0, 0.1, 150)), t_ref=0.05, t_end=0.1,
                geometry=SensorGeometry(24, 20))
    assert warp(w, theta).tobytes() == w.positions.tobytes()
