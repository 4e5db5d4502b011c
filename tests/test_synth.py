import numpy as np
import pytest

from evjoint.contrast import hard_map, map_variance
from evjoint.events import SensorGeometry
from evjoint.synth import Dot, MultiEdge, SceneSpec, VerticalEdge, generate
from evjoint.warp import MotionParams, warp

G64 = SensorGeometry(64, 64)

# chi-square critical value, 15 degrees of freedom, p = 0.001
CHI2_CRIT_DF15 = 37.697


def test_vertical_edge_events_on_locus():
    spec = SceneSpec(G64, VerticalEdge(10.0), MotionParams.translation(20.0, 0.0), 0.5)
    window, labels, theta_gt = generate(spec, seed=0)
    assert labels.all()
    locus = 10.0 + 20.0 * window.events.t
    assert np.all(np.abs(window.events.x - locus) < 1.0)
    assert np.allclose(theta_gt.values, [-20.0, 0.0])


def test_dot_events_on_boundary():
    spec = SceneSpec(G64, Dot((20.0, 30.0), 5.0), MotionParams.translation(30.0, -12.0), 0.4)
    window, labels, _ = generate(spec, seed=0)
    assert labels.all()
    cx = 20.0 + 30.0 * window.events.t
    cy = 30.0 - 12.0 * window.events.t
    dist = np.hypot(window.events.x - cx, window.events.y - cy)
    assert np.all(np.abs(dist - 5.0) < 1.0)


def test_multi_edge_has_both_polarities():
    spec = SceneSpec(G64, MultiEdge(8.0), MotionParams.translation(25.0, 10.0), 0.2)
    window, _, _ = generate(spec, seed=0)
    assert set(np.unique(window.events.p)) == {-1, 1}


@pytest.mark.parametrize("rate", [0.01, 0.05, 0.10, 0.25])
def test_noise_count_is_deterministic_proportion(rate):
    spec = SceneSpec(G64, MultiEdge(8.0), MotionParams.translation(25.0, 10.0), 0.2,
                     noise_rate=rate)
    window, labels, _ = generate(spec, seed=3)
    n_noise = int((~labels).sum())
    assert n_noise == round(rate * len(window))


def test_determinism():
    spec = SceneSpec(G64, Dot((20.0, 30.0), 5.0), MotionParams.translation(30.0, -12.0),
                     0.4, noise_rate=0.2)
    w1, l1, _ = generate(spec, seed=11)
    w2, l2, _ = generate(spec, seed=11)
    assert w1.events == w2.events
    assert np.array_equal(l1, l2)
    w3, _, _ = generate(spec, seed=12)
    assert w1.events != w3.events


def test_pattern_outside_sensor_raises():
    spec = SceneSpec(G64, VerticalEdge(-500.0), MotionParams.translation(-10.0, 0.0), 0.1)
    with pytest.raises(ValueError, match="no events"):
        generate(spec, seed=0)


def test_contrast_threshold_gates_events():
    spec = SceneSpec(G64, VerticalEdge(10.0), MotionParams.translation(20.0, 0.0), 0.5,
                     contrast=1.5)
    with pytest.raises(ValueError, match="no events"):
        generate(spec, seed=0)


def test_collapsing_warp_raises_hard_map_variance():
    spec = SceneSpec(G64, MultiEdge(8.0), MotionParams.translation(30.0, -10.0), 0.1)
    window, _, theta_gt = generate(spec, seed=0)
    raw_var = map_variance(hard_map(window.positions, G64))
    warped = warp(window, theta_gt)
    aligned_var = map_variance(hard_map(warped, G64))
    assert aligned_var > raw_var


def test_noise_positions_uniform_chi_square():
    geometry = SensorGeometry(64, 256)
    spec = SceneSpec(geometry, VerticalEdge(5.0), MotionParams.translation(60.0, 0.0),
                     0.7, noise_rate=0.5)
    window, labels, _ = generate(spec, seed=5)
    noise = window.events.take(~labels)
    assert len(noise) >= 10000
    counts, _, _ = np.histogram2d(
        noise.x, noise.y, bins=4, range=[[0, geometry.width], [0, geometry.height]]
    )
    expected = len(noise) / 16.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF15


def test_window_metadata():
    spec = SceneSpec(G64, VerticalEdge(10.0), MotionParams.translation(20.0, 0.0), 0.5)
    window, _, _ = generate(spec, seed=0)
    assert window.t_start == 0.0
    assert window.t_end == 0.5
    assert window.t_ref == 0.25
    assert window.events.is_time_sorted()


def test_rotation_motion_rejected():
    with pytest.raises(ValueError, match="translation"):
        SceneSpec(G64, VerticalEdge(1.0), MotionParams.rotation(1.0), 0.1)


def test_noise_rate_validation():
    with pytest.raises(ValueError):
        SceneSpec(G64, VerticalEdge(1.0), MotionParams.translation(1.0, 0.0), 0.1,
                  noise_rate=1.0)
