import math
import re

import numpy as np
import pytest

from evjoint.contrast import hard_map
from evjoint.events import Events, SensorGeometry
from evjoint.synth import (MAX_AXIS_CROSSINGS, Dot, MultiEdge, SceneSpec, VerticalEdge,
                           _pattern_emitters, _signal_events, generate)
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
    raw_var = np.var(hard_map(window.positions, G64).values)
    warped = warp(window, theta_gt)
    aligned_var = np.var(hard_map(warped, G64).values)
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


def test_duration_must_be_finite():
    with pytest.raises(ValueError, match="duration"):
        SceneSpec(G64, VerticalEdge(1.0), MotionParams.translation(1.0, 0.0), math.inf)


@pytest.mark.parametrize("geometry", [G64, SensorGeometry(33, 17), SensorGeometry(5, 300)],
                         ids=["64x64", "33x17", "5x300"])
@pytest.mark.parametrize("pattern", [VerticalEdge(-3.7), MultiEdge(0.7), MultiEdge(6.5),
                                     MultiEdge(31.9), MultiEdge(100.0)], ids=repr)
def test_line_emitters_match_loop_reference(geometry, pattern):
    # loop reference: line by line, vertical lines first, one emitter per
    # pixel center along each, polarity +1, -1, ... by line
    if isinstance(pattern, VerticalEdge):
        families = [(np.array([pattern.x0]), geometry.height, False)]
    else:
        families = [(np.arange(pattern.spacing / 2.0, across, pattern.spacing), along, flip)
                    for across, along, flip in ((geometry.width, geometry.height, False),
                                                (geometry.height, geometry.width, True))]
    pts, pol = [np.empty((0, 2))], [np.empty(0, dtype=np.int8)]
    for lines, along, flip in families:
        for k, line in enumerate(lines):
            ys = np.arange(along) + 0.5
            pair = np.stack([np.full_like(ys, line), ys], axis=1)
            pts.append(pair[:, ::-1] if flip else pair)
            pol.append(np.full(along, 1 if k % 2 == 0 else -1, dtype=np.int8))
    spec = SceneSpec(geometry, pattern, MotionParams.translation(1.0, 0.0), 0.1)
    got_pts, got_pol = _pattern_emitters(spec)
    assert got_pts.tobytes() == np.concatenate(pts).tobytes()
    assert got_pol.dtype == np.int8 and got_pol.tobytes() == np.concatenate(pol).tobytes()


@pytest.mark.parametrize("pattern,emitters", [
    (Dot((32.0, 32.0), 1e12), "6.28e+12"), (Dot((32.0, 32.0), 1e308), "inf"),
    (MultiEdge(1e-7), "8.19e+10"), (MultiEdge(5e-324), "inf"),
])
def test_too_many_emitters_rejected(pattern, emitters):
    with pytest.raises(ValueError, match=re.escape(f"has {emitters} emitters, above the limit")):
        SceneSpec(G64, pattern, MotionParams.translation(1.0, 0.0), 0.1)


def test_emitter_bound_is_inclusive():
    # a dot of exactly MAX_AXIS_CROSSINGS boundary emitters is accepted
    radius = MAX_AXIS_CROSSINGS / (2 * math.pi)
    assert round(2 * math.pi * radius) == MAX_AXIS_CROSSINGS
    SceneSpec(G64, Dot((0.0, 0.0), radius), MotionParams.translation(1.0, 0.0), 0.1)
    with pytest.raises(ValueError, match="emitters"):
        SceneSpec(G64, Dot((0.0, 0.0), radius + 1.0), MotionParams.translation(1.0, 0.0), 0.1)


@pytest.mark.parametrize("make", [
    lambda: VerticalEdge(math.inf), lambda: VerticalEdge(math.nan),
    lambda: Dot((math.inf, 3.0), 2.0), lambda: Dot((3.0, math.nan), 2.0),
    lambda: Dot((3.0, 3.0), math.inf), lambda: MultiEdge(math.inf), lambda: MultiEdge(math.nan),
])
def test_non_finite_pattern_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def _reference_axis_crossings(q0: float, v: float, duration: float) -> np.ndarray:
    """Scalar reference: times in (0, duration] at which q0 + v t crosses an integer."""
    if v == 0.0:
        return np.empty(0)
    q1 = q0 + v * duration
    if v > 0.0:
        first = math.floor(q0) + 1
        last = math.floor(q1)
    else:
        first = math.ceil(q1)
        last = math.ceil(q0) - 1
    if last < first:
        return np.empty(0)
    lattice = np.arange(first, last + 1, dtype=np.float64)
    times = (lattice - q0) / v
    return times[(times > 0.0) & (times <= duration)]


def _reference_signal_events(spec: SceneSpec) -> Events:
    """Scalar reference: one emitter at a time, x crossings before y crossings."""
    g = spec.geometry
    vx, vy = spec.motion.values
    emitters, pol = _pattern_emitters(spec)
    xs, ys, ts, ps = [], [], [], []
    for (qx, qy), p in zip(emitters, pol):
        times = np.concatenate([_reference_axis_crossings(qx, vx, spec.duration),
                                _reference_axis_crossings(qy, vy, spec.duration)])
        ex = qx + vx * times
        ey = qy + vy * times
        inside = (ex >= 0.0) & (ex < g.width) & (ey >= 0.0) & (ey < g.height)
        xs.append(ex[inside])
        ys.append(ey[inside])
        ts.append(times[inside])
        ps.append(np.full(int(inside.sum()), p, dtype=np.int8))
    return Events(np.concatenate(xs), np.concatenate(ys), np.concatenate(ts),
                  np.concatenate(ps), validate=False)


@pytest.mark.parametrize("geometry", [G64, SensorGeometry(33, 17)], ids=["64x64", "33x17"])
@pytest.mark.parametrize("duration", [0.05, 0.2])
@pytest.mark.parametrize("velocity", [(0.0, 0.0), (0.0, -15.0), (-30.0, 10.0), (-0.3, 0.7),
                                      (60.0, -20.0)])
@pytest.mark.parametrize("pattern", [
    VerticalEdge(10.0), VerticalEdge(3.7),
    Dot((12.0, 8.0), 1.5), Dot((16.5, 8.25), 4.0), Dot((20.0, 10.0), 9.0),
    MultiEdge(4.0), MultiEdge(6.5), MultiEdge(8.0),
], ids=repr)
def test_signal_events_match_scalar_reference(geometry, duration, velocity, pattern):
    spec = SceneSpec(geometry, pattern, MotionParams.translation(*velocity), duration)
    got = _signal_events(spec)
    want = _reference_signal_events(spec)
    for name in ("x", "y", "t", "p"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
