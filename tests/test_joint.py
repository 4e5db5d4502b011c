import dataclasses
import math
import resource
import tracemalloc

import numpy as np
import pytest

import evjoint.contrast as contrast
import evjoint.joint as joint
from evjoint.baselines import cmax_solve
from evjoint.contrast import ConfidenceMap, sigmoid, smooth_map
from evjoint.events import Events, EventWindow, FixedDuration, SensorGeometry, window_stream
from evjoint.joint import (
    KAPPA_DEFAULT,
    AdamState,
    ExplicitBaseline,
    JointConfig,
    WarmStartScaled,
    _descend,
    _evaluate,
    _resolve_alpha,
    adam_step,
    interpolate_confidence,
    objective,
    objective_gradients,
    solve,
)
from evjoint.synth import Dot, MultiEdge, SceneSpec, generate
from evjoint.warp import MotionParams, warp

from conftest import random_window

G16 = SensorGeometry(16, 16)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        # adam_step updates params in place: compare with a copy
        out, state = adam_step(params.copy(), np.zeros(2), AdamState.zeros_like(params), lr=0.1)
        assert np.array_equal(out, params)
        assert state.step == 1

    def test_first_step_hand_value(self):
        # bias-corrected first step with g = 1: delta = -lr / (1 + eps)
        params = np.array([0.0])
        lr, eps = 0.05, 1e-8
        out, _ = adam_step(params, np.array([1.0]), AdamState.zeros_like(params), lr=lr)
        assert out[0] == pytest.approx(-lr / (1.0 + eps), abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e5])
    def test_step_magnitude_bounded_for_steady_gradients(self, scale):
        # constant-sign gradients: per-step movement never exceeds lr,
        # whatever the gradient magnitude
        params = np.zeros(3)
        state = AdamState.zeros_like(params)
        lr = 0.03
        for _ in range(50):
            # adam_step updates params in place: step a copy
            new, state = adam_step(params.copy(), np.full(3, scale), state, lr=lr)
            assert np.all(np.abs(new - params) <= lr * (1.0 + 1e-9))
            params = new

    def test_gradient_scale_invariance(self):
        # scaling all gradients by a constant leaves the trajectory unchanged
        # up to the eps floor
        grads = [np.array([0.3, -1.2]), np.array([0.8, 0.4]), np.array([-0.2, 0.1])]
        p1 = np.zeros(2)
        p2 = np.zeros(2)
        s1 = AdamState.zeros_like(p1)
        s2 = AdamState.zeros_like(p2)
        for g in grads:
            p1, s1 = adam_step(p1, g, s1, lr=0.1)
            p2, s2 = adam_step(p2, 100.0 * g, s2, lr=0.1)
        assert np.allclose(p1, p2, atol=1e-6)

    def test_state_built_from_moments_steps_like_zeros_like(self):
        # AdamState(m, v) allocates its own scratch arrays
        params, g = np.array([0.5, -1.0, 2.0]), np.array([0.3, -0.2, 0.0])
        got, state = adam_step(params.copy(), g, AdamState(np.zeros(3), np.zeros(3)), lr=0.1)
        want, _ = adam_step(params.copy(), g, AdamState.zeros_like(params), lr=0.1)
        assert got.tobytes() == want.tobytes() and state.step == 1

    @pytest.mark.parametrize("grad", [np.nan, np.inf, -1e200])
    def test_nonfinite_gradient_rejected(self, grad):
        # 1e200 is finite, but its square would overflow the second moment to
        # inf, and every step would then be lr * m_hat / inf = 0
        with pytest.raises(ValueError, match="adam_step"):
            adam_step(np.zeros(1), np.array([grad]), AdamState.zeros_like(np.zeros(1)), 0.1)

    def test_matches_out_of_place_update_bitwise(self):
        # the in-place update keeps every operation of the textbook form
        rng = np.random.default_rng(5)
        params = rng.normal(size=(4, 3))
        m, v = np.zeros_like(params), np.zeros_like(params)
        state = AdamState.zeros_like(params)
        for step in range(1, 6):
            g = rng.normal(size=params.shape) * 10.0 ** rng.integers(-3, 3)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat, v_hat = m / (1.0 - 0.9 ** step), v / (1.0 - 0.999 ** step)
            want = params - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            got, state = adam_step(params, g, state, lr=0.05)
            assert got is params and state.step == step
            assert got.tobytes() == want.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            JointConfig(tau=0.0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            JointConfig(alpha=-1.0)

    @pytest.mark.parametrize("weight", ["alpha", "beta"])
    def test_infinite_weight(self, weight):
        with pytest.raises(ValueError, match=f"{weight} .*got inf"):
            JointConfig(**{weight: math.inf})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_explicit_baseline(self, value):
        with pytest.raises(ValueError, match=f"b_ea .*got {value}"):
            ExplicitBaseline(value)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e300, 1000.0])
    def test_unusable_sigma(self, sigma):
        # a sigma whose splat workspace exceeds the bound on any sensor is
        # rejected with the config, before a window is splatted
        with pytest.raises(ValueError, match="sigma"):
            JointConfig(sigma=sigma)


class TestObjective:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.window = random_window(self.rng)

    def test_parts_recombine_exactly(self):
        cfg = JointConfig(alpha=3e-3, beta=2e-2, b_ea=ExplicitBaseline(0.7))
        conf = ConfidenceMap(self.rng.normal(size=G16.shape))
        parts = objective(self.window, MotionParams.translation(3.0, -1.0), conf, cfg)
        assert parts.total == parts.worst_regret + cfg.alpha * parts.l1 + cfg.beta * parts.fidelity
        assert parts.worst_regret == max(parts.r_ea, parts.r_ed)

    def test_saturated_weights_make_f_ed_equal_f_ea(self):
        cfg = JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1.0))
        conf = ConfidenceMap(np.full(G16.shape, 30.0))
        parts = objective(self.window, MotionParams.translation(1.0, 2.0), conf, cfg)
        assert parts.f_ed == pytest.approx(parts.f_ea, abs=1e-10)

    def test_r_ed_zero_at_identity_with_unit_weights(self):
        cfg = JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1.0))
        conf = ConfidenceMap(np.full(G16.shape, 30.0))
        parts = objective(self.window, MotionParams.translation(0.0, 0.0), conf, cfg)
        assert abs(parts.r_ed) < 1e-10

    def test_half_weights_quarter_f_ea(self):
        cfg = JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1.0))
        conf = ConfidenceMap.zeros(G16)
        theta = MotionParams.translation(*self.rng.uniform(-10, 10, 2))
        parts = objective(self.window, theta, conf, cfg)
        assert parts.f_ed == pytest.approx(0.25 * parts.f_ea, rel=1e-12)

    def test_baseline_substitution(self):
        # with b_ea set to the achieved f_ea and saturated weights:
        # r_ea = 0, f_ed = f_ea, total = max(0, f_ea - b_ed) + alpha * l1
        conf = ConfidenceMap(np.full(G16.shape, 30.0))
        theta = MotionParams.translation(2.0, 1.0)
        probe = objective(self.window, theta, conf,
                          JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(0.0)))
        cfg = JointConfig(alpha=1e-3, beta=0.0, b_ea=ExplicitBaseline(probe.f_ea))
        parts = objective(self.window, theta, conf, cfg)
        assert parts.r_ea == pytest.approx(0.0, abs=1e-12)
        assert parts.f_ed == pytest.approx(parts.f_ea, abs=1e-10)
        assert parts.l1 == pytest.approx(G16.npixels, rel=1e-10)
        assert parts.total == pytest.approx(max(0.0, parts.r_ed) + 1e-3 * parts.l1, rel=1e-9)

    def test_empty_window_values(self):
        empty = EventWindow(Events.empty(), G16, 0.0, 1.0, 0.5)
        cfg = JointConfig(alpha=2e-3, beta=1e-2, b_ea=ExplicitBaseline(0.3))
        conf = ConfidenceMap.zeros(G16)
        parts = objective(empty, MotionParams.translation(0.0, 0.0), conf, cfg)
        assert parts.f_ea == 0.0
        assert parts.f_ed == 0.0
        assert parts.total == pytest.approx(max(0.3, 0.0) + 2e-3 * parts.l1)

    def test_warmstart_baseline_rejected(self):
        cfg = JointConfig(b_ea=WarmStartScaled(1.1))
        with pytest.raises(ValueError, match="explicit"):
            objective(self.window, MotionParams.translation(0.0, 0.0),
                      ConfidenceMap.zeros(G16), cfg)


class TestObjectiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.window = random_window(self.rng)

    def _fd_check(self, cfg, theta, logits, tol=1e-3):
        conf = ConfidenceMap(logits)
        dtheta, dlogits = objective_gradients(self.window, theta, conf, cfg)

        def total(th, lg):
            return objective(self.window, MotionParams(theta.model, th),
                             ConfidenceMap(lg), cfg).total

        h = 1e-4
        fd_theta = np.zeros_like(dtheta)
        for p in range(theta.dim):
            tp = theta.values.copy()
            tp[p] += h
            tm = theta.values.copy()
            tm[p] -= h
            fd_theta[p] = (total(tp, logits) - total(tm, logits)) / (2 * h)
        denom = max(np.linalg.norm(fd_theta), np.linalg.norm(dtheta), 1e-12)
        assert np.linalg.norm(fd_theta - dtheta) / denom < tol
        idx = [tuple(self.rng.integers(0, 16, 2)) for _ in range(8)]
        for i, j in idx:
            lp = logits.copy()
            lp[i, j] += h
            lm = logits.copy()
            lm[i, j] -= h
            fd = (total(theta.values, lp) - total(theta.values, lm)) / (2 * h)
            denom = max(abs(fd), abs(dlogits[i, j]), 1e-12)
            assert abs(fd - dlogits[i, j]) / denom < tol

    def test_matches_fd_ea_branch(self):
        cfg = JointConfig(alpha=2e-3, beta=1e-2, b_ea=ExplicitBaseline(100.0))
        self._fd_check(cfg, MotionParams.translation(4.0, -6.0),
                       self.rng.normal(size=G16.shape))

    def test_matches_fd_ed_branch(self):
        cfg = JointConfig(alpha=2e-3, beta=1e-2, b_ea=ExplicitBaseline(-100.0))
        self._fd_check(cfg, MotionParams.translation(-3.0, 5.0),
                       self.rng.normal(size=G16.shape))

    def test_matches_fd_rotation_model(self):
        cfg = JointConfig(alpha=1e-3, beta=5e-3, b_ea=ExplicitBaseline(50.0))
        self._fd_check(cfg, MotionParams.rotation(2.0), self.rng.normal(size=G16.shape))

    def test_inactive_branch_has_no_logit_term(self):
        # r_ea strictly active: the regret contributes nothing to d/dlogits
        logits = self.rng.normal(size=G16.shape)
        theta = MotionParams.translation(1.0, 1.0)
        cfg_on = JointConfig(alpha=1e-3, beta=2e-2, b_ea=ExplicitBaseline(1e6))
        _, dlog = objective_gradients(self.window, theta, ConfidenceMap(logits), cfg_on)
        wts = sigmoid(logits)
        m = smooth_map(warp(self.window, theta), G16).values
        resid = (wts - 1.0) * m
        expected = (1e-3 + 2.0 * 2e-2 * resid * m) * wts * (1.0 - wts)
        assert np.allclose(dlog, expected, atol=1e-14)

    def test_alpha_chain_rule_only(self):
        logits = self.rng.normal(size=G16.shape)
        cfg = JointConfig(alpha=7e-3, beta=0.0, b_ea=ExplicitBaseline(1e6))
        _, dlog = objective_gradients(self.window, MotionParams.translation(0.0, 0.0),
                                      ConfidenceMap(logits), cfg)
        wts = sigmoid(logits)
        assert np.allclose(dlog, 7e-3 * wts * (1.0 - wts), atol=1e-15)

    @pytest.mark.parametrize("theta", [MotionParams.translation(4.0, -6.0),
                                       MotionParams.rotation(2.0)], ids=lambda t: t.model)
    def test_alignment_only_matches_fd(self, theta):
        # logits=None: only r_ea = b_ea - f_ea, differentiated w.r.t. theta
        cfg = JointConfig(b_ea=ExplicitBaseline(0.3))

        def evaluate(th, want_grads):
            return _evaluate(self.window, MotionParams(theta.model, th), None, cfg,
                             math.nan, 0.3, math.nan, want_grads)

        parts, dtheta, dlogits = evaluate(theta.values, True)
        assert dlogits is None
        assert parts.total == parts.worst_regret == parts.r_ea == 0.3 - parts.f_ea
        assert np.isnan([parts.f_ed, parts.r_ed, parts.l1, parts.fidelity]).all()
        full = objective(self.window, theta, ConfidenceMap.zeros(G16), cfg)
        assert parts.f_ea == full.f_ea and parts.r_ea == full.r_ea
        h = 1e-4
        fd = np.zeros_like(dtheta)
        for p in range(theta.dim):
            tp = theta.values.copy()
            tp[p] += h
            tm = theta.values.copy()
            tm[p] -= h
            fd[p] = (evaluate(tp, False)[0].total - evaluate(tm, False)[0].total) / (2 * h)
        assert np.linalg.norm(fd - dtheta) / max(np.linalg.norm(fd), 1e-12) < 1e-6

    @pytest.mark.parametrize("theta", [MotionParams.translation(3.0, -2.0),
                                       MotionParams.rotation(1.5)], ids=lambda t: t.model)
    def test_tie_averages_the_one_sided_gradients(self, theta):
        # at r_ea == r_ed == 0 the subgradient of max(r_ea, r_ed) is the mean
        # of the gradients with either regret active (b_ea shifted by +-1)
        logits = self.rng.normal(size=G16.shape)
        cfg = JointConfig(alpha=2e-3, beta=1e-2)

        def grads(b_ea, b_ed):
            return _evaluate(self.window, theta, logits, cfg, cfg.alpha, b_ea, b_ed, True)

        start, _, _ = _evaluate(self.window, theta, logits, cfg, cfg.alpha, 0.0, 0.0, False)
        tie, dtheta, dlogits = grads(start.f_ea, start.f_ed)
        assert tie.r_ea == tie.r_ed == 0.0
        ea, dtheta_ea, dlogits_ea = grads(start.f_ea + 1.0, start.f_ed)
        ed, dtheta_ed, dlogits_ed = grads(start.f_ea - 1.0, start.f_ed)
        assert ea.r_ea > ea.r_ed and ed.r_ed > ed.r_ea
        for got, one, other in [(dtheta, dtheta_ea, dtheta_ed),
                                (dlogits, dlogits_ea, dlogits_ed)]:
            mean = 0.5 * (one + other)
            assert np.max(np.abs(got - mean)) <= 1e-12 * np.max(np.abs(mean))

    def test_ed_branch_theta_gradient_nonzero(self):
        cfg = JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(-1e6))
        dtheta, _ = objective_gradients(self.window, MotionParams.translation(2.0, 2.0),
                                        ConfidenceMap.zeros(G16), cfg)
        assert np.linalg.norm(dtheta) > 0


class TestSolve:
    def test_zero_iterations_noop(self):
        rng = np.random.default_rng(1)
        w = random_window(rng)
        cfg = JointConfig(iterations=0, b_ea=ExplicitBaseline(1.0))
        res = solve(w, cfg)
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert np.all(res.conf.weights == 0.5)
        assert res.labels.all()  # 0.5 >= tau = 0.5
        assert res.iterations == 0
        assert res.stop_reason == "cap" and res.warm_iterations == 0

    def test_zero_iterations_with_warm_start(self):
        # no warm-start step either: b_ea is kappa times f_ea at theta = 0
        w = random_window(np.random.default_rng(1))
        res = solve(w, JointConfig(iterations=0))
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert res.iterations == 0 and res.warm_iterations == 0 and res.stop_reason == "cap"
        f_ea = objective(w, res.theta, res.conf, JointConfig(b_ea=ExplicitBaseline(0.0))).f_ea
        assert res.b_ea == KAPPA_DEFAULT * f_ea

    def test_degenerate_window(self):
        ev = Events([1.0, 2.0], [1.0, 2.0], [0.1, 0.2], [1, -1])
        w = EventWindow(ev, G16, 0.0, 1.0, 0.5)
        with pytest.warns(UserWarning, match="too small"):
            res = solve(w, JointConfig())
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert not res.labels.any()

    def test_degenerate_window_is_all_noise_with_zero_confidence(self):
        # below tau everywhere, as its all-noise labels are
        ev = Events([1.0, 2.0, 9.5], [1.0, 2.0, 4.0], [0.1, 0.2, 0.3], [1, -1, 1])
        with pytest.warns(UserWarning, match="too small"):
            res = solve(EventWindow(ev, G16, 0.0, 1.0, 0.5), JointConfig())
        assert np.all(res.conf.weights == 0.0)
        assert res.confidence.tolist() == [0.0, 0.0, 0.0]
        assert math.isnan(res.b_ed) and res.final is None

    def test_one_splat_workspace_per_window(self, monkeypatch):
        # one kernel per window, whose first splat, of the unwarped events,
        # is b_ed's; every evaluation re-splats into it
        window = random_window(np.random.default_rng(8))
        built, splats, evaluations = _count_work(monkeypatch)
        res = solve(window, JointConfig(iterations=6))
        unwarped = window.positions.tobytes()
        assert len(built) == 1 and built[0][0].tobytes() == unwarped
        assert len(splats) == len(evaluations) + 1 and splats[0].tobytes() == unwarped
        assert res.b_ed == float(np.var(smooth_map(window.positions, G16).values))

    @pytest.mark.parametrize("method", ["translation2d", "rotation_inplane", "baf", "cmax-seq"])
    def test_confidence_is_the_map_sampled_at_warped_events(self, method):
        from evjoint.baselines import BafConfig, baf_filter, kept_result, sequential_pipeline

        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.1)
        window, _, _ = generate(spec, seed=3)
        cfg = JointConfig(iterations=30)
        if method == "baf":
            res = kept_result(window, baf_filter(window, BafConfig()),
                              MotionParams.translation(-30.0, -10.0))
        elif method == "cmax-seq":
            res = sequential_pipeline(window, BafConfig(), cfg)
        else:
            res = solve(window, cfg, model=method)
        assert np.linalg.norm(res.theta.values) > 0
        want = interpolate_confidence(res.conf.weights, warp(window, res.theta))
        assert res.confidence.tobytes() == want.tobytes()
        if method not in ("baf", "cmax-seq"):  # their labels come from the density filter
            assert np.array_equal(res.labels, res.confidence >= cfg.tau)

    def test_trace_length_and_descent(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.05)
        window, _, _ = generate(spec, seed=0)
        cfg = JointConfig(iterations=60)
        res, parts = _solve_steps(window, cfg)
        assert res.iterations == len(parts) - 1 == 60
        assert res.final.total <= parts[0].total

    def test_deterministic(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.1)
        window, _, _ = generate(spec, seed=0)
        cfg = JointConfig(iterations=40)
        r1 = solve(window, cfg)
        r2 = solve(window, cfg)
        assert np.array_equal(r1.theta.values, r2.theta.values)
        assert np.array_equal(r1.conf.logits, r2.conf.logits)
        assert np.array_equal(r1.labels, r2.labels)

    def test_warm_baseline_is_kappa_times_cmax_variance(self):
        # the warm start is the alignment-only ascent that cmax_solve runs,
        # for half the iterations
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.15)
        window, _, _ = generate(spec, seed=0)
        res = solve(window, JointConfig(iterations=40))
        theta = cmax_solve(window, "translation2d", JointConfig(iterations=20))
        f_ea = objective(window, theta, ConfidenceMap.zeros(window.geometry),
                         JointConfig(b_ea=ExplicitBaseline(0.0))).f_ea
        assert res.b_ea == KAPPA_DEFAULT * f_ea

    def test_recovers_motion_and_labels_noise(self):
        spec = SceneSpec(SensorGeometry(48, 48), Dot((16.0, 24.0), 6.0),
                         MotionParams.translation(40.0, 20.0), 0.2, noise_rate=0.1)
        window, truth, theta_gt = generate(spec, seed=4)
        res = solve(window, JointConfig())
        err = np.linalg.norm(res.theta.values - theta_gt.values)
        assert err / np.linalg.norm(theta_gt.values) < 0.05
        from evjoint.metrics import confusion

        c = confusion(res.labels, truth)
        assert c.sensitivity >= 0.8
        assert c.specificity >= 0.8

    def test_duplication_scale_invariance_of_labels(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.1)
        window, _, _ = generate(spec, seed=2)
        base = objective(window, MotionParams.translation(0.0, 0.0),
                         ConfidenceMap.zeros(SensorGeometry(32, 32)),
                         JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(0.0)))
        cfg1 = JointConfig(alpha=2e-5, beta=1e-4, b_ea=ExplicitBaseline(1.2 * base.f_ea),
                           iterations=80)
        res1 = solve(window, cfg1)

        ev = window.events
        idx = np.repeat(np.arange(len(ev)), 2)
        doubled = EventWindow(ev.take(idx), window.geometry, window.t_start,
                              window.t_end, window.t_ref)
        # doubling every event scales both variances and the fidelity term by
        # 4; rescaling alpha and the alignment baseline accordingly leaves the
        # optimization (and so the labels) unchanged
        cfg2 = JointConfig(alpha=4 * 2e-5, beta=1e-4,
                           b_ea=ExplicitBaseline(4 * 1.2 * base.f_ea), iterations=80)
        res2 = solve(doubled, cfg2)
        assert np.array_equal(np.repeat(res1.labels, 2), res2.labels)
        assert np.allclose(res1.theta.values, res2.theta.values, atol=1e-6)

    def test_nonfinite_objective_reported(self):
        rng = np.random.default_rng(3)
        w = random_window(rng)
        # finite weights whose L1 term overflows the total
        cfg = JointConfig(alpha=1e308, b_ea=ExplicitBaseline(1.0), iterations=5)
        with pytest.raises(RuntimeError, match="iteration 0"):
            solve(w, cfg)


class TestStopRule:
    """Each descent stops at the first check (every STOP_EVERY steps) where
    phi and the weights have settled; `iterations` only caps it."""

    @staticmethod
    def _window():
        # a small-windows benchmark window: both phases of the default solve settle
        spec = SceneSpec(SensorGeometry(96, 96), Dot((24.0, 40.0), 8.0),
                         MotionParams.translation(40.0, 25.0), 0.25, noise_rate=0.1)
        return generate(spec, seed=2)[0]

    @staticmethod
    def _record(monkeypatch):
        """Record (theta bytes, logits copy or None) of every evaluation."""
        seen, real = [], joint._evaluate

        def recorded(window, theta, logits, *args, **kwargs):
            seen.append((theta.values.tobytes(), None if logits is None else logits.copy()))
            return real(window, theta, logits, *args, **kwargs)

        monkeypatch.setattr(joint, "_evaluate", recorded)
        return seen

    def test_settled_window_stops_before_the_cap(self, monkeypatch):
        window, cfg = self._window(), JointConfig()
        seen = self._record(monkeypatch)
        res = solve(window, cfg)
        assert res.stop_reason == "settled"
        steps = res.iterations
        assert steps < cfg.iterations and steps % joint.STOP_EVERY == 0
        # the warm start's evaluations, then one per joint step plus the end point
        assert len(seen) == res.warm_iterations + 1 + steps + 1
        end, before = seen[-1], seen[-1 - joint.STOP_EVERY]
        assert end[0] == res.theta.values.tobytes()
        assert end[1].tobytes() == res.conf.logits.tobytes()
        span = window.t_end - window.t_start
        moved = np.abs(np.frombuffer(end[0]) - np.frombuffer(before[0])) * span
        assert moved.max() <= joint.STOP_EVERY * joint.STOP_PX
        assert np.abs(sigmoid(end[1]) - sigmoid(before[1])).max() <= joint.STOP_WEIGHT
        # the end point is the last evaluated point, its parts and weights unchanged
        want, _, _ = _evaluate(window, res.theta, res.conf.logits, cfg, res.alpha, res.b_ea,
                               res.b_ed, want_grads=False)
        assert _parts_bytes([res.final]) == _parts_bytes([want])
        sampled = interpolate_confidence(res.conf.weights, warp(window, res.theta))
        assert res.confidence.tobytes() == sampled.tobytes()

    @pytest.mark.parametrize("iterations", [5, 30])
    def test_unsettled_window_runs_to_the_cap(self, iterations):
        res = solve(self._window(), JointConfig(iterations=iterations))
        assert res.stop_reason == "cap"
        assert res.iterations == iterations and res.warm_iterations == iterations // 2

    def test_alignment_only_joint_phase_stops_with_cmax(self, monkeypatch):
        # criterion 6's scene: with alpha = beta = 0 and b_ea = 1e12 the joint
        # phase steps phi exactly as cmax_solve does, so both stop at one step
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.15)
        scene = generate(spec, seed=0)[0]
        seen = self._record(monkeypatch)
        res = solve(scene, JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1e12),
                                       iterations=300))
        ea_only = [theta for theta, _ in seen]
        seen.clear()
        theta = cmax_solve(scene, "translation2d", JointConfig(iterations=300))
        assert res.stop_reason == "settled" and res.iterations < 300
        assert [theta for theta, _ in seen] == ea_only
        assert len(ea_only) == res.iterations + 1
        assert theta.values.tobytes() == res.theta.values.tobytes()


class TestStart:
    """solve's and cmax_solve's optional seed, guarded by the alignment
    variance: taken only if it aligns the window strictly better than zero."""

    @staticmethod
    def _window():
        spec = SceneSpec(SensorGeometry(96, 96), Dot((24.0, 40.0), 8.0),
                         MotionParams.translation(40.0, 25.0), 0.25, noise_rate=0.1)
        return generate(spec, seed=2)[0]

    @staticmethod
    def _same(solved_a, solved_b):
        (a, parts_a), (b, parts_b) = solved_a, solved_b
        assert a.theta.values.tobytes() == b.theta.values.tobytes()
        assert a.confidence.tobytes() == b.confidence.tobytes()
        assert _parts_bytes(parts_a) == _parts_bytes(parts_b)
        assert (a.b_ea, a.warm_iterations, a.stop_reason) == (b.b_ea, b.warm_iterations,
                                                               b.stop_reason)

    def test_close_seed_is_taken_and_shortens_the_warm_start(self):
        window, cfg = self._window(), JointConfig()
        cold = solve(window, cfg)
        warm = solve(window, cfg, start=MotionParams.translation(-39.0, -24.0))
        assert not cold.seeded and warm.seeded
        assert warm.warm_iterations < cold.warm_iterations
        assert np.allclose(warm.theta.values, [-40.0, -25.0], rtol=0.01)

    def test_misaligning_seed_changes_nothing(self):
        window, cfg = self._window(), JointConfig()
        solved = _solve_steps(window, cfg, start=MotionParams.translation(40.0, 25.0))  # reversed
        assert not solved[0].seeded
        self._same(solved, _solve_steps(window, cfg))

    def test_zero_seed_is_not_strictly_better(self):
        window, cfg = self._window(), JointConfig(iterations=20)
        solved = _solve_steps(window, cfg, start=MotionParams.zero("translation2d"))
        assert not solved[0].seeded
        self._same(solved, _solve_steps(window, cfg))

    def test_seed_of_another_model_rejected(self):
        with pytest.raises(ValueError, match="rotation_inplane"):
            solve(self._window(), JointConfig(), start=MotionParams.rotation(0.1))

    def test_cmax_takes_the_same_guard(self):
        window, cfg = self._window(), JointConfig()
        cold = cmax_solve(window, "translation2d", cfg)
        bad = cmax_solve(window, "translation2d", cfg, theta=MotionParams.translation(40.0, 25.0))
        assert bad.values.tobytes() == cold.values.tobytes()
        seeded = cmax_solve(window, "translation2d", cfg,
                            theta=MotionParams.translation(-39.0, -24.0))
        assert np.allclose(seeded.values, [-40.0, -25.0], rtol=0.01)
        # criterion 6 with a seed: the alignment-only joint phase starts where cmax does
        ea_only = solve(window, JointConfig(alpha=0.0, beta=0.0, b_ea=ExplicitBaseline(1e12)),
                        start=MotionParams.translation(-39.0, -24.0))
        assert ea_only.seeded
        assert np.linalg.norm(ea_only.theta.values - seeded.values) < 1e-9

    @pytest.mark.parametrize("model, off_sensor", [
        ("translation2d", 0), ("translation2d", 40),
        ("rotation_inplane", 0), ("rotation_inplane", 40)])
    def test_denoise_baseline_is_f_ea_at_zero_motion(self, model, off_sensor):
        # the guard compares the seed's f_ea with b_ed in place of zero
        # motion's f_ea. Zero motion of either model adds +-0 to each
        # position, so the two agree bit for bit, off the sensor too
        cfg = JointConfig()
        windows = [self._window(), random_window(np.random.default_rng(4)),
                   TestWorkspaceReuse._window(150, off_sensor=off_sensor)]
        for window in windows:
            zero = _evaluate(window, MotionParams.zero(model), None, cfg, math.nan, 0.0,
                             math.nan, want_grads=False)[0]
            b_ed = joint._denoise_baseline(window, cfg.sigma)
            assert zero.f_ea == b_ed

    @pytest.mark.parametrize("start, seeded", [((-39.0, -24.0), True), ((40.0, 25.0), False)])
    def test_guard_makes_one_evaluation(self, monkeypatch, start, seeded):
        # a seeded solve evaluates f_ea at the seed alone, without gradients;
        # with no descent steps the rest is one end evaluation per phase
        window, cfg = self._window(), JointConfig(iterations=0)
        calls = []
        real = joint._evaluate

        def counted(window, theta, *args, **kwargs):
            calls.append(theta.values.tobytes())
            return real(window, theta, *args, **kwargs)

        monkeypatch.setattr(joint, "_evaluate", counted)
        solve(window, cfg)
        unseeded = len(calls)
        calls.clear()
        start = MotionParams.translation(*start)
        assert solve(window, cfg, start=start).seeded == seeded
        assert len(calls) == unseeded + 1 == 3
        assert calls[0] == start.values.tobytes()


class TestHandover:
    """A warm start that stops at its cap hands phi's Adam moments and step
    count to the joint phase; one that settles hands on nothing, and the
    joint phase starts from zero moments."""

    @staticmethod
    def _chain(window, cfg, resume, start=None):
        """solve's two descents called by hand; the second resumes the first's
        Adam state when resume is set, else restarts from zero moments."""
        ws = joint._Workspace(window, cfg, "translation2d")
        theta = joint._guarded_start(ws, start)
        theta, _, warm, end, state = _descend(ws, cfg.iterations // 2, 0.0, theta=theta)
        parts = []
        theta, logits, _, final, _ = _descend(
            ws, cfg.iterations, cfg.b_ea.kappa * end.f_ea, np.zeros(window.geometry.shape), theta,
            state if resume else None, lambda it, p: parts.append(p))
        return theta, logits, warm, parts + [final], state

    @staticmethod
    def _same(solved, chain):
        (res, res_parts), (theta, logits, warm, parts, _) = solved, chain
        return (res.theta.values.tobytes() == theta.values.tobytes()
                and res.conf.logits.tobytes() == logits.tobytes()
                and res.warm_iterations == warm
                and _parts_bytes(res_parts) == _parts_bytes(parts))

    def test_capped_warm_start_is_resumed(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.15)
        window, cfg = generate(spec, seed=0)[0], JointConfig(iterations=40)
        solved = _solve_steps(window, cfg)
        resumed = self._chain(window, cfg, resume=True)
        assert solved[0].resumed and solved[0].warm_iterations == 20
        assert resumed[4].step == 20
        assert self._same(solved, resumed)
        assert not self._same(solved, self._chain(window, cfg, resume=False))

    def test_settled_warm_start_hands_on_nothing(self):
        window, cfg = TestStart._window(), JointConfig()
        start = MotionParams.translation(-39.0, -24.0)
        solved = _solve_steps(window, cfg, start=start)
        res = solved[0]
        restarted = self._chain(window, cfg, resume=False, start=start)
        assert res.seeded and not res.resumed and res.warm_iterations < cfg.iterations // 2
        assert restarted[4] is None
        assert self._same(solved, restarted)

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_no_warm_step_hands_on_zero_moments(self, iterations):
        window, cfg = TestStart._window(), JointConfig(iterations=iterations)
        solved = _solve_steps(window, cfg)
        restarted = self._chain(window, cfg, resume=False)
        state = restarted[4]
        assert solved[0].resumed and state.step == 0
        assert not state.m.any() and not state.v.any()
        assert self._same(solved, restarted)

    @staticmethod
    def _criterion_2_window():
        spec = SceneSpec(SensorGeometry(64, 64), MultiEdge(6.5),
                         MotionParams.translation(30.0, -10.0), 0.1)
        return generate(spec, seed=1)

    def test_criterion_2_scene_takes_fewer_steps(self):
        # with the restarted joint phase: 150 + 300 steps (452 evaluations)
        window, _, truth = self._criterion_2_window()
        res = solve(window, JointConfig())
        assert res.resumed
        assert res.warm_iterations + res.iterations <= 300
        err = np.linalg.norm(res.theta.values - truth.values) / np.linalg.norm(truth.values)
        assert err <= 0.01


class TestInterpolation:
    def test_center_sampling_exact(self):
        wts = np.zeros((4, 4))
        wts[2, 1] = 1.0
        val = interpolate_confidence(wts, np.array([[1.5, 2.5]]))
        assert val[0] == pytest.approx(1.0)

    def test_bilinear_mixing(self):
        wts = np.array([[0.0, 1.0], [0.0, 1.0]])
        val = interpolate_confidence(wts, np.array([[1.0, 1.0]]))
        assert val[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("left, right", [(-3.0, 5.0), (-1e19, 1e19), (-1e300, 1e300)])
    def test_border_clamp(self, left, right):
        # beyond +-2^63 too, where an int64 cast is undefined
        wts = np.array([[0.25, 0.75], [0.25, 0.75]])
        val = interpolate_confidence(wts, np.array([[left, 0.5], [right, 0.5]]))
        assert val[0] == pytest.approx(0.25)
        assert val[1] == pytest.approx(0.75)
        assert interpolate_confidence(wts.T, np.array([[0.5, left], [0.5, right]])).tolist() == (
            val.tolist())


def _count_work(monkeypatch):
    """Lists that record, from now on, the args of every SplatCache built, the
    positions of every splat (the first one of each SplatCache included) and
    the args of every _evaluate call."""
    built, splats, evaluations = [], [], []
    real_init, real_splat, real_evaluate = (contrast.SplatCache.__init__,
                                            contrast.SplatCache.splat, joint._evaluate)
    monkeypatch.setattr(contrast.SplatCache, "__init__",
                        lambda self, *a: built.append(a) or real_init(self, *a))
    monkeypatch.setattr(contrast.SplatCache, "splat",
                        lambda self, p: splats.append(p) or real_splat(self, p))
    monkeypatch.setattr(joint, "_evaluate",
                        lambda *a, **k: evaluations.append(a) or real_evaluate(*a, **k))
    return built, splats, evaluations


def _criterion_2_cmax():
    window = TestHandover._criterion_2_window()[0]
    return lambda: cmax_solve(window, "translation2d", JointConfig())


def _criterion_2_joint():
    window = TestHandover._criterion_2_window()[0]
    return lambda: solve(window, JointConfig())


def _seeded_stream():
    # two 0.1 s windows, the second seeded with the first's motion (and taking it)
    spec = SceneSpec(SensorGeometry(48, 48), Dot((16.0, 24.0), 6.0),
                     MotionParams.translation(40.0, 20.0), 0.2, noise_rate=0.1)
    first, second = window_stream(generate(spec, seed=4)[0].events, spec.geometry,
                                  FixedDuration(0.1))
    return lambda: solve(second, JointConfig(), start=solve(first, JointConfig()).theta)


def _rotation():
    spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                     MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.1)
    window = generate(spec, seed=3)[0]
    return lambda: solve(window, JointConfig(), model="rotation_inplane")


# The work ledger: on fixed scenes, the solver's _evaluate calls and splats
# (each SplatCache's first included) may not exceed these ceilings, the
# counts when the ledger was set up. A change that lowers a count lowers its
# ceiling; raising a ceiling loosens the bound.
WORK_LEDGER = {
    "criterion-2-cmax": (_criterion_2_cmax, 161, 162),
    "criterion-2-joint": (_criterion_2_joint, 292, 293),
    "seeded-stream": (_seeded_stream, 805, 807),
    "rotation": (_rotation, 422, 423),
}


@pytest.mark.parametrize("scene", list(WORK_LEDGER))
def test_work_ledger(monkeypatch, scene):
    build, max_evaluations, max_splats = WORK_LEDGER[scene]
    run = build()
    _, splats, evaluations = _count_work(monkeypatch)
    run()
    assert len(evaluations) <= max_evaluations, f"{len(evaluations)} evaluations"
    assert len(splats) <= max_splats, f"{len(splats)} splats"


def _parts_bytes(trace):
    return [np.array(dataclasses.astuple(p)).tobytes() for p in trace]


def _solve_steps(window, cfg, **kwargs):
    """solve's result and the parts on_step saw, in step order, then the end
    point's; the steps come numbered 0 to iterations - 1."""
    seen = []
    res = solve(window, cfg, on_step=lambda it, parts: seen.append((it, parts)), **kwargs)
    assert [it for it, _ in seen] == list(range(res.iterations))
    return res, [parts for _, parts in seen] + [res.final]


class TestWorkspaceReuse:
    """_descend evaluates every step in one workspace. Each step must come
    out bit for bit as if it had evaluated in a fresh one, so no buffer
    carries state from one step to the next."""

    ITERS = 12

    def _descend_both(self, monkeypatch, window, b_ea, b_ed, logits, model="translation2d"):
        """Descend twice, every evaluation in one workspace and then each in a
        fresh one. b_ed, if not None, replaces the window's own on the
        workspace, so that b_ea and b_ed together pick the active regret."""
        def descend():
            trace = []
            ws = joint._Workspace(window, JointConfig(), model)
            if b_ed is not None:
                ws.b_ed = b_ed
            theta, out_logits, steps, end, _ = _descend(
                ws, self.ITERS, b_ea, logits, on_step=lambda it, p: trace.append(p))
            assert steps == len(trace)
            return theta, out_logits, trace, end

        theta, out_logits, trace, end = descend()
        fresh = joint._evaluate
        with monkeypatch.context() as mp:
            mp.setattr(joint, "_evaluate", lambda *a, ws=None, **k: fresh(*a, **k))
            ref_theta, ref_logits, ref_trace, ref_end = descend()
        assert theta.values.tobytes() == ref_theta.values.tobytes()
        if logits is None:
            assert out_logits is None and ref_logits is None
        else:
            assert out_logits.tobytes() == ref_logits.tobytes()
        assert _parts_bytes(trace + [end]) == _parts_bytes(ref_trace + [ref_end])
        assert len(trace) == self.ITERS
        return trace

    @staticmethod
    def _window(n, width=24, height=20, seed=3, off_sensor=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, width, n)
        y = rng.uniform(0, height, n)
        # whole kernel support off the sensor: pinned just outside it
        x[:off_sensor:2] = -40.0 - rng.uniform(0, 5, len(x[:off_sensor:2]))
        y[1:off_sensor:2] = height + 30.0 + rng.uniform(0, 5, len(y[1:off_sensor:2]))
        t = np.sort(rng.uniform(0, 0.1, n))
        p = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        return EventWindow(Events(x, y, t, p), SensorGeometry(width, height), 0.0, 0.1, 0.05)

    def test_event_count_not_a_chunk_multiple(self, monkeypatch):
        step = contrast._CHUNK_TAPS // 16  # events per chunk: 16 vote taps each
        window = self._window(2 * step + 37)
        self._descend_both(monkeypatch, window, 0.5, 0.0, np.zeros((20, 24)))

    def test_many_small_chunks(self, monkeypatch):
        monkeypatch.setattr(contrast, "_CHUNK_TAPS", 3 * 16)  # three events per chunk
        self._descend_both(monkeypatch, self._window(100), 0.5, 0.0, np.zeros((20, 24)))

    def test_events_off_the_sensor(self, monkeypatch):
        window = self._window(150, off_sensor=40)
        self._descend_both(monkeypatch, window, 0.5, 0.0, np.zeros((20, 24)))

    def test_rotation_model(self, monkeypatch):
        self._descend_both(monkeypatch, self._window(150), 0.5, 0.0, np.zeros((20, 24)),
                           model="rotation_inplane")

    def test_alignment_only(self, monkeypatch):
        trace = self._descend_both(monkeypatch, self._window(150), 0.0, None, None)
        assert all(math.isnan(p.f_ed) for p in trace)

    def test_alignment_branch(self, monkeypatch):
        trace = self._descend_both(monkeypatch, self._window(150), 10.0, 0.0,
                                   np.zeros((20, 24)))
        assert all(p.r_ea > p.r_ed for p in trace)

    def test_denoising_branch(self, monkeypatch):
        trace = self._descend_both(monkeypatch, self._window(150), 0.0, -10.0,
                                   np.full((20, 24), 0.3))
        assert all(p.r_ed > p.r_ea for p in trace)

    def test_tied_branches(self, monkeypatch):
        # baselines equal to the starting f_ea and f_ed: both regrets are
        # exactly 0 at the first step
        window = self._window(150)
        cfg = JointConfig()
        logits = np.zeros((20, 24))
        start, _, _ = _evaluate(window, MotionParams.zero("translation2d"), logits, cfg,
                                _resolve_alpha(cfg), 0.0, 0.0, want_grads=False)
        trace = self._descend_both(monkeypatch, window, start.f_ea, start.f_ed, logits)
        assert trace[0].r_ea == trace[0].r_ed == 0.0


@pytest.mark.parametrize("model", ["translation2d", "rotation_inplane"])
@pytest.mark.parametrize("joint_mode", [False, True], ids=["alignment-only", "joint"])
def test_descend_end_is_evaluate_at_returned_point(model, joint_mode):
    # the end point's parts are exactly _evaluate's at the returned theta and
    # logits, and the warm start's theta carries into a further descent
    window = TestWorkspaceReuse._window(150)
    cfg = JointConfig()
    logits = np.zeros((20, 24)) if joint_mode else None
    ws = joint._Workspace(window, cfg, model)
    start, _, _, _, _ = _descend(ws, 5, 0.0)
    theta, out_logits, steps, end, _ = _descend(ws, 7, 0.5, logits, start)
    assert steps == 7 and theta.model == model
    assert (out_logits is None) == (not joint_mode)
    warped = ws.warped.copy()
    want, _, _ = _evaluate(window, theta, out_logits, cfg, _resolve_alpha(cfg), 0.5,
                           joint._denoise_baseline(window, cfg.sigma), want_grads=False)
    assert _parts_bytes([end]) == _parts_bytes([want])
    # solve samples the labels at the warped positions the end evaluation leaves
    assert warped.tobytes() == warp(window, theta).tobytes()


def test_descent_steps_fault_in_few_pages(monkeypatch):
    # On a ~900-event 96x96 window, once 5 steps have run, a descent step
    # allocates no map- or chunk-sized arrays, so it faults in few fresh
    # pages: at most 25 minor page faults per step over the next 50 steps.
    # With fresh temporaries per evaluation it took about 240.
    spec = SceneSpec(SensorGeometry(96, 96), Dot((24.0, 40.0), 8.0),
                     MotionParams.translation(40.0, 25.0), 0.25, noise_rate=0.1)
    window, _, _ = generate(spec, seed=2)
    assert 850 <= len(window) <= 950
    cfg = JointConfig()
    faults = []
    real = joint._evaluate

    def counted(*args, **kwargs):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real(*args, **kwargs)

    monkeypatch.setattr(joint, "_evaluate", counted)
    _descend(joint._Workspace(window, cfg, "translation2d"), 55, 0.5, np.zeros((96, 96)))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    per_step = (faults[-1] - faults[5]) / 50
    assert per_step <= 25, f"{per_step:.1f} minor page faults per descent step"



def test_evaluation_allocates_no_map_sized_arrays():
    # One joint evaluation with gradients on a ~900-event 256 x 256 window,
    # into a workspace that has evaluated once: the traced peak stays below
    # half of one 512 KB map, so neither the splat nor its blurs nor the map
    # arithmetic allocates a map. numpy's ~128 KB ufunc buffer fits under it.
    window = TestWorkspaceReuse._window(900, width=256, height=256)
    cfg = JointConfig()
    ws = joint._Workspace(window, cfg, "translation2d")
    args = (window, MotionParams.translation(3.0, -2.0), np.full((256, 256), 0.5), cfg,
            _resolve_alpha(cfg), 0.5, 0.0, True, ws)
    _evaluate(*args)
    tracemalloc.start()
    try:
        _evaluate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, f"{peak >> 10} KB traced peak"


def test_descent_steps_allocate_no_per_event_arrays(monkeypatch):
    # The warped positions and their gradient, (N, 2) each, live in the
    # workspace: over steps 5-25 of a translation descent on 17,000 events the
    # traced peak stays less than one such array (272 KB) above the memory
    # held at step 5; numpy's 128 KB ufunc buffers fit under that. Allocated
    # per step, the two arrays took the peak to about 670 KB above it.
    window = TestWorkspaceReuse._window(17000, width=32, height=32)
    cfg = JointConfig()
    held = []
    real = joint._evaluate

    def counted(*args, **kwargs):
        if len(held) == 5:
            tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(joint, "_evaluate", counted)
    tracemalloc.start()
    try:
        _descend(joint._Workspace(window, cfg, "translation2d"), 25, 0.5, np.zeros((32, 32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 26
    assert peak - held[5] < 17000 * 16, f"{(peak - held[5]) >> 10} KB above step 5"


def test_solve_memory_does_not_grow_with_iterations(monkeypatch):
    # A window that never settles runs both phases to their caps, and the
    # solve keeps no per-step record: the traced peak at 1,000 joint steps
    # is within 32 KB of the peak at 100. A list of every step's
    # ObjectiveParts took about 0.4 KB per step, some 370 KB more.
    monkeypatch.setattr(joint, "STOP_PX", -1.0)  # the stop rule never holds
    window = TestWorkspaceReuse._window(52)
    results, peaks = [], []
    for iterations in (100, 1000):
        tracemalloc.start()
        try:
            results.append(solve(window, JointConfig(iterations=iterations)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 << 10, f"{peaks[0] >> 10} KB, then {peaks[1] >> 10} KB"
    assert [(res.stop_reason, res.iterations) for res in results] == [("cap", 100), ("cap", 1000)]
