import math

import numpy as np
import pytest

from evjoint.baselines import cmax_solve
from evjoint.contrast import ConfidenceMap, sigmoid, smooth_map
from evjoint.events import Events, EventWindow, SensorGeometry
from evjoint.joint import (
    KAPPA_DEFAULT,
    AdamState,
    ExplicitBaseline,
    JointConfig,
    WarmStartScaled,
    _evaluate,
    adam_step,
    interpolate_confidence,
    objective,
    objective_gradients,
    solve,
)
from evjoint.synth import Dot, SceneSpec, generate
from evjoint.warp import MotionParams, warp

from conftest import random_window

G16 = SensorGeometry(16, 16)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        out, state = adam_step(params, np.zeros(2), AdamState.zeros_like(params), lr=0.1)
        assert np.array_equal(out, params)
        assert state.step == 1

    def test_first_step_hand_value(self):
        # bias-corrected first step with g = 1: delta = -lr / (1 + eps)
        params = np.array([0.0])
        lr, eps = 0.05, 1e-8
        out, _ = adam_step(params, np.array([1.0]), AdamState.zeros_like(params),
                           lr=lr, eps=eps)
        assert out[0] == pytest.approx(-lr / (1.0 + eps), abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e5])
    def test_step_magnitude_bounded_for_steady_gradients(self, scale):
        # constant-sign gradients: per-step movement never exceeds lr,
        # whatever the gradient magnitude
        params = np.zeros(3)
        state = AdamState.zeros_like(params)
        lr = 0.03
        for _ in range(50):
            new, state = adam_step(params, np.full(3, scale), state, lr=lr)
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

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(1), np.array([np.nan]), AdamState.zeros_like(np.zeros(1)), 0.1)


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            JointConfig(tau=0.0)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            JointConfig(learning_rate_theta=0.0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            JointConfig(alpha=-1.0)


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

    def test_denoise_baseline_splatted_once_per_window(self, monkeypatch):
        import evjoint.joint as joint

        calls = []
        real = joint._splat
        monkeypatch.setattr(joint, "_splat", lambda *a: calls.append(1) or real(*a))
        cfg = JointConfig(alpha=1e-3, beta=1e-2, b_ea=ExplicitBaseline(0.5), sigma=1.3)
        conf = ConfidenceMap(self.rng.normal(size=G16.shape))
        theta = MotionParams.translation(2.0, -3.0)
        first = objective(self.window, theta, conf, cfg)
        assert len(calls) == 2  # b_ed once, then the warped map
        objective_gradients(self.window, theta, conf, cfg)
        again = objective(self.window, theta, conf, cfg)
        assert len(calls) == 4
        assert again == first
        # an equal but distinct window gets its own baseline
        twin = random_window(np.random.default_rng(42))
        assert objective(twin, theta, conf, cfg).r_ed == first.r_ed
        assert len(calls) == 6

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
        assert res.trace == []

    def test_degenerate_window(self):
        ev = Events([1.0, 2.0], [1.0, 2.0], [0.1, 0.2], [1, -1])
        w = EventWindow(ev, G16, 0.0, 1.0, 0.5)
        with pytest.warns(UserWarning, match="too small"):
            res = solve(w, JointConfig())
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert not res.labels.any()

    def test_trace_length_and_descent(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.05)
        window, _, _ = generate(spec, seed=0)
        cfg = JointConfig(iterations=60)
        res = solve(window, cfg)
        assert len(res.trace) == 60
        assert len(res.warm_trace) == 30
        assert res.final.total <= res.trace[0].total

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
        cfg = JointConfig(b_ea=ExplicitBaseline(np.inf), iterations=5)
        with pytest.raises(RuntimeError, match="iteration 0"):
            solve(w, cfg)


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

    def test_border_clamp(self):
        wts = np.array([[0.25, 0.75], [0.25, 0.75]])
        val = interpolate_confidence(wts, np.array([[-3.0, 0.5], [5.0, 0.5]]))
        assert val[0] == pytest.approx(0.25)
        assert val[1] == pytest.approx(0.75)
