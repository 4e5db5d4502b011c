import dataclasses
import math
import resource
import tracemalloc
import warnings

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
        # AdamState(m, v) starts at step 0, as zeros_like does
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

    def test_huge_beta_at_unit_weights(self):
        # weights exactly 1 leave a zero residual, so beta is applied before the
        # 2: 2 * 9e307 overflows to inf, and inf times that zero is NaN
        window = random_window(np.random.default_rng(1))
        cfg = JointConfig(alpha=0.0, beta=9e307, b_ea=ExplicitBaseline(1.0))
        dtheta, dlog = objective_gradients(window, MotionParams.translation(0.0, 0.0),
                                           ConfidenceMap(np.full(G16.shape, 40.0)), cfg)
        assert np.isfinite(dtheta).all()
        assert (dlog == 0.0).all()

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
        # no step: zero motion, and the weights solved exactly there
        rng = np.random.default_rng(1)
        w = random_window(rng)
        cfg = JointConfig(iterations=0, b_ea=ExplicitBaseline(1.0))
        res = solve(w, cfg)
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        want, _, _ = _evaluate(w, res.theta, joint._Exact(), cfg, res.alpha, 1.0, res.b_ed, False)
        assert _parts_bytes([res.final]) == _parts_bytes([want])
        assert np.array_equal(res.labels, res.confidence >= cfg.tau)
        assert res.iterations == 0
        assert res.stop_reason == "cap" and res.warm_iterations == 0

    def test_zero_iterations_with_warm_start(self):
        # no warm-start step either: b_ea is kappa times f_ea at theta = 0
        w = random_window(np.random.default_rng(1))
        res = solve(w, JointConfig(iterations=0))
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert res.iterations == 0 and res.warm_iterations == 0 and res.stop_reason == "cap"
        conf = ConfidenceMap.zeros(w.geometry)  # f_ea does not depend on the weights
        f_ea = objective(w, res.theta, conf, JointConfig(b_ea=ExplicitBaseline(0.0))).f_ea
        assert res.b_ea == KAPPA_DEFAULT * f_ea

    def test_degenerate_window(self):
        # the result states the case, so no warning is raised
        ev = Events([1.0, 2.0], [1.0, 2.0], [0.1, 0.2], [1, -1])
        w = EventWindow(ev, G16, 0.0, 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(w, JointConfig())
        assert res.stop_reason is None
        assert np.array_equal(res.theta.values, [0.0, 0.0])
        assert not res.labels.any()

    def test_degenerate_window_is_all_noise_with_zero_confidence(self):
        # below tau everywhere, as its all-noise labels are
        ev = Events([1.0, 2.0, 9.5], [1.0, 2.0, 4.0], [0.1, 0.2, 0.3], [1, -1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(EventWindow(ev, G16, 0.0, 1.0, 0.5), JointConfig())
        assert np.all(res.weights == 0.0)
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
        want = interpolate_confidence(res.weights, warp(window, res.theta))
        assert res.confidence.tobytes() == want.tobytes()
        if method not in ("baf", "cmax-seq"):  # their labels come from the density filter
            assert np.array_equal(res.labels, res.confidence >= cfg.tau)

    def test_trace_length_and_descent(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.05)
        window, _, _ = generate(spec, seed=0)
        cfg = JointConfig(iterations=60)
        res, parts = _solve_steps(window, cfg)
        assert res.iterations == len(parts) - 1 < 60 and res.stop_reason == "settled"
        # every step is a line search that lowered the total
        assert all(b.total < a.total for a, b in zip(parts, parts[1:]))

    def test_deterministic(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.2, noise_rate=0.1)
        window, _, _ = generate(spec, seed=0)
        cfg = JointConfig(iterations=40)
        r1 = solve(window, cfg)
        r2 = solve(window, cfg)
        assert np.array_equal(r1.theta.values, r2.theta.values)
        assert np.array_equal(r1.weights, r2.weights)
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
        # finite weights whose exact minimum overflows the total
        cfg = JointConfig(alpha=1e308, beta=1e308, b_ea=ExplicitBaseline(1.0), iterations=5)
        with pytest.raises(RuntimeError, match="iteration 0"):
            solve(w, cfg)


class TestStopRule:
    """Each descent stops once a step, proposed or taken, moves phi at most
    STOP_PX px per axis, or its line search finds no decrease that far out;
    `iterations` only caps it."""

    @staticmethod
    def _window():
        # a small-windows benchmark window: both phases of the default solve settle
        spec = SceneSpec(SensorGeometry(96, 96), Dot((24.0, 40.0), 8.0),
                         MotionParams.translation(40.0, 25.0), 0.25, noise_rate=0.1)
        return generate(spec, seed=2)[0]

    @staticmethod
    def _record(monkeypatch):
        """Record (theta bytes, logits) of every evaluation."""
        seen, real = [], joint._evaluate

        def recorded(window, theta, logits, *args, **kwargs):
            seen.append((theta.values.tobytes(), logits))
            return real(window, theta, logits, *args, **kwargs)

        monkeypatch.setattr(joint, "_evaluate", recorded)
        return seen

    def test_settled_window_stops_before_the_cap(self, monkeypatch):
        window, cfg = self._window(), JointConfig()
        seen = self._record(monkeypatch)
        made, workspace = [], joint._Workspace
        monkeypatch.setattr(joint, "_Workspace", lambda *a: made.append(workspace(*a)) or made[-1])
        res, parts = _solve_steps(window, cfg)
        assert res.stop_reason == "settled" and res.warm_stop_reason == "settled"
        assert res.iterations < cfg.iterations and res.warm_iterations < cfg.iterations // 2
        # the warm start's evaluations, then at least one per joint step plus the start
        assert len(seen) >= res.warm_iterations + 1 + res.iterations + 1
        # the end point is the last evaluated point, with its exact weights
        assert seen[-1][0] == res.theta.values.tobytes()
        assert isinstance(seen[-1][1], joint._Exact)
        fresh = joint._Exact()
        want, _, _ = _evaluate(window, res.theta, fresh, cfg, res.alpha, res.b_ea, res.b_ed,
                               want_grads=False)
        assert res.final.total == pytest.approx(want.total, rel=1e-12)
        ws = joint._Workspace(window, cfg, "translation2d")
        _evaluate(window, res.theta, fresh, cfg, res.alpha, res.b_ea, res.b_ed, False, ws)
        assert np.abs(res.weights - ws.wts).max() <= 1e-9
        # the solve's own end weights, copied out of its workspace
        assert res.weights.tobytes() == made[0].wts.tobytes() and res.weights.flags.owndata
        sampled = interpolate_confidence(res.weights, warp(window, res.theta))
        assert res.confidence.tobytes() == sampled.tobytes()

    @pytest.mark.parametrize("iterations", [2, 10])
    def test_unsettled_window_runs_to_the_cap(self, iterations):
        res = solve(self._window(), JointConfig(iterations=iterations))
        assert res.stop_reason == res.warm_stop_reason == "cap"
        assert res.iterations == iterations and res.warm_iterations == iterations // 2

    def test_alignment_only_joint_phase_stops_with_cmax(self, monkeypatch):
        # criterion 6's scene: with alpha = beta = 0 and b_ea = 1e12 the joint
        # phase's merit is -f_ea bit for bit and lam = 0, so it takes exactly
        # cmax_solve's steps and both stop at one point
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
        assert len(ea_only) >= res.iterations + 1
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


class TestPhases:
    """The joint phase starts from the warm start's motion and nothing else:
    BFGS's curvature estimate starts afresh, whether the warm start settled
    or stopped at its cap."""

    @staticmethod
    def _chain(window, cfg, start=None):
        """solve's two descents called by hand."""
        ws = joint._Workspace(window, cfg, "translation2d")
        theta = joint._guarded_start(ws, start)
        theta, warm, end, warm_stop = _descend(ws, cfg.iterations // 2, 0.0, theta=theta)
        parts = []
        theta, _, final, _ = _descend(ws, cfg.iterations, cfg.b_ea.kappa * end.f_ea, True, theta,
                                      lambda it, p: parts.append(p))
        return theta, ws.wts.copy(), warm, warm_stop, parts + [final]

    @staticmethod
    def _same(solved, chain):
        (res, res_parts), (theta, weights, warm, warm_stop, parts) = solved, chain
        return (res.theta.values.tobytes() == theta.values.tobytes()
                and res.weights.tobytes() == weights.tobytes()
                and (res.warm_iterations, res.warm_stop_reason) == (warm, warm_stop)
                and _parts_bytes(res_parts) == _parts_bytes(parts))

    def test_capped_warm_start(self):
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.15)
        window, cfg = generate(spec, seed=0)[0], JointConfig(iterations=4)
        solved = _solve_steps(window, cfg)
        assert solved[0].warm_stop_reason == "cap" and solved[0].warm_iterations == 2
        assert self._same(solved, self._chain(window, cfg))

    def test_settled_warm_start(self):
        window, cfg = TestStart._window(), JointConfig()
        start = MotionParams.translation(-39.0, -24.0)
        solved = _solve_steps(window, cfg, start=start)
        res = solved[0]
        assert res.seeded and res.warm_stop_reason == "settled"
        assert res.warm_iterations < cfg.iterations // 2
        assert self._same(solved, self._chain(window, cfg, start=start))

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_no_warm_step(self, iterations):
        window, cfg = TestStart._window(), JointConfig(iterations=iterations)
        solved = _solve_steps(window, cfg)
        assert solved[0].warm_iterations == 0 and solved[0].warm_stop_reason == "cap"
        assert self._same(solved, self._chain(window, cfg))

    @staticmethod
    def _criterion_2_window():
        spec = SceneSpec(SensorGeometry(64, 64), MultiEdge(6.5),
                         MotionParams.translation(30.0, -10.0), 0.1)
        return generate(spec, seed=1)

    def test_criterion_2_scene_takes_few_steps(self):
        # Adam took 150 + 140 steps here when the warm start handed its moments on
        window, _, truth = self._criterion_2_window()
        res = solve(window, JointConfig())
        assert res.warm_iterations + res.iterations <= 10
        err = np.linalg.norm(res.theta.values - truth.values) / np.linalg.norm(truth.values)
        assert err <= 0.01


def _weights_objective(w, m, r_ea, b_ed, alpha, beta):
    """The objective at fixed theta: max(r_ea, var(w m) - b_ed) + alpha l1 + beta fidelity."""
    return (max(r_ea, float(np.var(w * m)) - b_ed) + alpha * float(w.sum())
            + beta * float((((w - 1.0) * m) ** 2).sum()))


def _bisection_weights(m, r_ea, b_ed, alpha, beta):
    """Oracle for the exact weights by nested bisection: mu = mean(w m) by 200
    halvings at each lam, lam on r_ed(w_lam) = r_ea by 100 (or an end)."""
    n = m.size

    def at(lam):
        d = beta + lam / n
        if d == 0:
            return np.zeros_like(m)

        def w_of(mu):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = (2 * beta * m * m + 2 * lam * mu * m / n - alpha) / (2 * m * m * d)
            return np.where(m > 0, np.clip(w, 0.0, 1.0), 0.0)

        lo, hi = 0.0, float(m.mean())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (w_of(mid) * m).mean() > mid else (lo, mid)
        return w_of(0.5 * (lo + hi))

    def excess(lam):
        return float(np.var(at(lam) * m)) - b_ed - r_ea

    if excess(0.0) <= 0:
        return at(0.0), 0.0
    if excess(1.0) >= 0:
        return at(1.0), 1.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return at(0.5 * (lo + hi)), 0.5 * (lo + hi)


def _solve_weights(m, r_ea, b_ed, alpha, beta, exact=None):
    exact = joint._Exact() if exact is None else exact
    out = exact.solve(m, r_ea, b_ed, alpha, beta, np.empty(m.shape))
    return out, exact.lam


def _random_problem(seed):
    """A 6 x 7 map with about a fifth of its pixels 0, and weights and an
    alignment regret that put lam at an end or inside, by the seed."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 2.0, (6, 7)) * (rng.random((6, 7)) > 0.2)
    beta = [0.0, 1e-3, 2e-2, 1.0][seed % 4]
    alpha = [0.0, 0.05 * (beta or 1e-2)][seed // 4 % 2]
    b_ed = float(np.var(m))
    r_ea = float(np.var(m)) * rng.uniform(-1.6, 0.4)
    return m, r_ea, b_ed, alpha, beta


def _assert_kkt(w, lam, m, r_ea, b_ed, alpha, beta):
    """w and lam satisfy the optimality conditions of the weight problem."""
    assert 0.0 <= lam <= 1.0 and 0.0 <= w.min() and w.max() <= 1.0
    assert np.all(w[m == 0] == 0.0)
    n, wm = m.size, w * m
    r_ed = float(np.var(wm)) - b_ed
    tol = 1e-9 * (abs(r_ea) + b_ed)
    # lam is complementary to r_ed - r_ea
    if lam > 0:
        assert r_ed >= r_ea - tol
    if lam < 1:
        assert r_ed <= r_ea + tol
    # the Lagrangian's w gradient: >= 0 at w = 0, <= 0 at w = 1, 0 between
    grad = lam * 2.0 / n * (wm - wm.mean()) * m + alpha + 2.0 * beta * (w - 1.0) * m * m
    on = m > 0
    gtol = 1e-9 * (np.abs(grad).max() + alpha + 1e-12)
    assert np.all(grad[on & (w == 0)] >= -gtol)
    assert np.all(grad[on & (w == 1)] <= gtol)
    assert np.all(np.abs(grad[on & (w > 0) & (w < 1)]) <= gtol)


class TestExactWeights:
    """The weights `_Exact` solves minimize the objective at fixed theta."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_nested_bisection(self, seed):
        m, r_ea, b_ed, alpha, beta = problem = _random_problem(seed)
        w, lam = _solve_weights(*problem)
        want, want_lam = _bisection_weights(*problem)
        assert np.abs(w - want).max() <= 1e-8
        assert lam == pytest.approx(want_lam, abs=1e-8)
        f = _weights_objective(w, *problem)
        assert f == pytest.approx(_weights_objective(want, *problem), rel=1e-12, abs=1e-15)
        # no feasible point nearby is lower
        rng = np.random.default_rng(100 + seed)
        for scale in (1e-2, 1e-4):
            for _ in range(20):
                other = np.clip(w + rng.normal(0.0, scale, w.shape), 0.0, 1.0)
                assert f <= _weights_objective(other, *problem) + 1e-13

    @pytest.mark.parametrize("seed", range(16))
    def test_kkt_conditions(self, seed):
        problem = _random_problem(seed)
        _assert_kkt(*_solve_weights(*problem), *problem)

    def test_guesses_do_not_move_the_solution(self):
        problem = _random_problem(6)
        want, want_lam = _solve_weights(*problem)
        for lam, mu in [(0.0, 0.0), (1.0, 10.0), (0.31, 0.2)]:
            exact = joint._Exact()
            exact.lam, exact.mu = lam, mu
            w, got_lam = _solve_weights(*problem, exact=exact)
            assert np.abs(w - want).max() <= 1e-10 and got_lam == pytest.approx(want_lam, abs=1e-10)

    @staticmethod
    def _sparse_map():
        """A 64 x 64 map of faint blur tails with three bright blobs: under 1%
        of its pixels can take a weight at alpha = 0.05, beta = 1e-2."""
        yy, xx = np.mgrid[0:64, 0:64]
        m = 0.05 * np.exp(-((xx - 30.0) ** 2 + (yy - 20.0) ** 2) / 800.0)
        for cx, cy, peak in ((10, 12, 6.0), (40, 45, 9.0), (55, 8, 4.0)):
            m += peak * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 2.0)
        return m

    @staticmethod
    def _between(m, b_ed, alpha, beta, frac):
        """The r_ea frac of the way from r_ed(w_0) to r_ed(w_1), the oracle's
        weights at lam = 0 and 1: lam is 0 below frac 0, 1 above frac 1, and
        inside between."""
        w0, _ = _bisection_weights(m, math.inf, b_ed, alpha, beta)
        w1, _ = _bisection_weights(m, -math.inf, b_ed, alpha, beta)
        r0, r1 = float(np.var(w0 * m)), float(np.var(w1 * m))
        return r0 + frac * (r1 - r0) - b_ed

    @pytest.mark.parametrize("frac", [-0.5, 0.5, 1.5], ids=["lam-0", "inside", "lam-1"])
    def test_sparse_map(self, frac):
        # the root searches run on the free pixels alone; the rest read 0
        m, alpha, beta = self._sparse_map(), 0.05, 1e-2
        assert (m * (2 * beta * m + 2 * m.mean() / m.size) > alpha).mean() < 0.05
        b_ed = float(np.var(m))
        problem = (m, self._between(m, b_ed, alpha, beta, frac), b_ed, alpha, beta)
        w, lam = _solve_weights(*problem)
        want, want_lam = _bisection_weights(*problem)
        assert np.abs(w - want).max() <= 1e-8 and lam == pytest.approx(want_lam, abs=1e-8)
        assert (0.0 < lam < 1.0) == (frac == 0.5)
        _assert_kkt(w, lam, *problem)

    @pytest.mark.parametrize("frac", [0.5, 1.5], ids=["inside", "lam-1"])
    def test_pixel_on_the_screen_threshold(self, frac):
        # alpha set so that one pixel has m (2 beta m + 2 mass / n) = alpha
        # exactly: its weight is 0 at every lam and mu, and the screen's
        # margin keeps it free, where it clips to 0
        m, beta = self._sparse_map(), 1e-2
        m[30, 30] = 1.0
        n, mass = m.size, float(m.sum()) / m.size
        alpha = 2 * beta + 2 * mass / n  # at m = 1
        assert (m * (2 * beta * m + 2 * mass / n) == alpha).sum() == 1
        b_ed = float(np.var(m))
        problem = (m, self._between(m, b_ed, alpha, beta, frac), b_ed, alpha, beta)
        w, lam = _solve_weights(*problem)
        want, want_lam = _bisection_weights(*problem)
        assert w[30, 30] == 0.0
        assert np.abs(w - want).max() <= 1e-8 and lam == pytest.approx(want_lam, abs=1e-8)

    def test_solve_allocates_no_map(self):
        # A cold solve on a 256 x 256 map with 1% of its pixels free: the
        # traced peak, the screen's boolean pass and the free pixels' arrays,
        # stays below a quarter of one 512 KB map, so no trial of either root
        # search forms a map-sized temporary.
        rng = np.random.default_rng(0)
        m = rng.uniform(0.0, 0.05, (256, 256))
        bright = rng.choice(m.size, m.size // 100, replace=False)
        m.flat[bright] = rng.uniform(3.0, 9.0, bright.size)
        alpha, beta, b_ed = 0.05, 1e-2, float(np.var(m))
        ends = [float(np.var(_solve_weights(m, r, b_ed, alpha, beta)[0] * m)) for r in (1e9, -1e9)]
        r_ea = 0.5 * sum(ends) - b_ed  # lam inside
        out, exact = np.empty(m.shape), joint._Exact()
        tracemalloc.start()
        try:
            exact.solve(m, r_ea, b_ed, alpha, beta, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < exact.lam < 1.0
        assert peak < m.nbytes // 4, f"{peak >> 10} KB traced peak"

    @staticmethod
    def _window():
        spec = SceneSpec(SensorGeometry(32, 32), Dot((12.0, 16.0), 4.0),
                         MotionParams.translation(30.0, 10.0), 0.15, noise_rate=0.1)
        return generate(spec, seed=3)[0]

    @pytest.mark.parametrize("model, theta, h", [("translation2d", (-25.0, -12.0), 1e-2),
                                                 ("rotation_inplane", (0.3,), 1e-4)])
    def test_danskin_gradient_matches_central_differences(self, model, theta, h):
        # Phi(theta) = min_w F(theta, w): the theta gradient at the exact
        # weights, with lam for the max's subgradient weight, is Phi's own
        window, cfg = self._window(), JointConfig()
        ws = joint._Workspace(window, cfg, model)
        theta = MotionParams(model, np.array(theta))
        # r_ea = -b_ed / 2 at theta: lam is inside (0, 1), where the max has a kink
        f_ea = _evaluate(window, theta, None, cfg, ws.alpha, 0.0, ws.b_ed, False)[0].f_ea
        b_ea = f_ea - 0.5 * ws.b_ed

        def phi(values, want_grads=False):
            exact = joint._Exact()
            parts, dtheta, dlogits = _evaluate(window, MotionParams(model, values), exact, cfg,
                                               ws.alpha, b_ea, ws.b_ed, want_grads)
            return parts.total, dtheta, dlogits, exact.lam

        _, dtheta, dlogits, lam = phi(theta.values, want_grads=True)
        assert 0.0 < lam < 1.0 and dlogits is None
        fd = np.array([(phi(theta.values + h * e)[0] - phi(theta.values - h * e)[0]) / (2 * h)
                       for e in np.eye(len(theta.values))])
        assert np.linalg.norm(fd - dtheta) <= 1e-5 * np.linalg.norm(dtheta)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0, 1e-4), (1e-3, 0.0), (None, 1e-4)])
    @pytest.mark.parametrize("off_sensor", [0, 150])
    def test_no_runtime_warning(self, alpha, beta, off_sensor):
        # maps with m = 0 pixels, or no mass at all, under alpha = 0 and beta = 0
        window = TestWorkspaceReuse._window(150, off_sensor=off_sensor)
        cfg = JointConfig(alpha=alpha, beta=beta, iterations=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(window, cfg)
            for r_ea in (-1.0, 0.0, 1.0):
                for a in (0.0, 1e-3):
                    for b in (0.0, 1e-4):
                        w, _ = _solve_weights(np.zeros((4, 5)), r_ea, 0.0, a, b)
                        assert not w.any()
        assert np.isfinite(res.final.total)
        assert 0.0 <= res.weights.min() and res.weights.max() <= 1.0


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
    window = TestPhases._criterion_2_window()[0]
    return lambda: cmax_solve(window, "translation2d", JointConfig())


def _criterion_2_joint():
    window = TestPhases._criterion_2_window()[0]
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
# counts of the BFGS descents with exact weights (Adam on the motion and the
# logits took 161 / 162, 292 / 293, 805 / 807 and 422 / 423). A change that
# lowers a count lowers its ceiling; raising a ceiling loosens the bound.
WORK_LEDGER = {
    "criterion-2-cmax": (_criterion_2_cmax, 7, 8),
    "criterion-2-joint": (_criterion_2_joint, 13, 14),
    "seeded-stream": (_seeded_stream, 30, 32),
    "rotation": (_rotation, 15, 16),
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
    """_descend evaluates every step in one workspace. Each evaluation must
    come out bit for bit as if it had run in a fresh one, so no buffer
    carries state from one to the next; the exact weights' guesses travel in
    the `_Exact` that both runs pass."""

    ITERS = 12

    def _descend_both(self, monkeypatch, window, b_ea, b_ed, joint_mode, model="translation2d"):
        """Descend twice, every evaluation in one workspace and then each in a
        fresh one. b_ed, if not None, replaces the window's own on the
        workspace, so that b_ea and b_ed together pick the active regret."""
        def descend():
            trace = []
            ws = joint._Workspace(window, JointConfig(), model)
            if b_ed is not None:
                ws.b_ed = b_ed
            theta, steps, end, _ = _descend(ws, self.ITERS, b_ea, joint_mode,
                                            on_step=lambda it, p: trace.append(p))
            assert steps == len(trace)
            return theta, trace, end

        theta, trace, end = descend()
        fresh = joint._evaluate
        with monkeypatch.context() as mp:
            mp.setattr(joint, "_evaluate", lambda *a, ws=None, **k: fresh(*a, **k))
            ref_theta, ref_trace, ref_end = descend()
        assert theta.values.tobytes() == ref_theta.values.tobytes()
        assert _parts_bytes(trace + [end]) == _parts_bytes(ref_trace + [ref_end])
        assert len(trace) >= 2
        return trace + [end]

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
        self._descend_both(monkeypatch, window, 0.5, 0.0, True)

    def test_many_small_chunks(self, monkeypatch):
        monkeypatch.setattr(contrast, "_CHUNK_TAPS", 3 * 16)  # three events per chunk
        self._descend_both(monkeypatch, self._window(100), 0.5, 0.0, True)

    def test_events_off_the_sensor(self, monkeypatch):
        window = self._window(150, off_sensor=40)
        self._descend_both(monkeypatch, window, 0.5, 0.0, True)

    def test_rotation_model(self, monkeypatch):
        self._descend_both(monkeypatch, self._window(150), 0.5, 0.0, True,
                           model="rotation_inplane")

    def test_alignment_only(self, monkeypatch):
        trace = self._descend_both(monkeypatch, self._window(150), 0.0, None, False)
        assert all(math.isnan(p.f_ed) for p in trace)

    def test_alignment_branch(self, monkeypatch):
        # lam = 0: r_ea is the max throughout
        trace = self._descend_both(monkeypatch, self._window(150), 10.0, 0.0, True)
        assert all(p.r_ea > p.r_ed for p in trace)

    def test_denoising_branch(self, monkeypatch):
        # lam = 1: r_ed is the max throughout
        trace = self._descend_both(monkeypatch, self._window(150), 0.0, -10.0, True)
        assert all(p.r_ed > p.r_ea for p in trace)

    def test_tied_branches(self, monkeypatch):
        # a baseline between the two: lam is interior, and the weights sit on
        # the tie r_ed = r_ea
        window = self._window(150)
        cfg = JointConfig()
        b_ea = 0.5 * joint._denoise_baseline(window, cfg.sigma)
        trace = self._descend_both(monkeypatch, window, b_ea, None, True)
        assert all(abs(p.r_ed - p.r_ea) <= 1e-9 * abs(p.r_ea) for p in trace)


@pytest.mark.parametrize("model", ["translation2d", "rotation_inplane"])
@pytest.mark.parametrize("joint_mode", [False, True], ids=["alignment-only", "joint"])
def test_descend_end_is_evaluate_at_returned_point(model, joint_mode):
    # the end point's parts are _evaluate's at the returned theta (bit for bit
    # without weights; with them, up to the root searches' tolerance, as the
    # weights' guesses differ), and the warm start's theta carries into a
    # further descent
    window = TestWorkspaceReuse._window(150)
    cfg = JointConfig()
    ws = joint._Workspace(window, cfg, model)
    start, _, _, _ = _descend(ws, 5, 0.0)
    theta, steps, end, _ = _descend(ws, 7, 0.5, joint_mode, start)
    assert steps <= 7 and theta.model == model
    warped, wts = ws.warped.copy(), ws.wts.copy()
    fresh = joint._Workspace(window, cfg, model)
    want, _, _ = _evaluate(window, theta, joint._Exact() if joint_mode else None, cfg,
                           _resolve_alpha(cfg), 0.5, joint._denoise_baseline(window, cfg.sigma),
                           False, fresh)
    if joint_mode:
        assert np.allclose(dataclasses.astuple(end), dataclasses.astuple(want), rtol=1e-12)
        assert np.abs(wts - fresh.wts).max() <= 1e-9
    else:
        assert _parts_bytes([end]) == _parts_bytes([want])
    # solve samples the labels at the warped positions the end evaluation leaves
    assert warped.tobytes() == warp(window, theta).tobytes()


def _evaluate_along(window, n, want_grads, on_evaluation):
    """n joint evaluations with exact weights in one workspace, at motions a
    descent would visit, on_evaluation() before each; the last is after them."""
    cfg = JointConfig()
    ws, weights = joint._Workspace(window, cfg, "translation2d"), joint._Exact()
    alpha, b_ea = _resolve_alpha(cfg), 1.1 * ws.b_ed
    for k in range(n):
        on_evaluation()
        theta = MotionParams.translation(-4.0 * k / n, -2.5 * k / n)
        _evaluate(window, theta, weights, cfg, alpha, b_ea, ws.b_ed, want_grads, ws)
    on_evaluation()


def test_descent_steps_fault_in_few_pages():
    # On a ~900-event 96x96 window, once 5 evaluations have run, an
    # evaluation with exact weights allocates no map- or chunk-sized arrays,
    # so it faults in few fresh pages: at most 25 minor page faults per
    # evaluation over the next 50. With fresh temporaries per evaluation it
    # took about 240.
    spec = SceneSpec(SensorGeometry(96, 96), Dot((24.0, 40.0), 8.0),
                     MotionParams.translation(40.0, 25.0), 0.25, noise_rate=0.1)
    window, _, _ = generate(spec, seed=2)
    assert 850 <= len(window) <= 950
    faults = []
    _evaluate_along(window, 55, True,
                    lambda: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    per_step = (faults[-1] - faults[5]) / 50
    assert per_step <= 25, f"{per_step:.1f} minor page faults per evaluation"


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


def test_descent_steps_allocate_no_per_event_arrays():
    # The warped positions and their gradient, (N, 2) each, live in the
    # workspace: over evaluations 5-25 with exact weights on 17,000 events
    # the traced peak stays less than one such array (272 KB) above the
    # memory held at evaluation 5; numpy's 128 KB ufunc buffers fit under
    # that. Allocated per step, the two arrays took the peak to about 670 KB
    # above it.
    window = TestWorkspaceReuse._window(17000, width=32, height=32)
    held = []

    def counted():
        if len(held) == 5:
            tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        _evaluate_along(window, 25, True, counted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 26
    assert peak - held[5] < 17000 * 16, f"{(peak - held[5]) >> 10} KB above evaluation 5"


def test_descent_memory_does_not_grow_with_iterations(monkeypatch):
    # A descent that never settles runs to its cap and keeps no per-step
    # record: the traced peak at 1,000 steps is within 32 KB of the peak at
    # 100. The objective is a linear ramp in x, on which every 1 px step is
    # taken and BFGS learns no curvature. A list of every step's
    # ObjectiveParts took about 0.4 KB per step, some 370 KB more.
    def ramp(window, theta, logits, cfg, alpha, b_ea, b_ed, want_grads, ws):
        x = theta.values[0] * ws.span
        parts = joint.ObjectiveParts(x, 0.0, -x, -1e300, -x, 0.0, 0.0, -x)
        return parts, np.array([-ws.span, 0.0]) if want_grads else None, None

    monkeypatch.setattr(joint, "_evaluate", ramp)
    window = TestWorkspaceReuse._window(52)
    results, peaks = [], []
    for iterations in (100, 1000):
        ws = joint._Workspace(window, JointConfig(), "translation2d")
        tracemalloc.start()
        try:
            results.append(_descend(ws, iterations, 0.0, True))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 << 10, f"{peaks[0] >> 10} KB, then {peaks[1] >> 10} KB"
    assert [(steps, stop) for _, steps, _, stop in results] == [(100, "cap"), (1000, "cap")]
    assert results[1][0].values[0] * 0.1 == pytest.approx(1000.0)
