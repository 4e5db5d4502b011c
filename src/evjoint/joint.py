"""Joint motion and confidence estimation by worst-case regret minimization.

The two objectives are the variance of the warped accumulation map (to be
maximized for alignment) and the variance of its confidence-weighted
counterpart (to be minimized for denoising). Each is turned into a regret
against a baseline; the scalar objective is the larger regret plus an L1
sparsity penalty on the confidence weights and a fidelity term that keeps
the weighted map close to the unweighted one. Both parameter blocks are
updated with a hand-rolled bias-corrected Adam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .contrast import SIGMA_DEFAULT, ConfidenceMap, _splat, sigmoid
from .events import EventWindow
from .warp import TRANSLATION_2D, MotionParams, model_dim, warp, warp_jacobian

# Below this event count the variance objectives are meaningless;
# such windows are returned unoptimized with every event marked noise.
DEGENERATE_MIN_EVENTS = 10

# The auto L1 weight places the half-confidence mass threshold
# sqrt(alpha / beta) at this many single-event kernel peaks, separating
# pixels that could hold a couple of stray events from signal
# accumulations, independent of the overall event count.
ALPHA_PEAK_MULTIPLES = 2.5

KAPPA_DEFAULT = 1.1


class NonFiniteObjective(RuntimeError):
    """The objective became NaN or infinite during the ascent."""


@dataclass(frozen=True)
class ExplicitBaseline:
    """Use a fixed alignment baseline value."""

    value: float


@dataclass(frozen=True)
class WarmStartScaled:
    """Set the alignment baseline to kappa times the warm-started variance."""

    kappa: float = KAPPA_DEFAULT


BaselineSpec = Union[ExplicitBaseline, WarmStartScaled]


@dataclass(frozen=True)
class JointConfig:
    alpha: float | None = None
    beta: float = 1e-4
    b_ea: BaselineSpec = field(default_factory=WarmStartScaled)
    iterations: int = 300
    learning_rate_theta: float = 0.05
    learning_rate_logits: float = 0.1
    sigma: float = SIGMA_DEFAULT
    tau: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha is not None and not (self.alpha >= 0):
            raise ValueError("alpha must be non-negative")
        if not (self.beta >= 0):
            raise ValueError("beta must be non-negative")
        if not isinstance(self.b_ea, (ExplicitBaseline, WarmStartScaled)):
            raise ValueError("b_ea must be ExplicitBaseline or WarmStartScaled")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (self.learning_rate_theta > 0 and self.learning_rate_logits > 0):
            raise ValueError("learning rates must be positive")
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")


@dataclass(frozen=True)
class ObjectiveParts:
    """One evaluation of the scalarized objective, term by term."""

    f_ea: float
    f_ed: float
    r_ea: float
    r_ed: float
    worst_regret: float
    l1: float
    fidelity: float
    total: float


@dataclass(frozen=True)
class JointResult:
    """Motion, confidence map and labels; the solver's record defaults to
    empty traces and NaN baselines for results no objective produced."""

    theta: MotionParams
    conf: ConfidenceMap
    labels: np.ndarray
    trace: list[ObjectiveParts] = field(default_factory=list)
    warm_trace: list[float] = field(default_factory=list)
    final: ObjectiveParts | None = None
    b_ea: float = math.nan
    b_ed: float = math.nan
    alpha: float = math.nan


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), 0)


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update. Returns (new params, new state)."""
    grads = np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient passed to adam_step")
    step = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m, v, step)


def interpolate_confidence(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Bilinear sample of a per-pixel grid at continuous positions.

    Grid values sit at pixel centers; samples outside the grid clamp to the
    border pixel.
    """
    h, w = weights.shape
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    u = positions[:, 0] - 0.5
    v = positions[:, 1] - 0.5
    j0 = np.floor(u).astype(np.int64)
    i0 = np.floor(v).astype(np.int64)
    fx = u - j0
    fy = v - i0
    j0c = np.clip(j0, 0, w - 1)
    j1c = np.clip(j0 + 1, 0, w - 1)
    i0c = np.clip(i0, 0, h - 1)
    i1c = np.clip(i0 + 1, 0, h - 1)
    top = (1.0 - fx) * weights[i0c, j0c] + fx * weights[i0c, j1c]
    bot = (1.0 - fx) * weights[i1c, j0c] + fx * weights[i1c, j1c]
    return (1.0 - fy) * top + fy * bot


def _denoise_baseline(window: EventWindow, sigma: float) -> float:
    """b_ed: variance of the unwarped, unweighted smooth map.

    It depends on the window and sigma only, never on theta or the logits,
    so it is splatted once per window and sigma and kept in the window's
    memo: gradient checks call objective() hundreds of times on one window.
    """
    key = ("b_ed", sigma)
    if key not in window.derived:
        raw = _splat(window.positions, window.geometry, sigma).values
        window.derived[key] = float(np.var(raw))
    return window.derived[key]


def _resolve_alpha(cfg: JointConfig) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    peak = 1.0 / (2.0 * math.pi * cfg.sigma * cfg.sigma)
    return (ALPHA_PEAK_MULTIPLES * peak) ** 2 * cfg.beta


def _evaluate(window, theta: MotionParams, logits, cfg, alpha, b_ea, b_ed, want_grads: bool):
    """Objective parts and, optionally, gradients w.r.t. theta and logits.

    With logits=None only the alignment regret b_ea - f_ea is evaluated
    (worst_regret and total equal it): the denoising parts are NaN, alpha and
    b_ed are unused, and there is no logit gradient.
    """
    cache = _splat(warp(window, theta), window.geometry, cfg.sigma)
    m = cache.values
    n_pix = m.size
    mu_m = m.mean()
    f_ea = float(((m - mu_m) ** 2).mean())
    r_ea = b_ea - f_ea
    if logits is None:
        nan = math.nan
        parts = ObjectiveParts(f_ea, nan, r_ea, nan, r_ea, nan, nan, r_ea)
        if not want_grads:
            return parts, None, None
        coef_m, dlogits = -(2.0 / n_pix) * (m - mu_m), None
    else:
        wts = sigmoid(logits)
        a = wts * m
        mu_w = a.mean()
        f_ed = float(((a - mu_w) ** 2).mean())
        r_ed = f_ed - b_ed
        worst = max(r_ea, r_ed)
        l1 = float(wts.sum())
        resid = (wts - 1.0) * m
        fidelity = float((resid ** 2).sum())
        total = worst + alpha * l1 + cfg.beta * fidelity
        parts = ObjectiveParts(f_ea, f_ed, r_ea, r_ed, worst, l1, fidelity, total)
        if not want_grads:
            return parts, None, None

        # subgradient of max(r_ea, r_ed): active branch, averaged on a tie
        if r_ea > r_ed:
            coef_m = -(2.0 / n_pix) * (m - mu_m)
            dlog_r = 0.0
        elif r_ed > r_ea:
            coef_m = (2.0 / n_pix) * (a - mu_w) * wts
            dlog_r = (2.0 / n_pix) * (a - mu_w) * m
        else:
            coef_m = (1.0 / n_pix) * ((a - mu_w) * wts - (m - mu_m))
            dlog_r = (1.0 / n_pix) * (a - mu_w) * m
        coef_m = coef_m + 2.0 * cfg.beta * (wts - 1.0) * resid
        dlogits = (dlog_r + alpha + 2.0 * cfg.beta * resid * m) * wts * (1.0 - wts)
    dpos = cache.position_gradient(coef_m)
    dtheta = np.einsum("ka,kap->p", dpos, warp_jacobian(window, theta))
    return parts, dtheta, dlogits


def _evaluate_explicit(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
                       cfg: JointConfig, want_grads: bool):
    """_evaluate at (theta, conf) with the config's explicit alignment baseline."""
    if not isinstance(cfg.b_ea, ExplicitBaseline):
        raise ValueError("objective evaluation needs an explicit alignment baseline; "
                         "solve() resolves warm-started baselines before optimizing")
    return _evaluate(window, theta, conf.logits, cfg, _resolve_alpha(cfg), float(cfg.b_ea.value),
                     _denoise_baseline(window, cfg.sigma), want_grads)


def objective(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
              cfg: JointConfig) -> ObjectiveParts:
    """Evaluate the scalarized objective at (theta, conf)."""
    return _evaluate_explicit(window, theta, conf, cfg, want_grads=False)[0]


def objective_gradients(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
                        cfg: JointConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (d total / d theta, d total / d logits) at (theta, conf)."""
    _, dtheta, dlogits = _evaluate_explicit(window, theta, conf, cfg, want_grads=True)
    return dtheta, dlogits


def _time_scale(window: EventWindow) -> float:
    span = window.t_end - window.t_start
    return span if span > 0 else 1.0


def _descend(window: EventWindow, model: str, cfg: JointConfig, iterations: int, b_ea: float,
             logits: np.ndarray | None = None, alpha: float = math.nan, b_ed: float = math.nan,
             phi: np.ndarray | None = None):
    """Full-batch Adam descent on the objective from phi (zero motion if None).

    Works in window-displacement units (pixels across the window span), so
    the step size is independent of the window duration and of the raw
    magnitude of the motion parameters. With logits=None only the alignment
    regret b_ea - f_ea is descended, which ascends f_ea; otherwise the
    logits are stepped after phi. Returns (phi, logits, trace of parts).
    """
    tspan = _time_scale(window)
    if phi is None:
        phi = np.zeros(model_dim(model))
    state_phi = AdamState.zeros_like(phi)
    state_log = None if logits is None else AdamState.zeros_like(logits)
    trace: list[ObjectiveParts] = []
    for it in range(iterations):
        parts, dtheta, dlogits = _evaluate(window, MotionParams(model, phi / tspan), logits, cfg,
                                           alpha, b_ea, b_ed, want_grads=True)
        if not np.isfinite(parts.total):
            raise NonFiniteObjective(f"non-finite objective at iteration {it}")
        trace.append(parts)
        phi, state_phi = adam_step(phi, dtheta / tspan, state_phi, cfg.learning_rate_theta)
        if logits is not None:
            logits, state_log = adam_step(logits, dlogits, state_log, cfg.learning_rate_logits)
    return phi, logits, trace


def solve(window: EventWindow, cfg: JointConfig, model: str = TRANSLATION_2D) -> JointResult:
    """Jointly optimize motion and the per-pixel confidence map.

    Runs full-batch Adam from theta = 0 and logits = 0 (weights 0.5). With a
    warm-started alignment baseline, an alignment-only phase of half the
    iteration budget runs first; the joint phase then restarts from the
    warm-started motion. Events are finally classified as signal when the
    bilinear sample of the confidence weights at their warped position
    reaches tau. Deterministic: the solver is full-batch.
    """
    b_ed = _denoise_baseline(window, cfg.sigma)
    alpha = _resolve_alpha(cfg)
    if len(window) < DEGENERATE_MIN_EVENTS:
        warnings.warn(
            f"window with {len(window)} events is too small to optimize; "
            "returning zero motion and all-noise labels",
            stacklevel=2,
        )
        return JointResult(MotionParams.zero(model), ConfidenceMap.zeros(window.geometry),
                           np.zeros(len(window), dtype=bool), b_ed=b_ed, alpha=alpha)

    tspan = _time_scale(window)
    phi, warm_trace = None, []
    if isinstance(cfg.b_ea, WarmStartScaled):
        phi, _, warm = _descend(window, model, cfg, cfg.iterations // 2, 0.0)
        warm_trace = [p.f_ea for p in warm]
        end, _, _ = _evaluate(window, MotionParams(model, phi / tspan), None, cfg,
                              math.nan, 0.0, math.nan, want_grads=False)
        b_ea = cfg.b_ea.kappa * end.f_ea
    else:
        b_ea = float(cfg.b_ea.value)
    phi, logits, trace = _descend(window, model, cfg, cfg.iterations, b_ea,
                                  np.zeros(window.geometry.shape), alpha, b_ed, phi)

    theta = MotionParams(model, phi / tspan)
    final, _, _ = _evaluate(window, theta, logits, cfg, alpha, b_ea, b_ed, want_grads=False)
    labels = interpolate_confidence(sigmoid(logits), warp(window, theta)) >= cfg.tau
    return JointResult(
        theta=theta,
        conf=ConfidenceMap(logits),
        labels=labels,
        trace=trace,
        warm_trace=warm_trace,
        final=final,
        b_ea=b_ea,
        b_ed=b_ed,
        alpha=alpha,
    )
