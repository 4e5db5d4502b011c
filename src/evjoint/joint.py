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
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .contrast import SIGMA_DEFAULT, ConfidenceMap, _splat, kernel_size, sigmoid
from .events import EventWindow
from .warp import (TRANSLATION_2D, MotionParams, _rotation_center, model_dim, warp_positions,
                   warp_pullback)

# Below this event count the variance objectives are meaningless;
# such windows are returned unoptimized with every event marked noise.
DEGENERATE_MIN_EVENTS = 10

# The auto L1 weight places the half-confidence mass threshold
# sqrt(alpha / beta) at this many single-event kernel peaks, separating
# pixels that could hold a couple of stray events from signal
# accumulations, independent of the overall event count.
ALPHA_PEAK_MULTIPLES = 2.5

KAPPA_DEFAULT = 1.1

# Adam's moment decay rates, denominator floor and step sizes (phi in pixels, logits)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_THETA, LR_LOGITS = 0.05, 0.1
ADAM_MAX_GRAD = 1e150  # the largest |gradient| adam_step takes: its square stays finite

# Stop rule of every descent: every STOP_EVERY steps it stops once phi has
# moved at most STOP_EVERY * STOP_PX px per axis and no confidence weight
# more than STOP_WEIGHT since the previous check.
STOP_EVERY, STOP_PX, STOP_WEIGHT = 10, 3e-4, 1e-2


class NonFiniteObjective(RuntimeError):
    """The objective became NaN or infinite during the ascent."""


@dataclass(frozen=True)
class ExplicitBaseline:
    """Use a fixed alignment baseline value."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"b_ea must be finite, got {self.value}")


@dataclass(frozen=True)
class WarmStartScaled:
    """Set the alignment baseline to kappa times the warm-started variance."""

    kappa: float = KAPPA_DEFAULT

    def __post_init__(self) -> None:
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


BaselineSpec = Union[ExplicitBaseline, WarmStartScaled]


@dataclass(frozen=True)
class JointConfig:
    """Objective weights, alignment baseline, kernel width, label threshold
    and `iterations`, the most steps the joint phase runs (the warm start
    runs at most half as many); either phase stops earlier once it settles."""

    alpha: float | None = None
    beta: float = 1e-4
    b_ea: BaselineSpec = field(default_factory=WarmStartScaled)
    iterations: int = 300
    sigma: float = SIGMA_DEFAULT
    tau: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha is not None and not (0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        if not (0 <= self.beta < math.inf):
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        if not isinstance(self.b_ea, (ExplicitBaseline, WarmStartScaled)):
            raise ValueError("b_ea must be ExplicitBaseline or WarmStartScaled")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        kernel_size(self.sigma)
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
    """One window's result: theta, the motion; conf, the confidence map;
    labels, confidence >= tau; confidence, the map's weights sampled
    bilinearly at each event warped by theta; iterations, the joint phase's
    step count; final, the objective's parts at its end point; b_ea, b_ed
    and alpha, the baselines and L1 weight used; stop_reason, why the last
    descent stopped, "settled" or "cap"; warm_iterations, the alignment-only
    descent's step count (the warm start's, or all of `cmax`'s); seeded,
    whether the first descent began at the caller's `start`;
    resumed, whether the joint phase resumed the warm start's Adam state
    (exactly when the warm start stopped at its cap). Results no objective
    produced keep the defaults: no steps, no stop reason, NaN baselines."""

    theta: MotionParams
    conf: ConfidenceMap
    labels: np.ndarray
    confidence: np.ndarray
    iterations: int = 0
    final: ObjectiveParts | None = None
    b_ea: float = math.nan
    b_ed: float = math.nan
    alpha: float = math.nan
    stop_reason: str | None = None
    warm_iterations: int = 0
    seeded: bool = False
    resumed: bool = False


@dataclass(frozen=True)
class AdamState:
    """Moments, step count and two parameter-shaped scratch arrays (allocated if None)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scratch is None:
            object.__setattr__(self, "scratch", np.empty((2,) + self.m.shape))

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update of the float64 array params and of the
    moments, in place. Returns (params, state with the moments and step);
    ValueError if a gradient is NaN or above ADAM_MAX_GRAD in magnitude."""
    grads = np.asarray(grads, dtype=np.float64)
    m, v, (a, b) = state.m, state.v, state.scratch
    if not np.abs(grads, out=a).max() <= ADAM_MAX_GRAD:  # False for NaN too
        raise ValueError(f"gradient passed to adam_step is NaN or above {ADAM_MAX_GRAD:g} in "
                         "magnitude; lower the objective's weights")
    step = state.step + 1
    m *= ADAM_BETA1  # m = beta1 m + (1 - beta1) g
    m += np.multiply(1.0 - ADAM_BETA1, grads, out=a)
    v *= ADAM_BETA2  # v = beta2 v + (1 - beta2) g g
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grads, out=a), grads, out=a)
    np.multiply(lr, np.divide(m, 1.0 - ADAM_BETA1 ** step, out=a), out=a)  # lr m_hat
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** step, out=b), out=b)
    params -= np.divide(a, np.add(b, ADAM_EPS, out=b), out=a)  # / (sqrt(v_hat) + eps)
    return params, AdamState(m, v, step, state.scratch)


def interpolate_confidence(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Bilinear sample of a per-pixel grid at continuous positions.

    Grid values sit at pixel centers; samples outside the grid clamp to the
    border pixel. Coordinates are clipped to +-2^62, where every float is an
    integer, before the int64 cast.
    """
    h, w = weights.shape
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    u, v = np.clip(positions.T - 0.5, -2.0**62, 2.0**62)
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
    """b_ed: variance of the unwarped, unweighted smooth map. It never
    depends on theta or the logits; a _Workspace holds it from its first
    splat."""
    return float(np.var(_splat(window.positions, window.geometry, sigma).values))


def _resolve_alpha(cfg: JointConfig) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    peak = 1.0 / (2.0 * math.pi * cfg.sigma * cfg.sigma)
    return (ALPHA_PEAK_MULTIPLES * peak) ** 2 * cfg.beta


class _Workspace:
    """One window's solve. It holds fixed the window, config, model, resolved
    alpha, span (duration, 1 s if zero), theta-free warp inputs (positions,
    time offsets, rotation center) and b_ed, the variance of the splat
    kernel's first map, the unwarped positions'; every evaluation reuses the
    kernel (within contrast.WORKSPACE_LIMIT_BYTES), five H x W maps, and the
    warped positions and their gradient: 56 bytes per event. `solve` and
    `cmax` build one per non-degenerate window; it is dropped with that call."""

    def __init__(self, window: EventWindow, cfg: JointConfig, model: str):
        self.window, self.cfg, self.model = window, cfg, model
        self.alpha = _resolve_alpha(cfg)
        self.span = (window.t_end - window.t_start) or 1.0  # EventWindow keeps t_end >= t_start
        self.positions = window.positions
        self.splat = _splat(self.positions, window.geometry, cfg.sigma)
        self.b_ed = float(np.var(self.splat.values))
        self.dt = window.times - window.t_ref
        self.center = _rotation_center(window)
        self.dev, self.wts, self.adev, self.resid, self.tmp = np.empty((5,) + window.geometry.shape)
        self.warped, self.dpos = np.empty((len(window), 2)), np.empty((2, len(window)))


def _evaluate(window, theta: MotionParams, logits, cfg, alpha, b_ea, b_ed, want_grads: bool,
              ws: _Workspace | None = None):
    """Objective parts and, optionally, gradients w.r.t. theta and logits.

    With logits=None only the alignment regret b_ea - f_ea is evaluated
    (worst_regret and total equal it): the denoising parts are NaN, alpha and
    b_ed are unused, and there is no logit gradient. Its arrays live in ws's
    five maps (a fresh _Workspace when None) until the next call; dlogits is ws.adev.
    """
    if ws is None:
        ws = _Workspace(window, cfg, theta.model)
    cache = _splat(warp_positions(ws.positions, ws.dt, theta, ws.center, ws.warped),
                   window.geometry, cfg.sigma, ws.splat)
    m, tmp = cache.values, ws.tmp
    n_pix = m.size
    mu_m = m.mean()
    dev = np.subtract(m, mu_m, out=ws.dev)
    f_ea = float(np.square(dev, out=tmp).mean())
    r_ea = b_ea - f_ea
    if logits is None:
        nan = r_ed = math.nan
        parts = ObjectiveParts(f_ea, nan, r_ea, nan, r_ea, nan, nan, r_ea)
    else:
        wts = sigmoid(logits, out=ws.wts)
        adev = np.multiply(wts, m, out=ws.adev)
        mu_w = adev.mean()
        adev -= mu_w
        f_ed = float(np.square(adev, out=tmp).mean())
        r_ed = f_ed - b_ed
        worst = max(r_ea, r_ed)
        l1 = float(wts.sum())
        resid = np.multiply(np.subtract(wts, 1.0, out=ws.resid), m, out=ws.resid)
        fidelity = float(np.square(resid, out=tmp).sum())
        total = worst + alpha * l1 + cfg.beta * fidelity
        parts = ObjectiveParts(f_ea, f_ed, r_ea, r_ed, worst, l1, fidelity, total)
    # subgradient of max(r_ea, r_ed), r_ed weighted by w_ed and r_ea by w_ea = 1 - w_ed:
    # off a tie the inactive regret's terms are +-0 and leave the active one's bits
    w_ed = 0.5 * ((r_ed > r_ea) + (r_ed >= r_ea))  # 1, 0 or 1/2 on a tie; 0 if r_ed is NaN
    if not want_grads:
        return parts, None, None

    coef = np.multiply(-(2.0 * (1.0 - w_ed) / n_pix), dev, out=dev)  # -(2 w_ea / n) dev
    dlogits = None
    if logits is not None:
        # dlog_r = (2 w_ed / n) (a - mu_w) m; its coef term has wts for m
        dlogits = np.multiply(2.0 * w_ed / n_pix, adev, out=adev)
        coef += np.multiply(dlogits, wts, out=tmp)
        dlogits *= m
        # coef + 2 beta (wts - 1) resid; (dlog_r + alpha + 2 beta resid m) wts (1 - wts)
        coef += np.multiply(np.multiply(2.0 * cfg.beta, np.subtract(wts, 1.0, out=tmp), out=tmp),
                            resid, out=tmp)
        dlogits += alpha
        dlogits += np.multiply(np.multiply(2.0 * cfg.beta, resid, out=tmp), m, out=tmp)
        dlogits *= wts
        dlogits *= np.subtract(1.0, wts, out=tmp)
    dtheta = warp_pullback(cache.position_gradient(coef, ws.dpos), ws.positions, ws.dt, theta,
                           ws.center)
    return parts, dtheta, dlogits


def _evaluate_explicit(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
                       cfg: JointConfig, want_grads: bool):
    """_evaluate at (theta, conf) with the config's explicit alignment baseline."""
    if not isinstance(cfg.b_ea, ExplicitBaseline):
        raise ValueError("objective evaluation needs an explicit alignment baseline; "
                         "solve() resolves warm-started baselines before optimizing")
    ws = _Workspace(window, cfg, theta.model)
    return _evaluate(window, theta, conf.logits, cfg, ws.alpha, float(cfg.b_ea.value), ws.b_ed,
                     want_grads, ws)


def objective(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
              cfg: JointConfig) -> ObjectiveParts:
    """Evaluate the scalarized objective at (theta, conf)."""
    return _evaluate_explicit(window, theta, conf, cfg, want_grads=False)[0]


def objective_gradients(window: EventWindow, theta: MotionParams, conf: ConfidenceMap,
                        cfg: JointConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (d total / d theta, d total / d logits) at (theta, conf)."""
    _, dtheta, dlogits = _evaluate_explicit(window, theta, conf, cfg, want_grads=True)
    return dtheta, dlogits


def _guarded_start(ws: _Workspace, start: MotionParams | None) -> MotionParams | None:
    """start if its alignment variance f_ea on ws's window is strictly above
    ws.b_ed, f_ea at zero motion, else None (descend from zero motion).
    One evaluation in ws, without gradients; none when start is None."""
    if start is None:
        return None
    if start.model != ws.model:
        raise ValueError(f"start is a {start.model} motion, the solve's model is {ws.model}")
    f_start = _evaluate(ws.window, start, None, ws.cfg, ws.alpha, 0.0, ws.b_ed, False, ws)[0].f_ea
    return start if f_start > ws.b_ed else None


def _descend(ws: _Workspace, iterations: int, b_ea: float, logits: np.ndarray | None = None,
             theta: MotionParams | None = None, state: AdamState | None = None, on_step=None):
    """Full-batch Adam descent on ws's objective (its window, config, model,
    alpha and b_ed) from theta (zero motion if None), at most `iterations` steps.

    Steps phi = theta * ws.span (pixels across the window) at LR_THETA,
    whatever the window duration or the motion's magnitude. With
    logits=None only the alignment regret b_ea - f_ea is descended (f_ea
    ascends); otherwise the logits step at LR_LOGITS after phi. Every
    STOP_EVERY steps the point just evaluated is compared with the previous
    check's: once phi moved at most STOP_EVERY * STOP_PX px per axis and no
    weight more than STOP_WEIGHT, it is the end point. The rule reads neither
    the objective nor the gradients. Each evaluation runs in ws's five maps
    (dlogits lives in ws.adev until the next) and each step updates copies
    of phi and logits in place. At the cap the end point is evaluated once
    more without gradients; either way its warped positions and weights are
    left in ws.warped and ws.wts. phi's Adam moments and
    step count start from `state` (zeros when None), which the descent
    updates in place, so a descent that resumes another's carries on its
    bias correction. on_step(it, parts), if given, is called with each
    stepped point as its step is taken; nothing is kept per step.
    Returns (theta, logits, the number of steps, end point's parts, phi's
    Adam state if the descent stopped at the cap, else None: a settled
    descent has no motion left to hand on); NonFiniteObjective if any
    evaluation's total is not finite.
    """
    phi = np.zeros(model_dim(ws.model)) if theta is None else theta.values * ws.span
    phi_then, wts_then = phi.copy(), None
    if logits is not None:
        logits = np.array(logits, dtype=np.float64)
        wts_then = np.empty_like(logits)
    state_phi = AdamState.zeros_like(phi) if state is None else state
    state_log = None if logits is None else AdamState.zeros_like(logits)
    for it in range(iterations + 1):
        theta = MotionParams(ws.model, phi / ws.span)
        parts, dtheta, dlogits = _evaluate(ws.window, theta, logits, ws.cfg, ws.alpha, b_ea,
                                           ws.b_ed, want_grads=it < iterations, ws=ws)
        if not np.isfinite(parts.total):
            raise NonFiniteObjective(f"non-finite objective at iteration {it}")
        if it == iterations:
            return theta, logits, it, parts, state_phi
        if it % STOP_EVERY == 0:
            if it and np.abs(phi - phi_then).max() <= STOP_EVERY * STOP_PX and (
                    wts_then is None
                    or np.abs(np.subtract(ws.wts, wts_then, out=ws.tmp), out=ws.tmp).max()
                    <= STOP_WEIGHT):
                return theta, logits, it, parts, None
            phi_then[:] = phi
            if wts_then is not None:
                wts_then[...] = ws.wts
        if on_step is not None:
            on_step(it, parts)
        phi, state_phi = adam_step(phi, dtheta / ws.span, state_phi, LR_THETA)
        if logits is not None:
            logits, state_log = adam_step(logits, dlogits, state_log, LR_LOGITS)


def _all_noise(window: EventWindow, theta: MotionParams, **record) -> JointResult:
    """Motion theta with every event noise: an all-zero map and confidence.
    record holds further JointResult fields."""
    blank = ConfidenceMap.from_weights_mask(np.zeros(window.geometry.shape, dtype=bool))
    return JointResult(theta, blank, np.zeros(len(window), dtype=bool), np.zeros(len(window)),
                       **record)


def cmax(window: EventWindow, model: str, cfg: JointConfig,
         start: MotionParams | None = None) -> JointResult:
    """Contrast maximization: Adam ascent on the alignment variance alone,
    `solve`'s warm start run to at most cfg.iterations steps, from zero
    motion or from start under `solve`'s guard. It labels no event signal;
    the result records the steps as warm_iterations, stop_reason and
    seeded. A window of fewer than DEGENERATE_MIN_EVENTS events gets zero
    motion and stop_reason None."""
    if len(window) < DEGENERATE_MIN_EVENTS:
        return _all_noise(window, MotionParams.zero(model))
    ws = _Workspace(window, cfg, model)
    seed = _guarded_start(ws, start)
    theta, _, steps, _, capped = _descend(ws, cfg.iterations, 0.0, theta=seed)
    return _all_noise(window, theta, warm_iterations=steps, seeded=seed is not None,
                      stop_reason="settled" if capped is None else "cap")


def solve(window: EventWindow, cfg: JointConfig, model: str = TRANSLATION_2D,
          start: MotionParams | None = None, on_step=None) -> JointResult:
    """Jointly optimize motion and the per-pixel confidence map.

    Runs `_descend` from theta = 0 and logits = 0 (weights 0.5), both phases
    in one workspace; each stops once it settles, the joint phase after at
    most cfg.iterations steps. With a warm-started alignment baseline, an
    alignment-only phase of at most half the iteration budget runs first and
    b_ea is kappa times f_ea at its end point; the joint phase then starts
    from the warm-started motion. If the warm start stopped at its cap it was
    still moving, and the joint phase resumes its motion's Adam moments and
    step count (`resumed`); if it settled, the joint phase starts from zero
    moments, since a settled descent's small second moment would inflate the
    first joint steps. A `start` (say, the previous window's
    motion) is guarded: the alignment variance f_ea is evaluated at start,
    without gradients, and the first phase begins at start only if its f_ea
    is strictly larger than b_ed, the unwarped map's variance and so f_ea at
    zero motion (`seeded` records which). A seed that no longer fits, as
    after the motion reverses, thus costs one evaluation and changes
    nothing; without start the solve is the unseeded one, bit for bit. Each
    event's confidence is the bilinear sample of the final weights at its
    warped position, both of which the joint phase's end evaluation leaves
    in the workspace; it is signal when that reaches tau. A window of fewer
    than DEGENERATE_MIN_EVENTS events gets zero motion, an all-noise map,
    confidence 0, NaN b_ed and stop_reason None, and allocates no maps; the
    result states the case, so no warning is raised.
    on_step, if given, sees the joint phase's steps as `_descend` takes them.
    Deterministic: the solver is full-batch.
    """
    if len(window) < DEGENERATE_MIN_EVENTS:
        return _all_noise(window, MotionParams.zero(model), alpha=_resolve_alpha(cfg))

    ws = _Workspace(window, cfg, model)
    theta = seed = _guarded_start(ws, start)
    warm, state = 0, None
    if isinstance(cfg.b_ea, WarmStartScaled):
        theta, _, warm, end, state = _descend(ws, cfg.iterations // 2, 0.0, theta=theta)
        b_ea = cfg.b_ea.kappa * end.f_ea
    else:
        b_ea = float(cfg.b_ea.value)
    theta, logits, steps, final, capped = _descend(
        ws, cfg.iterations, b_ea, np.zeros(window.geometry.shape), theta, state, on_step)
    confidence = interpolate_confidence(ws.wts, ws.warped)
    return JointResult(theta, ConfidenceMap(logits), confidence >= cfg.tau, confidence,
                       iterations=steps, final=final, b_ea=b_ea, b_ed=ws.b_ed, alpha=ws.alpha,
                       stop_reason="settled" if capped is None else "cap",
                       warm_iterations=warm, seeded=seed is not None,
                       resumed=state is not None)
