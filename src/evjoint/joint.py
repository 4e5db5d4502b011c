"""Joint motion and confidence estimation by worst-case regret minimization.

The two objectives are the variance of the warped accumulation map (to be
maximized for alignment) and the variance of its confidence-weighted
counterpart (to be minimized for denoising). Each is turned into a regret
against a baseline; the scalar objective is the larger regret plus an L1
sparsity penalty on the confidence weights and a fidelity term that keeps
the weighted map close to the unweighted one.

At a fixed motion theta that objective is convex in the confidence weights,
so every evaluation of the joint phase solves them exactly (`_Exact`), and
the solver searches over theta alone: one or two parameters, stepped by a
hand-rolled BFGS with a backtracking line search (`_descend`) on
Phi(theta) = min_w F(theta, w), whose gradient is Danskin's. The warm start
and plain contrast maximization run the same loop on the alignment variance
alone. `iterations` caps each descent's steps, one line search each.
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

# Adam's moment decay rates and denominator floor: `adam_step` is public,
# though no descent runs it
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Every descent is BFGS on phi = theta * span (pixels across the window). Its
# first step moves phi STEP0_PX px along the steepest descent, and a step is
# taken where the merit falls by at least ARMIJO_C1 of the linear model's
# drop (backtracking). It has settled once a proposed step, or a shortened
# trial, moves phi at most STOP_PX px on every axis. A gradient above MAX_GRAD
# in magnitude is refused, by BFGS and by `adam_step`: their products of two
# stay finite.
STEP0_PX, STOP_PX, ARMIJO_C1 = 1.0, 1e-4, 1e-4
MAX_GRAD = 1e150

# The exact weights' scalar root searches stop once their bracket or step is
# below ROOT_TOL of its range, or after ROOT_STEPS points.
ROOT_TOL, ROOT_STEPS = 1e-13, 60


class NonFiniteObjective(RuntimeError):
    """The objective became NaN or infinite, or its motion gradient too large to
    step, during a descent."""


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
    runs at most half as many), a step being one line search of `_descend`;
    either phase stops earlier once it settles."""

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
    """One window's result: theta, the motion; weights, the per-pixel
    confidence map in [0, 1]; labels, confidence >= tau; confidence, the
    weights sampled bilinearly at each event warped by theta; iterations,
    the joint phase's step count; final, the objective's parts at its end
    point; b_ea, b_ed and alpha, the baselines and L1 weight used;
    stop_reason, why the last descent stopped, "settled" or "cap";
    warm_iterations, the alignment-only descent's step count (the warm
    start's, or all of `cmax`'s), and warm_stop_reason, the warm start's stop
    (None when none ran, as under an explicit b_ea or in `cmax`, whose stop
    is stop_reason); seeded, whether the first descent began at the caller's
    `start`. Results no objective produced keep the defaults: no steps, no
    stop reason, NaN baselines."""

    theta: MotionParams
    weights: np.ndarray
    labels: np.ndarray
    confidence: np.ndarray
    iterations: int = 0
    final: ObjectiveParts | None = None
    b_ea: float = math.nan
    b_ed: float = math.nan
    alpha: float = math.nan
    stop_reason: str | None = None
    warm_iterations: int = 0
    warm_stop_reason: str | None = None
    seeded: bool = False


@dataclass(frozen=True)
class AdamState:
    """Adam's first and second moments and step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update of the float64 array params, in place.
    Returns (params, the state with the new moments and step); ValueError if
    a gradient is NaN or above MAX_GRAD in magnitude."""
    grads = np.asarray(grads, dtype=np.float64)
    if not np.abs(grads).max() <= MAX_GRAD:  # False for NaN too
        raise ValueError(f"gradient passed to adam_step is NaN or above {MAX_GRAD:g} in "
                         "magnitude; lower the objective's weights")
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat, v_hat = m / (1.0 - ADAM_BETA1 ** step), v / (1.0 - ADAM_BETA2 ** step)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, AdamState(m, v, step)


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


def _falling_root(f, lo: float, hi: float, x: float, step, tol: float) -> float:
    """Where the nonincreasing f crosses zero on [lo, hi]: lo if f(lo) <= 0, hi
    if f(hi) >= 0. From the guess x the first step is step(f(x)), the next
    ones secant steps through the last two points, or toward the end their
    sign points to where f took one value at both. A step past an end of the
    bracket the signs have shown goes to its midpoint; a step past an end not
    yet evaluated goes to that end, which is then evaluated. Returns the last
    point evaluated, once f is 0 there, the bracket or an inner step is
    within tol, or after ROOT_STEPS points."""
    seen_lo = seen_hi = False
    prev = None
    for _ in range(ROOT_STEPS):
        fx = f(x)
        if fx > 0:
            lo, seen_lo = x, True
        elif fx < 0:
            hi, seen_hi = x, True
        else:  # a root, or NaN
            return x
        if hi - lo <= tol:
            return x
        if prev is None:
            nxt = x + step(fx)
        elif prev[1] == fx:
            nxt = math.copysign(math.inf, fx)
        else:
            nxt = x - fx * (x - prev[0]) / (fx - prev[1])
        if nxt >= hi:
            nxt = 0.5 * (lo + hi) if seen_hi else hi
        elif nxt <= lo:
            nxt = 0.5 * (lo + hi) if seen_lo else lo
        elif abs(nxt - x) <= tol:
            return x
        prev, x = (x, fx), nxt
    return x


class _Exact:
    """`_evaluate`'s logits argument that asks for the confidence weights
    minimizing the objective at theta. It keeps lam, the multiplier on the
    regret max, mu, the mean of w * m, and the slope of r_ed(w_lam) - r_ea in
    lam, of its last solve as the next one's guesses, since theta moves
    little from one evaluation to the next. It holds no map: each solve works
    on the pixels its screen leaves free."""

    def __init__(self) -> None:
        self.lam, self.mu, self.slope = 0.5, 0.0, 0.0

    def solve(self, m, r_ea, b_ed, alpha, beta, out) -> np.ndarray:
        """The weights w in [0, 1] minimizing max(r_ea, var(w m) - b_ed) +
        alpha sum(w) + beta sum(((w - 1) m)^2) on the map m >= 0, written to out.

        The objective is convex in w. With lam in [0, 1] the multiplier on
        the max and n = m.size, its minimizer is w = clip((2 beta m^2 +
        2 lam mu m / n - alpha) / (2 m^2 (beta + lam / n)), 0, 1) = clip(base +
        k mu / m, 0, 1), where mu = mean(w m) <= mass = mean(m) is the fixed
        point of a nondecreasing map of slope at most k = (lam / n) / (beta + lam
        / n) < 1. lam is 0 if r_ed(w_0) <= r_ea, 1 if r_ed(w_1) >= r_ea, else the
        root of the nonincreasing r_ed(w_lam) - r_ea. `_falling_root` finds both
        from the last solve's values, lam's first step a Newton step on the last
        slope, on the free pixels alone: a safe screen first drops every pixel
        with m (2 beta m + 2 mass / n) <= alpha, m = 0 included, as w = 0 there
        at every lam and mu. w is 0 everywhere at lam = beta = 0."""
        n = m.size
        mass = float(m.sum()) / n  # mu's upper bound: w <= 1
        with np.errstate(over="ignore"):  # huge beta: inf, free; subnormal m: inf, no weight
            np.multiply(np.add(np.multiply(m, beta, out=out), mass / n, out=out), m, out=out)
            free = np.flatnonzero(out > 0.5 * alpha * (1.0 - 1e-9))  # margin: rounding drops none
            mf = m.take(free)
            inv = 1.0 / mf
            inv2 = inv * inv
        base, w = np.empty((2, free.size))

        def mean_wm(mu, k):  # mean(w m) at mu
            np.add(np.multiply(inv, k * mu, out=w), base, out=w)
            np.minimum(np.maximum(w, 0.0, out=w), 1.0, out=w)
            return float(np.dot(mf, w)) / n

        seen = []  # (lam, excess) of each lam tried

        def excess(lam):  # r_ed(w_lam) - r_ea
            d = beta + lam / n
            if d == 0:
                w.fill(0.0)
                seen.append((lam, -b_ed - r_ea))
                return seen[-1][1]
            c = alpha / (2.0 * d)
            if c > 0:
                with np.errstate(over="ignore"):  # -inf: no weight
                    np.multiply(inv2, -c, out=base)
                np.add(base, beta / d, out=base)
            else:
                base.fill(beta / d)
            k = lam / (n * d)
            self.mu = _falling_root(lambda mu: mean_wm(mu, k) - mu, 0.0, mass,
                                    min(max(self.mu, 0.0), mass), lambda fx: fx, ROOT_TOL * mass)
            wm = np.multiply(mf, w, out=base)
            mean = float(wm.sum()) / n
            seen.append((lam, float(np.dot(wm, wm)) / n - mean * mean - b_ed - r_ea))
            return seen[-1][1]

        def newton(fx):
            return -fx / self.slope if self.slope < 0 else math.copysign(0.05, fx)

        self.lam = _falling_root(excess, 0.0, 1.0, self.lam, newton, ROOT_TOL)
        if len(seen) > 1 and seen[-2][0] != seen[-1][0]:
            self.slope = (seen[-1][1] - seen[-2][1]) / (seen[-1][0] - seen[-2][0])
        out.fill(0.0)
        out.reshape(-1)[free] = w
        return out


def _evaluate(window, theta: MotionParams, logits, cfg, alpha, b_ea, b_ed, want_grads: bool,
              ws: _Workspace | None = None):
    """Objective parts and, optionally, gradients w.r.t. theta and logits.

    With logits=None only the alignment regret b_ea - f_ea is evaluated
    (worst_regret and total equal it): the denoising parts are NaN, alpha and
    b_ed are unused, and there is no logit gradient. With an `_Exact` the
    weights are the ones minimizing the objective at theta, and the theta
    gradient is Danskin's, the objective's at those weights with the
    multiplier lam on the regret max; there is no logit gradient either.
    Otherwise the weights are sigmoid(logits). A total that is not finite
    gets no gradients (None). Its arrays live in ws's five
    maps (a fresh _Workspace when None) until the next call; the weights are
    ws.wts, and dlogits is ws.adev.
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
    exact = isinstance(logits, _Exact)
    if logits is None:
        nan = r_ed = math.nan
        parts = ObjectiveParts(f_ea, nan, r_ea, nan, r_ea, nan, nan, r_ea)
    else:
        if exact:
            wts = logits.solve(m, r_ea, b_ed, alpha, cfg.beta, ws.wts)
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
    if exact:
        w_ed = logits.lam
    else:
        # subgradient of max(r_ea, r_ed), r_ed weighted by w_ed and r_ea by w_ea = 1 - w_ed:
        # off a tie the inactive regret's terms are +-0 and leave the active one's bits
        w_ed = 0.5 * ((r_ed > r_ea) + (r_ed >= r_ea))  # 1, 0 or 1/2 on a tie; 0 if r_ed is NaN
    if not (want_grads and math.isfinite(parts.total)):
        return parts, None, None

    coef = np.multiply(-(2.0 * (1.0 - w_ed) / n_pix), dev, out=dev)  # -(2 w_ea / n) dev
    dlogits = None
    if logits is not None:
        # dlog_r = (2 w_ed / n) (a - mu_w) m; its coef term has wts for m
        dlog_r = np.multiply(2.0 * w_ed / n_pix, adev, out=adev)
        coef += np.multiply(dlog_r, wts, out=tmp)
        # coef + 2 beta (wts - 1) resid, beta applied first: wts = 1 gives 0 for any
        # finite beta; (dlog_r + alpha + 2 beta resid m) wts (1 - wts)
        fid = np.multiply(np.multiply(np.subtract(wts, 1.0, out=tmp), cfg.beta, out=tmp), resid,
                          out=tmp)
        fid *= 2.0
        coef += fid
        if not exact:
            dlogits = np.multiply(dlog_r, m, out=dlog_r)
            dlogits += alpha
            fid = np.multiply(np.multiply(resid, cfg.beta, out=tmp), m, out=tmp)  # beta first
            dlogits += np.multiply(fid, 2.0, out=fid)
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
    """Analytic (d total / d theta, d total / d logits) at (theta, conf); both
    None where the total is not finite."""
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


def _descend(ws: _Workspace, iterations: int, b_ea: float, joint: bool = False,
             theta: MotionParams | None = None, on_step=None):
    """BFGS descent of ws's objective (its window, config, model, alpha and
    b_ed) over phi = theta * ws.span, pixels across the window, from theta
    (zero motion if None), at most `iterations` steps.

    Without `joint` only the alignment regret b_ea - f_ea is descended (f_ea
    ascends); with it, every evaluation solves the confidence weights
    exactly (`_Exact`), so the descent minimizes Phi(theta) = min_w F(theta,
    w) over theta alone. The merit compared is the total shifted by -b_ea
    before any cancellation, max(-f_ea, r_ed - b_ea) + alpha l1 + beta
    fidelity: -f_ea alone without `joint`. A step is one backtracking line
    search along -H g, H the inverse-Hessian estimate (the first step moves
    phi STEP0_PX px along -g); it ends at the first point with Armijo's
    decrease, each evaluated with gradients. The descent has settled once a
    proposed step or the line search's last trial moves phi at most STOP_PX
    px on every axis. Whatever stops it, ws holds the end point's warped
    positions and weights (ws.wts). on_step(it, parts), if given, is called
    with each point a step leaves, once the step is taken; nothing is kept
    per step. Returns (theta, the number of steps, the end point's parts,
    "settled" or "cap"); NonFiniteObjective if an evaluation's total is not
    finite or its gradient is above MAX_GRAD.
    """
    weights = _Exact() if joint else None
    beta = ws.cfg.beta
    it = 0

    def evaluate(phi, want_grads):
        theta = MotionParams(ws.model, phi / ws.span)
        parts, dtheta, _ = _evaluate(ws.window, theta, weights, ws.cfg, ws.alpha, b_ea, ws.b_ed,
                                     want_grads, ws)
        if not np.isfinite(parts.total):
            raise NonFiniteObjective(f"non-finite objective at iteration {it}")
        if dtheta is not None and not np.abs(dtheta).max() / ws.span <= MAX_GRAD:  # NaN too
            raise NonFiniteObjective(f"motion gradient NaN or above {MAX_GRAD:g} in magnitude at "
                                     f"iteration {it}; lower the objective's weights")
        merit = -parts.f_ea if weights is None else (
            max(-parts.f_ea, parts.r_ed - b_ea) + ws.alpha * parts.l1 + beta * parts.fidelity)
        return theta, parts, merit, None if dtheta is None else dtheta / ws.span

    phi = np.zeros(model_dim(ws.model)) if theta is None else theta.values * ws.span
    theta, parts, merit, grad = evaluate(phi, iterations > 0)
    hess = None
    for it in range(iterations):
        if not grad.any():
            return theta, it, parts, "settled"
        step = None if hess is None else -(hess @ grad)
        if step is None or not grad @ step < 0:  # the first step, or H lost its curvature
            step = -(STEP0_PX / np.abs(grad).max()) * grad
        if np.abs(step).max() <= STOP_PX:
            return theta, it, parts, "settled"
        slope, t = float(grad @ step), 1.0
        while True:
            new = evaluate(phi + t * step, True)
            if new[2] <= merit + ARMIJO_C1 * t * slope:
                break
            # the minimum of the quadratic through merit, slope and the trial, within [t/10, t/2]
            t *= min(max(-0.5 * slope * t / (new[2] - merit - slope * t), 0.1), 0.5)
            if t * np.abs(step).max() <= STOP_PX:  # no decrease this close: phi is the minimum
                theta, parts, _, _ = evaluate(phi, False)
                return theta, it, parts, "settled"
        if on_step is not None:
            on_step(it, parts)
        s, y = t * step, new[3] - grad
        phi = phi + s
        theta, parts, merit, grad = new
        sy = float(s @ y)
        if sy > 0:  # BFGS update of H (Nocedal & Wright, eq. 6.17), scaled first by eq. 6.20
            if hess is None:
                hess = (sy / float(y @ y)) * np.eye(len(s))
            v = np.eye(len(s)) - np.outer(s, y) / sy
            hess = v @ hess @ v.T + np.outer(s, s) / sy
    return theta, iterations, parts, "cap"


def _all_noise(window: EventWindow, theta: MotionParams, **record) -> JointResult:
    """Motion theta with every event noise: all-zero weights and confidence.
    record holds further JointResult fields."""
    return JointResult(theta, np.zeros(window.geometry.shape), np.zeros(len(window), dtype=bool),
                       np.zeros(len(window)), **record)


def cmax(window: EventWindow, model: str, cfg: JointConfig,
         start: MotionParams | None = None) -> JointResult:
    """Contrast maximization: the BFGS ascent of the alignment variance alone,
    `solve`'s warm start run to at most cfg.iterations steps, from zero
    motion or from start under `solve`'s guard. It labels no event signal;
    the result records the steps as warm_iterations, stop_reason and
    seeded. A window of fewer than DEGENERATE_MIN_EVENTS events gets zero
    motion and stop_reason None."""
    if len(window) < DEGENERATE_MIN_EVENTS:
        return _all_noise(window, MotionParams.zero(model))
    ws = _Workspace(window, cfg, model)
    seed = _guarded_start(ws, start)
    theta, steps, _, stop = _descend(ws, cfg.iterations, 0.0, theta=seed)
    return _all_noise(window, theta, warm_iterations=steps, seeded=seed is not None,
                      stop_reason=stop)


def solve(window: EventWindow, cfg: JointConfig, model: str = TRANSLATION_2D,
          start: MotionParams | None = None, on_step=None) -> JointResult:
    """Jointly optimize motion and the per-pixel confidence map.

    Runs `_descend` from theta = 0, both phases in one workspace; each stops
    once it settles, the joint phase after at most cfg.iterations steps.
    With a warm-started alignment baseline, an alignment-only phase of at
    most half the iteration budget runs first and b_ea is kappa times f_ea at
    its end point; the joint phase then starts from the warm-started motion.
    The joint phase solves the weights exactly at every evaluation, so it
    steps theta alone. A `start` (say, the previous window's motion) is
    guarded: the alignment variance f_ea is evaluated at start, without
    gradients, and the first phase begins at start only if its f_ea is
    strictly larger than b_ed, the unwarped map's variance and so f_ea at
    zero motion (`seeded` records which). A seed that no longer fits, as
    after the motion reverses, thus costs one evaluation and changes
    nothing; without start the solve is the unseeded one, bit for bit. The
    result's weights are the joint phase's end weights; each event's
    confidence is their bilinear sample at its warped position, which the
    end evaluation leaves in the workspace, and it is signal when that
    reaches tau. A window of fewer than DEGENERATE_MIN_EVENTS events gets zero
    motion, all-zero weights, confidence 0, NaN b_ed and stop_reason None,
    and allocates no workspace; the result states the case, so no warning is
    raised. on_step, if given, sees the joint phase's steps as `_descend`
    takes them. Deterministic: the solver is full-batch.
    """
    if len(window) < DEGENERATE_MIN_EVENTS:
        return _all_noise(window, MotionParams.zero(model), alpha=_resolve_alpha(cfg))

    ws = _Workspace(window, cfg, model)
    theta = seed = _guarded_start(ws, start)
    warm, warm_stop = 0, None
    if isinstance(cfg.b_ea, WarmStartScaled):
        theta, warm, end, warm_stop = _descend(ws, cfg.iterations // 2, 0.0, theta=theta)
        b_ea = cfg.b_ea.kappa * end.f_ea
    else:
        b_ea = float(cfg.b_ea.value)
    theta, steps, final, stop = _descend(ws, cfg.iterations, b_ea, True, theta, on_step)
    weights = ws.wts.copy()  # not a view: it would keep all five workspace maps alive
    confidence = interpolate_confidence(weights, ws.warped)
    return JointResult(theta, weights, confidence >= cfg.tau, confidence, iterations=steps,
                       final=final, b_ea=b_ea, b_ed=ws.b_ed, alpha=ws.alpha, stop_reason=stop,
                       warm_iterations=warm, warm_stop_reason=warm_stop, seeded=seed is not None)
