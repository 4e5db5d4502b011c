"""Evaluation metrics: structural concentration, confusion ratios, motion RMSE."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .contrast import hard_map
from .events import SensorGeometry


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    tn: int
    fp: int


@dataclass(frozen=True)
class ConfusionResult:
    counts: ConfusionCounts
    sensitivity: float
    specificity: float
    sensitivity_defined: bool
    specificity_defined: bool


def esr(kept_positions: np.ndarray, geometry: SensorGeometry, m_ref: int) -> float:
    """Structural rate of the kept events: high when they pile on few pixels.

    Computed from the per-pixel counts n_ij of the kept events as
    sqrt( [sum n(n-1) / (N(N-1))] * [HW - sum (1 - m_ref/N)^n] ).
    Returns 0 for fewer than two kept events. When m_ref exceeds the kept
    count the base 1 - m_ref/N is negative; it is clamped at zero and a
    warning is emitted.
    """
    if m_ref < 1:
        raise ValueError("m_ref must be at least 1")
    kept_positions = np.asarray(kept_positions, dtype=np.float64).reshape(-1, 2)
    n_events = kept_positions.shape[0]
    if n_events < 2:
        return 0.0
    counts = hard_map(kept_positions, geometry).values
    factor1 = float((counts * (counts - 1.0)).sum()) / (n_events * (n_events - 1.0))
    base = 1.0 - m_ref / n_events
    if base < 0.0:
        warnings.warn(
            f"m_ref={m_ref} exceeds kept count {n_events}; clamping the decay base at 0",
            stacklevel=2,
        )
        base = 0.0
    factor2 = geometry.npixels - float(np.power(base, counts).sum())
    return float(np.sqrt(factor1 * factor2))


def confusion(predicted: np.ndarray, truth: np.ndarray) -> ConfusionResult:
    """Per-event confusion counts plus sensitivity and specificity.

    A ratio whose class is absent from the truth is reported as 1.0 with
    its ``*_defined`` flag cleared.
    """
    predicted = np.asarray(predicted, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth labels must have equal length")
    tp = int(np.sum(predicted & truth))
    fn = int(np.sum(~predicted & truth))
    tn = int(np.sum(~predicted & ~truth))
    fp = int(np.sum(predicted & ~truth))
    sens_def = (tp + fn) > 0
    spec_def = (tn + fp) > 0
    sensitivity = tp / (tp + fn) if sens_def else 1.0
    specificity = tn / (tn + fp) if spec_def else 1.0
    return ConfusionResult(ConfusionCounts(tp, fn, tn, fp), sensitivity, specificity,
                           sens_def, spec_def)


def motion_rmse(estimated, truth) -> float:
    """RMSE between estimated per-window motion and a ground-truth trajectory.

    ``estimated`` and ``truth`` are sequences of (time, parameter-vector)
    pairs; the truth is linearly interpolated at each estimate's time, must
    cover the estimated time span and may not repeat a time. The RMSE is
    math.hypot of every per-axis difference scaled by 1/sqrt(n), so it does
    not overflow while the result is finite; a non-finite result (a NaN or
    infinite value, or a difference too large) raises ValueError.
    """
    import math

    est = [(float(t), np.atleast_1d(np.asarray(v, dtype=np.float64))) for t, v in estimated]
    gt = [(float(t), np.atleast_1d(np.asarray(v, dtype=np.float64))) for t, v in truth]
    if not est:
        raise ValueError("no estimates to score")
    if not gt:
        raise ValueError("empty ground-truth trajectory")
    dim = est[0][1].shape[0]
    if any(v.shape[0] != dim for _, v in est) or any(v.shape[0] != dim for _, v in gt):
        raise ValueError("estimated and truth parameter dimensions differ")
    gt_sorted = sorted(gt, key=lambda tv: tv[0])
    gt_t = np.array([t for t, _ in gt_sorted])
    gt_v = np.stack([v for _, v in gt_sorted])
    repeated = gt_t[1:][gt_t[1:] == gt_t[:-1]]  # np.interp is undefined there
    if repeated.size:
        raise ValueError(f"truth time {repeated[0]} is repeated")
    scale = math.sqrt(len(est))
    diffs = []
    for t, v in est:
        if t < gt_t[0] or t > gt_t[-1]:
            raise ValueError(f"estimate time {t} lies outside the truth span")
        # Python floats: a difference that overflows is inf, without numpy's warning
        diffs += [(float(v[d]) - float(np.interp(t, gt_t, gt_v[:, d]))) / scale
                  for d in range(dim)]
    rmse = math.hypot(*diffs)
    if not math.isfinite(rmse):
        raise ValueError(f"motion RMSE is {rmse}: a value is not finite or a difference overflows")
    return rmse
