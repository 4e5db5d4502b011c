"""Parametric motion models: compensate event positions toward a reference time.

Each model maps an event at (x, t) to the position x' where the same scene
point would appear at the window's reference time, and pulls a gradient
with respect to x' back to the motion parameters (a vector-Jacobian
product; the per-event Jacobian is never built).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventWindow

TRANSLATION_2D = "translation2d"
ROTATION_INPLANE = "rotation_inplane"

_MODEL_DIMS = {TRANSLATION_2D: 2, ROTATION_INPLANE: 1}


@dataclass(frozen=True)
class MotionParams:
    """Motion model name plus its parameter vector.

    translation2d: [v_x, v_y] in pixels/second.
    rotation_inplane: [omega] in radians/second about the image center.
    """

    model: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.model not in _MODEL_DIMS:
            raise ValueError(f"unknown motion model {self.model!r}")
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if vals.shape != (_MODEL_DIMS[self.model],):
            raise ValueError(
                f"{self.model} takes {_MODEL_DIMS[self.model]} parameters, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("motion parameters must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def translation(cls, vx: float, vy: float) -> "MotionParams":
        return cls(TRANSLATION_2D, np.array([vx, vy], dtype=np.float64))

    @classmethod
    def rotation(cls, omega: float) -> "MotionParams":
        return cls(ROTATION_INPLANE, np.array([omega], dtype=np.float64))

    @classmethod
    def zero(cls, model: str) -> "MotionParams":
        return cls(model, np.zeros(model_dim(model)))

    @property
    def dim(self) -> int:
        return _MODEL_DIMS[self.model]


def model_dim(model: str) -> int:
    try:
        return _MODEL_DIMS[model]
    except KeyError:
        raise ValueError(f"unknown motion model {model!r}") from None


def _rotation_center(window: EventWindow) -> np.ndarray:
    g = window.geometry
    return np.array([(g.width - 1) / 2.0, (g.height - 1) / 2.0])


def _relative(positions: np.ndarray, center: np.ndarray | None) -> np.ndarray:
    """positions relative to the rotation center; ValueError if there is none."""
    if center is None:
        raise ValueError("a rotation_inplane warp needs the rotation center; got center=None")
    return positions - center[None, :]


def warp_positions(
    positions: np.ndarray, dt: np.ndarray, theta: MotionParams, center: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the motion model to explicit positions and time offsets dt = t - t_ref,
    writing the (N, 2) result into out when given. A rotation needs center."""
    positions = np.asarray(positions, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    if out is None:
        out = np.empty_like(positions)
    if theta.model == TRANSLATION_2D:
        return np.add(positions, np.multiply(dt[:, None], theta.values[None, :], out=out),
                      out=out)
    # in-plane rotation about the image center, as x plus a displacement: exact at zero
    rel = _relative(positions, center)
    ang = theta.values[0] * dt
    c, s = np.cos(ang) - 1.0, np.sin(ang)
    out[:, 0] = positions[:, 0] + c * rel[:, 0] - s * rel[:, 1]
    out[:, 1] = positions[:, 1] + s * rel[:, 0] + c * rel[:, 1]
    return out


def warp(window: EventWindow, theta: MotionParams) -> np.ndarray:
    """Compensated position of every event at the window's t_ref, (N, 2).

    Row k is event k's position. Positions may land outside the sensor; they
    are kept as-is and simply contribute nothing to accumulation maps.
    """
    return warp_positions(window.positions, window.times - window.t_ref, theta,
                          _rotation_center(window))


def warp_pullback(dpos: np.ndarray, positions: np.ndarray, dt: np.ndarray, theta: MotionParams,
                  center: np.ndarray | None = None) -> np.ndarray:
    """d/d(theta) of sum_k dpos_k . x'_k, for x' = warp_positions(positions,
    dt, theta, center) and dpos (N, 2) the gradient with respect to x'."""
    if theta.model == TRANSLATION_2D:
        return dt @ dpos
    # with r = x - center: dx'/domega = dt (-sin r_x - cos r_y, cos r_x - sin r_y)
    rel = _relative(positions, center)
    ang = theta.values[0] * dt
    cross = dpos[:, 1] * rel[:, 0] - dpos[:, 0] * rel[:, 1]
    dot = dpos[:, 0] * rel[:, 0] + dpos[:, 1] * rel[:, 1]
    return np.array([(dt * np.cos(ang)) @ cross - (dt * np.sin(ang)) @ dot])
