"""The benchmark's own checks of a `denoise` run, computed apart from evjoint.

Nothing here imports evjoint: the output file is parsed from the `.evj`
layout, windows are cut from the input times, and the BAF reference and the
confusion ratios are recomputed from scratch. One operation is one window; a
window passes only if every check that touches it passes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# .evj layout: b"EVJ1", <u4 width, <u4 height, <u8 count, then fixed records.
EVJ_MAGIC = b"EVJ1"
EVJ_HEADER = struct.Struct("<4sIIQ")
EVJ_RECORD = np.dtype([("x", "<f8"), ("y", "<f8"), ("t", "<f8"), ("p", "<i1"), ("label", "<u1")])

MOTION_TOLERANCE = 0.05  # each window's theta within 5% of -v

# `denoise`'s BAF defaults, restated for the brute-force reference:
# dt_max 10 ms, radius 1 px, min support 1 event.
BAF_DEFAULTS = (0.010, 1, 1)


class CheckError(Exception):
    """The output cannot be checked at all; every window fails."""


@dataclass
class Expected:
    """What a correct run must produce, from the generated input alone."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray
    truth: np.ndarray  # synth labels, True = signal
    width: int
    height: int
    velocity: tuple[float, float]  # pattern velocity v; the right theta is -v
    window_s: float | None  # None: one window over the whole stream
    solver: bool
    sensitivity_floor: float | None = None
    specificity_floor: float | None = None
    baf_sample: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


@dataclass
class Outcome:
    window_ok: list[bool]
    thetas: list[list[float]]
    labels: np.ndarray | None
    sensitivity: float
    specificity: float
    problems: list[str]

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.window_ok)


def window_bounds(t: np.ndarray, window_s: float | None) -> list[tuple[int, int]]:
    """[lo, hi) index ranges of the non-empty fixed-duration windows of a
    time-sorted stream, first window starting at the first event."""
    if len(t) == 0:
        return []
    if window_s is None:
        return [(0, len(t))]
    idx = np.floor((t - t[0]) / window_s).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    ends = np.r_[starts[1:], len(t)]
    return list(zip(starts.tolist(), ends.tolist()))


def read_evj(path) -> tuple[int, int, np.ndarray]:
    """(width, height, records) of an `.evj` file."""
    data = Path(path).read_bytes()
    if len(data) < EVJ_HEADER.size:
        raise CheckError(f"{path}: shorter than the .evj header")
    magic, width, height, count = EVJ_HEADER.unpack_from(data)
    if magic != EVJ_MAGIC:
        raise CheckError(f"{path}: magic {magic!r} is not {EVJ_MAGIC!r}")
    body = len(data) - EVJ_HEADER.size
    if body != count * EVJ_RECORD.itemsize:
        raise CheckError(f"{path}: header promises {count} records, body holds {body} bytes")
    return width, height, np.frombuffer(data, dtype=EVJ_RECORD, offset=EVJ_HEADER.size)


def baf_reference(x, y, t, lo: int, hi: int, idx: np.ndarray,
                  dt_max: float, radius: int, min_support: int) -> np.ndarray:
    """BAF labels of events `idx` by brute-force neighbour count inside the
    window [lo, hi): other events of the window within `radius` pixels
    (L-infinity, integer pixel cells) and `dt_max` seconds, both inclusive."""
    px = np.floor(x[lo:hi]).astype(np.int64)
    py = np.floor(y[lo:hi]).astype(np.int64)
    tw = t[lo:hi]
    out = np.empty(len(idx), dtype=bool)
    for n, k in enumerate(idx - lo):
        a = np.searchsorted(tw, tw[k] - dt_max, side="left")
        b = np.searchsorted(tw, tw[k] + dt_max, side="right")
        near = (np.abs(px[a:b] - px[k]) <= radius) & (np.abs(py[a:b] - py[k]) <= radius)
        out[n] = int(near.sum()) - 1 >= min_support
    return out


def confusion_ratios(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(sensitivity, specificity); an absent class scores 1.0."""
    tp = int(np.sum(pred & truth))
    tn = int(np.sum(~pred & ~truth))
    n_sig = int(truth.sum())
    n_noise = len(truth) - n_sig
    return (tp / n_sig if n_sig else 1.0, tn / n_noise if n_noise else 1.0)


def motion_error(theta, velocity) -> float:
    """|theta - (-v)| / |v|."""
    return math.hypot(theta[0] + velocity[0], theta[1] + velocity[1]) / math.hypot(*velocity)


def motion_rmse(thetas, velocity) -> float:
    """Root mean square over windows of |theta - (-v)|, in px/s."""
    sq = [(th[0] + velocity[0]) ** 2 + (th[1] + velocity[1]) ** 2 for th in thetas]
    return math.sqrt(sum(sq) / len(sq))


def check_outputs(exp: Expected, out_path) -> Outcome:
    """Check the labelled `.evj` output and its `.json` sidecar window by window."""
    bounds = window_bounds(exp.t, exp.window_s)
    ok = [True] * len(bounds)
    problems: list[str] = []

    def fail_all(msg: str) -> Outcome:
        return Outcome([False] * len(bounds), [], None, 0.0, 0.0, problems + [msg])

    try:
        width, height, rec = read_evj(out_path)
        sidecar = json.loads(Path(str(out_path) + ".json").read_text(encoding="utf-8"))
        records = sidecar["windows"]
        counts = [int(r["counts"]["events"]) for r in records]
        kept = [int(r["counts"]["signal_pred"]) for r in records]
        thetas = [[float(v) for v in r["theta"]] for r in records]
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return fail_all(f"unreadable output: {exc}")
    if (width, height) != (exp.width, exp.height):
        return fail_all(f"geometry {width}x{height}, expected {exp.width}x{exp.height}")
    if len(rec) != len(exp.t):
        return fail_all(f"output holds {len(rec)} events, input {len(exp.t)}")
    if len(records) != len(bounds):
        return fail_all(f"sidecar has {len(records)} windows, expected {len(bounds)}")
    if sum(counts) != len(exp.t):
        return fail_all(f"sidecar window counts sum to {sum(counts)}, not {len(exp.t)}")

    labels = rec["label"]
    pred = labels == 1
    same = ((rec["x"].view(np.uint64) == exp.x.view(np.uint64))
            & (rec["y"].view(np.uint64) == exp.y.view(np.uint64))
            & (rec["t"].view(np.uint64) == exp.t.view(np.uint64))
            & (rec["p"] == exp.p)
            & (labels <= 1))
    for k, (lo, hi) in enumerate(bounds):
        if not same[lo:hi].all():
            ok[k] = False
            problems.append(f"window {k}: output events or label bytes differ from the input")
        if counts[k] != hi - lo or kept[k] != int(pred[lo:hi].sum()):
            ok[k] = False
            problems.append(f"window {k}: sidecar counts {counts[k]}/{kept[k]} disagree "
                            f"with {hi - lo} events, {int(pred[lo:hi].sum())} kept")
        if exp.solver and motion_error(thetas[k], exp.velocity) > MOTION_TOLERANCE:
            ok[k] = False
            problems.append(f"window {k}: theta {thetas[k]} is more than "
                            f"{MOTION_TOLERANCE:.0%} from -v")
        idx = exp.baf_sample[(exp.baf_sample >= lo) & (exp.baf_sample < hi)]
        if len(idx):
            ref = baf_reference(exp.x, exp.y, exp.t, lo, hi, idx, *BAF_DEFAULTS)
            bad = int(np.sum(ref != pred[idx]))
            if bad:
                ok[k] = False
                problems.append(f"window {k}: {bad} of {len(idx)} sampled BAF labels "
                                "differ from the brute-force count")

    sens, spec = confusion_ratios(pred, exp.truth)
    for name, value, floor in (("sensitivity", sens, exp.sensitivity_floor),
                               ("specificity", spec, exp.specificity_floor)):
        if floor is not None and value < floor:
            ok = [False] * len(bounds)
            problems.append(f"{name} {value:.4f} below the floor {floor}")
    return Outcome(ok, thetas, labels.copy(), sens, spec, problems)
