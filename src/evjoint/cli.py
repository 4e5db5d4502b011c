"""Command-line front end: synth, denoise, estimate-motion, eval, render.

Every output file gets a JSON sidecar (<output>.json) recording the full
invocation so a run can be reproduced exactly. Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BafConfig, baf_filter, cmax_solve, sequential_pipeline
from .contrast import ConfidenceMap, hard_map, smooth_map
from .events import (
    Events,
    EventWindow,
    FixedCount,
    FixedDuration,
    SensorGeometry,
    read_events,
    window_stream,
    write_events,
)
from .joint import (
    ExplicitBaseline,
    JointConfig,
    JointResult,
    NonFiniteObjective,
    WarmStartScaled,
    interpolate_confidence,
    solve,
)
from .metrics import confusion, esr, motion_rmse
from .synth import Dot, MultiEdge, SceneSpec, VerticalEdge, generate
from .warp import MotionParams, warp

logger = logging.getLogger("evjoint")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class CliError(Exception):
    """Data or configuration problem surfaced to the user (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 per the CLI contract (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_geometry(text: str) -> SensorGeometry:
    try:
        w, h = text.lower().split("x")
        return SensorGeometry(int(w), int(h))
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad --geometry {text!r}, expected WxH (e.g. 64x64): {exc}") from None


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"bad {flag} {text!r}, expected two comma-separated numbers")
    return float(parts[0]), float(parts[1])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log", choices=("text", "json"), default="text",
                        help="per-iteration trace format on stdout")
    parser.add_argument("--threads", type=int, default=1,
                        help="inner parallelism bound (recorded; reductions stay deterministic)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _sidecar(path, command: str, args: argparse.Namespace, extra: dict) -> None:
    record = {
        "tool": "evjoint",
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        **extra,
    }
    side = Path(str(path) + ".json")
    side.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _load_stream(path, geometry_flag: str | None, sort: bool):
    loaded = read_events(path, sort=sort)
    geometry = loaded.geometry
    if geometry is None:
        if geometry_flag is None:
            raise CliError(f"{path} carries no geometry; pass --geometry WxH")
        geometry = _parse_geometry(geometry_flag)
    return loaded.events, loaded.labels, geometry


def _make_windows(events: Events, geometry: SensorGeometry,
                  window_ms: float | None, window_count: int | None) -> list[EventWindow]:
    if window_ms is not None and window_count is not None:
        raise CliError("--window-ms and --window-count are mutually exclusive")
    if len(events) == 0:
        return []
    if window_ms is not None:
        return window_stream(events, geometry, FixedDuration(window_ms / 1000.0))
    if window_count is not None:
        return window_stream(events, geometry, FixedCount(window_count))
    t0, t1 = float(events.t[0]), float(events.t[-1])
    return [EventWindow(events, geometry, t0, t1, 0.5 * (t0 + t1))]


def _joint_config(args: argparse.Namespace) -> JointConfig:
    if args.b_ea is not None:
        baseline = ExplicitBaseline(args.b_ea)
    else:
        baseline = WarmStartScaled(args.kappa)
    return JointConfig(
        alpha=args.alpha,
        beta=args.beta,
        b_ea=baseline,
        iterations=args.iters,
        learning_rate_theta=args.lr_theta,
        learning_rate_logits=args.lr_logits,
        sigma=args.sigma,
        tau=args.tau,
    )


def _add_joint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="translation2d",
                        choices=("translation2d", "rotation_inplane"))
    parser.add_argument("--alpha", type=float, default=None,
                        help="L1 weight on the confidence map (default: auto)")
    parser.add_argument("--beta", type=float, default=JointConfig().beta,
                        help="fidelity weight")
    parser.add_argument("--kappa", type=float, default=WarmStartScaled().kappa,
                        help="alignment baseline as kappa * warm-start variance")
    parser.add_argument("--b-ea", type=float, default=None,
                        help="explicit alignment baseline (overrides --kappa)")
    parser.add_argument("--iters", type=int, default=JointConfig().iterations)
    parser.add_argument("--lr-theta", type=float, default=JointConfig().learning_rate_theta)
    parser.add_argument("--lr-logits", type=float, default=JointConfig().learning_rate_logits)
    parser.add_argument("--sigma", type=float, default=JointConfig().sigma)
    parser.add_argument("--tau", type=float, default=JointConfig().tau)
    parser.add_argument("--window-ms", type=float, default=None)
    parser.add_argument("--window-count", type=int, default=None)
    parser.add_argument("--sort", action="store_true",
                        help="sort events by time instead of rejecting unsorted input")


def _emit_trace(mode: str, window_index: int, trace) -> None:
    if mode == "json":
        for i, p in enumerate(trace):
            print(json.dumps({
                "window": window_index, "iter": i, "f_ea": p.f_ea, "f_ed": p.f_ed,
                "r_ea": p.r_ea, "r_ed": p.r_ed, "worst_regret": p.worst_regret,
                "total": p.total,
            }))


def _window_record(w: EventWindow, res, n_kept: int) -> dict:
    rec = {
        "t_start": w.t_start, "t_end": w.t_end, "t_ref": w.t_ref,
        "model": res.theta.model, "theta": res.theta.values.tolist(),
        "counts": {"events": len(w), "signal_pred": n_kept, "noise_pred": len(w) - n_kept},
    }
    if res.final is not None:
        rec.update({
            "f_ea": res.final.f_ea, "f_ed": res.final.f_ed, "R": res.final.worst_regret,
            "total": res.final.total, "iterations": len(res.trace),
            "b_ea": res.b_ea, "b_ed": res.b_ed, "alpha": res.alpha,
        })
    return rec


def cmd_synth(args: argparse.Namespace) -> int:
    geometry = _parse_geometry(args.geometry)
    vx, vy = _parse_pair(args.motion, "--motion")
    if args.pattern == "vertical-edge":
        pattern = VerticalEdge(args.x0)
    elif args.pattern == "dot":
        cx, cy = _parse_pair(args.center, "--center")
        pattern = Dot((cx, cy), args.radius)
    else:
        pattern = MultiEdge(args.spacing)
    try:
        spec = SceneSpec(geometry, pattern, MotionParams.translation(vx, vy),
                         args.duration, contrast=args.contrast, noise_rate=args.noise_rate)
        window, labels, theta_gt = generate(spec, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    write_events(window.events, args.output, labels=labels, geometry=geometry)
    _sidecar(args.output, "synth", args, {
        "theta_gt": theta_gt.values.tolist(),
        "pattern_velocity": [vx, vy],
        "counts": {"events": len(window), "signal": int(labels.sum()),
                   "noise": int((~labels).sum())},
    })
    logger.info("wrote %d events (%d signal) to %s", len(window), int(labels.sum()), args.output)
    return EXIT_OK


def cmd_denoise(args: argparse.Namespace) -> int:
    events, _, geometry = _load_stream(args.input, args.geometry, args.sort)
    windows = _make_windows(events, geometry, args.window_ms, args.window_count)
    cfg = _joint_config(args)
    baf_cfg = BafConfig(dt_max=args.baf_dt_max / 1000.0, radius=args.baf_radius,
                        min_support=args.baf_min_support)
    labels_out = []
    records = []
    confidences = []
    for i, w in enumerate(windows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.method == "joint":
                res = solve(w, cfg, model=args.model)
            elif args.method == "baf":
                keep = baf_filter(w, baf_cfg)
                kept_mask = hard_map(w.positions[keep], geometry).values > 0
                res = JointResult(MotionParams.zero(args.model),
                                  ConfidenceMap.from_weights_mask(kept_mask), keep)
            else:  # cmax-seq
                res = sequential_pipeline(w, baf_cfg, cfg, model=args.model)
        labels_out.append(res.labels)
        confidences.append(interpolate_confidence(res.conf.weights, warp(w, res.theta)))
        _emit_trace(args.log, i, res.trace)
        records.append(_window_record(w, res, int(res.labels.sum())))
        logger.info("window %d: %d/%d kept, theta=%s", i, int(res.labels.sum()),
                    len(w), np.round(res.theta.values, 3).tolist())
    labels = np.concatenate(labels_out) if labels_out else np.zeros(0, dtype=bool)
    write_events(events, args.output, labels=labels, geometry=geometry)
    _sidecar(args.output, "denoise", args, {
        "windows": records,
        "counts": {"events": len(events), "signal_pred": int(labels.sum())},
        "confidence": [c.tolist() for c in confidences],
    })
    return EXIT_OK


def cmd_estimate_motion(args: argparse.Namespace) -> int:
    events, _, geometry = _load_stream(args.input, args.geometry, args.sort)
    windows = _make_windows(events, geometry, args.window_ms, args.window_count)
    cfg = _joint_config(args)
    names = {"translation2d": ["vx", "vy"], "rotation_inplane": ["omega"]}[args.model]
    rows = []
    records = []
    for i, w in enumerate(windows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.method == "cmax":
                theta = cmax_solve(w, args.model, cfg)
                trace = []
            else:
                res = solve(w, cfg, model=args.model)
                theta, trace = res.theta, res.trace
        _emit_trace(args.log, i, trace)
        rows.append((w.t_ref, theta.values))
        records.append({"t_ref": w.t_ref, "theta": theta.values.tolist()})
        logger.info("window %d: theta=%s", i, np.round(theta.values, 3).tolist())
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("t_ref," + ",".join(names) + "\n")
        for t_ref, vals in rows:
            f.write(",".join([repr(float(t_ref))] + [repr(float(v)) for v in vals]) + "\n")
    _sidecar(args.output, "estimate-motion", args, {"windows": records})
    return EXIT_OK


def _read_trajectory(path) -> list[tuple[float, np.ndarray]]:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [float(s) for s in parts]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise CliError(f"{path}: line {lineno}: unparseable trajectory row") from None
            if len(vals) < 2:
                raise CliError(f"{path}: line {lineno}: need time plus parameters")
            rows.append((vals[0], np.asarray(vals[1:])))
    if not rows:
        raise CliError(f"{path}: empty trajectory")
    return rows


def cmd_eval(args: argparse.Namespace) -> int:
    report: dict = {}
    if args.pred is not None:
        pred = read_events(args.pred)
        if pred.labels is None:
            raise CliError(f"{args.pred} has no label column")
        report["counts"] = {"events": len(pred.events)}
        if args.truth is not None:
            truth = read_events(args.truth)
            if truth.labels is None:
                raise CliError(f"{args.truth} has no label column")
            if len(truth.events) != len(pred.events):
                raise CliError("prediction and truth streams differ in length")
            c = confusion(pred.labels, truth.labels)
            report["sensitivity"] = c.sensitivity
            report["specificity"] = c.specificity
            report["sensitivity_defined"] = c.sensitivity_defined
            report["specificity_defined"] = c.specificity_defined
            report["counts"] = {"tp": c.counts.tp, "fn": c.counts.fn,
                                "tn": c.counts.tn, "fp": c.counts.fp}
        if args.esr:
            geometry = pred.geometry
            if geometry is None:
                if args.geometry is None:
                    raise CliError("ESR needs geometry; pass --geometry WxH")
                geometry = _parse_geometry(args.geometry)
            kept = pred.events.positions[pred.labels]
            m_ref = args.m_ref if args.m_ref is not None else max(1, kept.shape[0])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report["esr"] = esr(kept, geometry, m_ref)
            report["esr_m_ref"] = m_ref
    if args.rmse is not None:
        if args.gt is None:
            raise CliError("--rmse needs --gt with the ground-truth trajectory")
        est = _read_trajectory(args.rmse)
        gt = _read_trajectory(args.gt)
        try:
            report["rmse"] = motion_rmse(est, gt)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    if not report:
        raise CliError("nothing to evaluate; pass --pred and/or --rmse")
    text = json.dumps(report, indent=2)
    if args.output is not None:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        _sidecar(args.output, "eval", args, {})
    else:
        print(text)
    return EXIT_OK


def _write_pgm(path, grid: np.ndarray) -> None:
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(grid.astype(np.uint8).tobytes())


def cmd_render(args: argparse.Namespace) -> int:
    events, _, geometry = _load_stream(args.input, args.geometry, args.sort)
    t0 = float(events.t[0]) if len(events) else 0.0
    t1 = float(events.t[-1]) if len(events) else 0.0
    window = EventWindow(events, geometry, t0, t1, 0.5 * (t0 + t1))
    if args.omega is not None:
        theta = MotionParams.rotation(args.omega)
    elif args.theta is not None:
        vx, vy = _parse_pair(args.theta, "--theta")
        theta = MotionParams.translation(vx, vy)
    else:
        theta = MotionParams.translation(0.0, 0.0)
    positions = warp(window, theta)
    if args.hard:
        values = hard_map(positions, geometry).values
    else:
        values = smooth_map(positions, geometry, args.sigma).values
    peak = values.max()
    grid = np.zeros_like(values) if peak <= 0 else np.round(values / peak * 255.0)
    suffix = Path(args.output).suffix.lower()
    if suffix == ".png":
        try:
            from PIL import Image
        except ImportError as exc:  # pragma: no cover
            raise CliError("PNG output needs Pillow; use a .pgm path instead") from exc
        Image.fromarray(grid.astype(np.uint8), mode="L").save(args.output)
    else:
        _write_pgm(args.output, grid)
    _sidecar(args.output, "render", args, {"peak_mass": float(peak)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evjoint",
                     description="Joint alignment and denoising for event streams")
    parser.add_argument("--version", action="version", version=f"evjoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a labeled synthetic stream")
    p.add_argument("--pattern", choices=("vertical-edge", "dot", "multi-edge"),
                   default="multi-edge")
    p.add_argument("--x0", type=float, default=10.0, help="edge column (vertical-edge)")
    p.add_argument("--center", default="32,32", help="dot center (dot)")
    p.add_argument("--radius", type=float, default=6.0, help="dot radius (dot)")
    p.add_argument("--spacing", type=float, default=8.0, help="grid spacing (multi-edge)")
    p.add_argument("--geometry", default="64x64")
    p.add_argument("--motion", default="20,0", help="pattern velocity vx,vy in px/s")
    p.add_argument("--duration", type=float, default=0.2, help="seconds")
    p.add_argument("--contrast", type=float, default=1.0)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("denoise", help="label events signal/noise and write them back")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", choices=("joint", "baf", "cmax-seq"), default="joint")
    p.add_argument("--geometry", default=None, help="WxH, required for CSV input")
    p.add_argument("--baf-dt-max", type=float, default=10.0, help="BAF time support, ms")
    p.add_argument("--baf-radius", type=int, default=1)
    p.add_argument("--baf-min-support", type=int, default=1)
    _add_joint_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("estimate-motion", help="per-window motion estimates to CSV")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", choices=("joint", "cmax"), default="joint")
    p.add_argument("--geometry", default=None)
    _add_joint_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_estimate_motion)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", default=None, help="labeled prediction stream")
    p.add_argument("--truth", default=None, help="labeled ground-truth stream")
    p.add_argument("--esr", action="store_true", help="also compute the structural rate")
    p.add_argument("--m-ref", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--rmse", default=None, help="estimated trajectory CSV")
    p.add_argument("--gt", default=None, help="ground-truth trajectory CSV")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="accumulate events into an image")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--theta", default=None, help="warp with this translation vx,vy before rendering")
    p.add_argument("--omega", type=float, default=None, help="warp with this in-plane rotation rad/s")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--hard", action="store_true", help="per-pixel counts instead of smooth mass")
    p.add_argument("--geometry", default=None)
    p.add_argument("--sort", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CliError, ValueError, NonFiniteObjective, FileNotFoundError, PermissionError,
            IsADirectoryError) as exc:
        print(f"evjoint: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
