"""Command-line front end: synth, denoise, estimate-motion, eval, render.

Every output file gets a JSON sidecar (<output>.json, "schema": 2)
recording the full invocation so a run can be reproduced exactly. `denoise`
also writes <output>.confidence.npy: one little-endian float64 ('<f8')
confidence per event, in the output's record order. Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BafConfig, baf_filter, kept_result, sequential_pipeline
from .contrast import hard_map, smooth_map
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
    cmax,
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


def _geometry(flag: str | None, stored=None, missing: str = "") -> SensorGeometry:
    """--geometry's WxH, which must equal a stream's stored geometry if it has
    one; else the stored geometry; else CliError(missing)."""
    if flag is None:
        if stored is None:
            raise CliError(missing)
        return stored
    try:
        w, h = flag.lower().split("x")
        given = SensorGeometry(int(w), int(h))
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad --geometry {flag!r}, expected WxH (e.g. 64x64): {exc}") from None
    if stored is not None and stored != given:
        raise CliError(f"--geometry {given.width}x{given.height} differs from the stream's "
                       f"stored {stored.width}x{stored.height}")
    return given


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"bad {flag} {text!r}, expected two comma-separated numbers")
    return float(parts[0]), float(parts[1])


def _sidecar(path, command: str, args: argparse.Namespace, extra: dict) -> None:
    record = {
        "tool": "evjoint",
        "schema": 2,
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        **extra,
    }
    side = Path(str(path) + ".json")
    side.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _load_stream(args: argparse.Namespace):
    loaded = read_events(args.input, sort=args.sort)
    geometry = _geometry(args.geometry, loaded.geometry,
                         f"{args.input} carries no geometry; pass --geometry WxH")
    return loaded.events, loaded.labels, geometry


def _make_windows(events: Events, geometry: SensorGeometry,
                  window_ms: float | None, window_count: int | None) -> list[EventWindow]:
    if window_ms is not None and window_count is not None:
        raise CliError("--window-ms and --window-count are mutually exclusive")
    if window_ms is not None:
        policy = FixedDuration(window_ms / 1000.0)
    else:  # default: the whole stream is one window
        policy = FixedCount(window_count if window_count is not None else max(len(events), 1))
    return window_stream(events, geometry, policy)


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
    parser.add_argument("--iters", type=int, default=JointConfig().iterations,
                        help="most joint-phase steps per window, one line search each (the warm "
                             "start runs at most half as many); a phase stops earlier once it "
                             "settles")
    parser.add_argument("--sigma", type=float, default=JointConfig().sigma)
    parser.add_argument("--tau", type=float, default=JointConfig().tau)
    parser.add_argument("--window-ms", type=float, default=None)
    parser.add_argument("--window-count", type=int, default=None)
    parser.add_argument("--log", choices=("text", "json"), default="text",
                        help="per-step trace on stdout: json prints one object per joint-phase "
                             "step as it is taken, text prints none")


def _solve_windows(args: argparse.Namespace, method):
    """Load and window the input; return (events, geometry, solved), where
    solved yields (window, method(window, start, on_step)) one window at a
    time, after its log line is out. start is the previous window's motion
    if a solver produced it (None for the first window and after a
    degenerate or solver-free one); the method guards it. on_step prints a
    joint-phase step's `--log json` line as it is taken (None under text)."""
    events, _, geometry = _load_stream(args)
    windows = _make_windows(events, geometry, args.window_ms, args.window_count)

    def solved():
        start = None
        for i, w in enumerate(windows):
            def printed(k, p):
                print(json.dumps({"window": i, "iter": k, "f_ea": p.f_ea, "f_ed": p.f_ed,
                                  "r_ea": p.r_ea, "r_ed": p.r_ed,
                                  "worst_regret": p.worst_regret, "total": p.total}))
            res = method(w, start, printed if args.log == "json" else None)
            steps = ""
            if res.stop_reason is not None:  # a solver ran: its steps and where it began
                # the warm start's own stop; none shown when an explicit b_ea skipped it
                warm = "" if res.warm_stop_reason is None else f" ({res.warm_stop_reason})"
                counts = (f"{res.warm_iterations} cmax steps" if res.final is None else
                          f"{res.warm_iterations} warm{warm} + {res.iterations} joint steps")
                origin = f"window {i - 1}" if res.seeded else "zero"
                steps = f", {counts} ({res.stop_reason}), from {origin}"
            logger.info("window %d: %d/%d kept, theta=%s%s", i, int(res.labels.sum()),
                        len(w), np.round(res.theta.values, 3).tolist(), steps)
            start = None if res.stop_reason is None else res.theta
            yield w, res

    return events, geometry, solved()


def _window_record(w: EventWindow, res: JointResult) -> dict:
    n_kept = int(res.labels.sum())
    rec = {
        "t_start": w.t_start, "t_end": w.t_end, "t_ref": w.t_ref,
        "model": res.theta.model, "theta": res.theta.values.tolist(),
        "counts": {"events": len(w), "signal_pred": n_kept, "noise_pred": len(w) - n_kept},
    }
    if res.final is not None:
        rec.update({
            "f_ea": res.final.f_ea, "f_ed": res.final.f_ed, "R": res.final.worst_regret,
            "total": res.final.total, "iterations": res.iterations,
            "b_ea": res.b_ea, "b_ed": res.b_ed, "alpha": res.alpha,
        })
    return rec


def cmd_synth(args: argparse.Namespace) -> int:
    geometry = _geometry(args.geometry)
    vx, vy = _parse_pair(args.motion, "--motion")
    if args.pattern == "vertical-edge":
        pattern = VerticalEdge(args.x0)
    elif args.pattern == "dot":
        pattern = Dot(_parse_pair(args.center, "--center"), args.radius)
    else:
        pattern = MultiEdge(args.spacing)
    spec = SceneSpec(geometry, pattern, MotionParams.translation(vx, vy),
                     args.duration, contrast=args.contrast, noise_rate=args.noise_rate)
    window, labels, theta_gt = generate(spec, args.seed)
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
    cfg = _joint_config(args)
    baf_cfg = BafConfig(dt_max=args.baf_dt_max / 1000.0, radius=args.baf_radius,
                        min_support=args.baf_min_support)
    method = {
        "joint": lambda w, start, on_step: solve(w, cfg, args.model, start, on_step),
        "baf": lambda w, *_: kept_result(w, baf_filter(w, baf_cfg), MotionParams.zero(args.model)),
        "cmax-seq": lambda w, start, _: sequential_pipeline(w, baf_cfg, cfg, args.model, start),
    }[args.method]
    events, geometry, solved = _solve_windows(args, method)
    labels_out, records, confidences = [], [], []
    for w, res in solved:
        labels_out.append(res.labels)
        confidences.append(res.confidence)
        records.append(_window_record(w, res))
    labels = np.concatenate(labels_out) if labels_out else np.zeros(0, dtype=bool)
    confidence = np.concatenate(confidences) if confidences else np.zeros(0)
    write_events(events, args.output, labels=labels, geometry=geometry)
    np.save(f"{args.output}.confidence.npy", confidence.astype("<f8", copy=False),
            allow_pickle=False)
    _sidecar(args.output, "denoise", args, {
        "windows": records,
        "counts": {"events": len(events), "signal_pred": int(labels.sum())},
    })
    return EXIT_OK


def cmd_estimate_motion(args: argparse.Namespace) -> int:
    cfg = _joint_config(args)
    method = {
        "joint": lambda w, start, on_step: solve(w, cfg, args.model, start, on_step),
        "cmax": lambda w, start, _: cmax(w, args.model, cfg, start),
    }[args.method]
    _, _, solved = _solve_windows(args, method)
    records = [{"t_ref": w.t_ref, "theta": res.theta.values.tolist()} for w, res in solved]
    names = {"translation2d": ["vx", "vy"], "rotation_inplane": ["omega"]}[args.model]
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("t_ref," + ",".join(names) + "\n")
        for rec in records:
            f.write(",".join(repr(float(v)) for v in [rec["t_ref"], *rec["theta"]]) + "\n")
    _sidecar(args.output, "estimate-motion", args, {"windows": records})
    return EXIT_OK


def _read_trajectory(path) -> list[tuple[float, np.ndarray]]:
    rows, header = [], False
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [float(s) for s in parts]
            except ValueError:
                if not rows and not header:
                    header = True  # the first non-blank line may be a header
                    continue
                raise CliError(f"{path}: line {lineno}: unparseable trajectory row") from None
            if len(vals) < 2:
                raise CliError(f"{path}: line {lineno}: need time plus parameters")
            if not np.isfinite(vals).all():
                raise CliError(f"{path}: line {lineno}: non-finite trajectory value")
            rows.append((vals[0], np.asarray(vals[1:])))
    if not rows:
        raise CliError(f"{path}: empty trajectory")
    return rows


def cmd_eval(args: argparse.Namespace) -> int:
    given = {k for k, v in vars(args).items() if v is not None and v is not False}
    for flag, partner in (("truth", "pred"), ("esr", "pred"), ("m_ref", "esr"),
                          ("geometry", "esr"), ("rmse", "gt"), ("gt", "rmse")):
        if flag in given and partner not in given:
            raise CliError(f"--{flag.replace('_', '-')} needs --{partner}")
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
            geometry = _geometry(args.geometry, pred.geometry,
                                 "ESR needs geometry; pass --geometry WxH")
            kept = pred.events.positions[pred.labels]
            m_ref = args.m_ref if args.m_ref is not None else max(1, kept.shape[0])
            report["esr"] = esr(kept, geometry, m_ref)
            report["esr_m_ref"] = m_ref
    if args.rmse is not None:
        est = _read_trajectory(args.rmse)
        gt = _read_trajectory(args.gt)
        report["rmse"] = motion_rmse(est, gt)
    if not report:
        raise CliError("nothing to evaluate; pass --pred and/or --rmse")
    text = json.dumps(report, indent=2)
    if args.output is not None:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        _sidecar(args.output, "eval", args, {})
    else:
        print(text)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    if Path(args.output).suffix.lower() != ".pgm":
        raise CliError(f"render writes PGM images; give -o a .pgm path, not {args.output!r}")
    events, _, geometry = _load_stream(args)
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
    with open(args.output, "wb") as f:
        f.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        f.write(grid.astype(np.uint8).tobytes())
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
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--threads", type=int, default=1, help="recorded in the sidecar only")
    p.set_defaults(func=cmd_synth)

    # the flags of every command that reads one stream and writes one file
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("-i", "--input", required=True)
    stream.add_argument("-o", "--output", required=True)
    stream.add_argument("--geometry", default=None, help="WxH, required for CSV input")
    stream.add_argument("--sort", action="store_true",
                        help="sort events by time instead of rejecting unsorted input")

    p = sub.add_parser("denoise", parents=[stream],
                       help="label events signal/noise and write them back")
    p.add_argument("--method", choices=("joint", "baf", "cmax-seq"), default="joint")
    baf = BafConfig()
    p.add_argument("--baf-dt-max", type=float, default=baf.dt_max * 1000.0,
                   help="BAF time support, ms")
    p.add_argument("--baf-radius", type=int, default=baf.radius)
    p.add_argument("--baf-min-support", type=int, default=baf.min_support)
    _add_joint_flags(p)
    p.add_argument("--seed", type=int, default=0, help="recorded in the sidecar only")
    p.add_argument("--threads", type=int, default=1, help="recorded in the sidecar only")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("estimate-motion", parents=[stream],
                       help="per-window motion estimates to CSV")
    p.add_argument("--method", choices=("joint", "cmax"), default="joint")
    _add_joint_flags(p)
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
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", parents=[stream], help="accumulate events into an image")
    motion = p.add_mutually_exclusive_group()
    motion.add_argument("--theta", default=None,
                        help="warp with this translation vx,vy before rendering")
    motion.add_argument("--omega", type=float, default=None,
                        help="warp with this in-plane rotation rad/s")
    p.add_argument("--sigma", type=float, default=JointConfig().sigma)
    p.add_argument("--hard", action="store_true", help="per-pixel counts instead of smooth mass")
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
    except (CliError, ValueError, NonFiniteObjective, OSError) as exc:
        print(f"evjoint: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
