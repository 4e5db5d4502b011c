"""One benchmark run of one workload, in the fresh process `run.py` starts.

Set-up (import, synthesis, input write) is timed first; then whole rounds of
`evjoint.cli.main(["denoise", ...])` run in-process, as many as fit in
--seconds (at least one), each round's outputs checked window by window.
With --trace 1, untraced and traced rounds alternate: the traced ones give
the per-layer metrics, the difference between the two the tracing overhead.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up is repeated and its median reported, so one slow write does not
# decide `setup_s`.
SETUP_REPEATS = 3
# Events whose BAF label is checked against the brute-force count.
BAF_SAMPLE = 2000

# (metric, unit) of the untraced run, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("window_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("sensitivity", "ratio"),
    ("specificity", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    import evjoint.cli as cli
    from evjoint.events import write_events
    from evjoint.synth import generate

    import_s = time.perf_counter() - _T_START
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"evjoint imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    import checks
    import spans
    from workloads import WORKLOADS, scene_spec

    w = WORKLOADS[args.workload]
    spec = scene_spec(w)
    inp = args.workdir / w.input_name
    out = args.workdir / "output.evj"

    generate_s, setup_rest = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        window, truth, _ = generate(spec, args.seed)
        t1 = time.perf_counter()
        write_events(window.events, inp, geometry=spec.geometry)
        setup_rest.append(time.perf_counter() - t1)
        generate_s.append(t1 - t0)
    # a process imports once; synthesis and the input write are medians
    setup_s = import_s + statistics.median(g + r for g, r in zip(generate_s, setup_rest))

    ev = window.events
    n_events = len(ev)
    sample = np.zeros(0, dtype=np.int64)
    if not w.solver:
        rng = np.random.default_rng(args.seed)
        sample = np.sort(rng.choice(n_events, size=min(BAF_SAMPLE, n_events), replace=False))
    expected = checks.Expected(
        x=ev.x.copy(), y=ev.y.copy(), t=ev.t.copy(), p=ev.p.copy(), truth=truth.copy(),
        width=w.width, height=w.height, velocity=w.velocity,
        window_s=None if w.window_ms is None else w.window_ms / 1000.0,
        solver=w.solver, sensitivity_floor=w.sensitivity_floor,
        specificity_floor=w.specificity_floor, baf_sample=sample,
    )
    n_windows = len(checks.window_bounds(expected.t, expected.window_s))
    del window, truth, ev

    argv_denoise = ["denoise", "-i", str(inp), "-o", str(out), *w.flags()]
    tracer = spans.Tracer()
    timer = spans.WindowTimer()
    plain_s, traced_s = [], []
    attempted = failed = 0
    reference = None
    consistent = True
    problems: list[str] = []
    start = time.perf_counter()
    # Traced runs alternate untraced and traced rounds in ABBA order and make
    # at least two pairs, so first-round costs and drift cancel in the overhead.
    pairs = 0
    while True:
        order = ((False, True) if pairs % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in order:
            if traced:
                tracer.round = len(traced_s)
            with (tracer if traced else timer).installed():
                main_fn = tracer.wrap("cli.main", cli.main) if traced else cli.main
                t0 = time.perf_counter()
                rc = main_fn(argv_denoise)
                dt = time.perf_counter() - t0
            (traced_s if traced else plain_s).append(dt)
            print(f"round traced={int(traced)} rc={rc} {dt:.3f} s", file=sys.stderr)
            attempted += n_windows
            if rc != 0:
                failed += n_windows
                problems.append(f"denoise exited {rc}")
                continue
            outcome = checks.check_outputs(expected, out)
            failed += outcome.failed
            problems.extend(outcome.problems)
            if outcome.labels is None:
                continue
            if reference is None:
                reference = outcome
            elif (outcome.thetas != reference.thetas
                  or not np.array_equal(outcome.labels, reference.labels)):
                consistent = False
                problems.append("a round's output differs from the first round's")
        pairs += 1
        # stop before a round (or pair) that would end after --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (pairs + 1) / pairs > args.seconds and (pairs >= 2 or not args.trace):
            break

    for line in dict.fromkeys(problems):
        print(f"check: {line}", file=sys.stderr)
    if args.trace:
        tracer.dump(args.spans)
        per_round = [spans.layer_values(spans.round_totals(tracer.spans, r))
                     for r in range(len(traced_s))]
        # counts repeat exactly from round to round and stay whole numbers
        values = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                      [r[k] for r in per_round]) for k, v in per_round[0].items()}
        values["synth.generate_s"] = statistics.median(generate_s)
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        values["joint.motion_rmse"] = (checks.motion_rmse(reference.thetas, w.velocity)
                                       if w.solver and reference is not None else 0.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        ok = reference is not None
        values = {
            "setup_s": setup_s,
            "events_per_s": n_events / statistics.median(plain_s),
            "window_s_p50": statistics.median(timer.seconds) if timer.seconds else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sensitivity": reference.sensitivity if ok else 0.0,
            "specificity": reference.specificity if ok else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
