"""evjoint benchmark: one workload per run, in a fresh single-threaded process.

    python3 benchmarks/run.py --workload small-windows --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --layers

A workload run synthesizes its input from --seed with `evjoint.synth`,
writes it to a file under .bench_work/, runs `evjoint denoise` on it
in-process for --seconds, checks the outputs, and prints one JSON object as
its last line: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones (spans go to
.bench_work/spans-<workload>-seed<n>.jsonl). --layers prints the per-layer
reference table instead (see layers.py). Exits non-zero, printing no
result, when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# A run must end within 180 s; the worker is killed before that.
RUN_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], log: Path, timeout: float) -> int:
    with open(log, "w", encoding="utf-8") as f:
        try:
            return subprocess.run(cmd, env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=f, stderr=subprocess.STDOUT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"benchmark: worker exceeded {timeout:.0f} s", file=sys.stderr)
            return 1


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_workload(args) -> int:
    start = time.perf_counter()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result = work / "result.json"
    log = work / "worker.log"
    try:
        rc = _run_child(
            [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(work), "--result", str(result),
             "--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")],
            log, RUN_LIMIT_S - (time.perf_counter() - start))
        checks = [line for line in _tail(log, 200).splitlines() if line.startswith("check:")]
        if rc != 0 or not result.exists():
            print(f"benchmark: worker failed (exit {rc})\n{_tail(log)}", file=sys.stderr)
            return 1
        if checks:
            print("\n".join(checks[:20]), file=sys.stderr)
        print(json.dumps(json.loads(result.read_text(encoding="utf-8"))))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_layers(args) -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / "layers.log"
    rc = _run_child([sys.executable, str(HERE / "layers.py"), "--seed", str(args.seed),
                     "--workdir", str(WORK)], log, timeout=1800.0)
    print(log.read_text(encoding="utf-8"), end="")
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layers", action="store_true",
                   help="print the per-layer reference table (not a workload)")
    args = p.parse_args(argv)
    if args.layers:
        return run_layers(args)
    if args.workload is None:
        p.error("--workload is required unless --layers is given")
    if not (ROOT / "src" / "evjoint").is_dir():
        print(f"benchmark: no evjoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
