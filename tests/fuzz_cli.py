"""Numeric-flag fuzz corpus for the command line.

Runs every numeric flag of `synth`, `denoise`, `estimate-motion` and
`render`, and `eval --esr --m-ref`, with each of nan, +-inf, 0, -1, 1e300,
1e-300 and 2^63; the pair flags (`synth --motion` and `--center`, `render
--theta`) get each value in both parts, and in one part with 1 in the other;
`denoise --alpha` with `--beta=0`, and `--beta` with `--alpha=0`;
`--geometry` with each of 0x0, nanx1, 64x, 4096x4097 and 2x2 on `synth`, and
on `denoise`, `estimate-motion`, `render` and `eval --esr` over the `.evj`
input, which stores 64x64; and `eval --rmse` on trajectories with 1e200
values and with repeated times: 389 cases.
Each case runs in its own subprocess, one at a time, under an address-space
limit of 2 GiB, a 60 s timeout and PYTHONWARNINGS=error::RuntimeWarning.
A case fails on a traceback, an exit code outside {0, 1, 2}, a timeout,
an exit 2 whose stderr holds more than its one error line (log lines aside),
or a `denoise` exit 0 that leaves no `<out>.confidence.npy` of one float64
per record of the output `.evj`.

    python tests/fuzz_cli.py        # exits 1 if any case fails

The file name keeps pytest from collecting it: the corpus takes about a
minute.
"""

from __future__ import annotations

import os
import resource
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 2 << 30
TIMEOUT_S = 60
VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", str(2**63))
GEOMETRIES = ("0x0", "nanx1", "64x", "4096x4097", "2x2")  # the values --geometry gets

# (command, the flags every case of it passes, the fuzzed flag, extra flags
# that make the fuzzed flag matter); "{out}" is the case's output path and
# "{in}" the shared input stream
STREAM = ["-i", "{in}", "-o", "{out}"]
SOLVE = [*STREAM, "--iters", "20"]
ESR = ["--pred", "{in}", "--esr"]
FLAGS = [
    ("synth", ["-o", "{out}", "--duration", "0.05"], flag, extra)
    for flag, extra in [
        ("--x0", ["--pattern", "vertical-edge"]), ("--center", ["--pattern", "dot"]),
        ("--radius", ["--pattern", "dot"]), ("--spacing", []), ("--motion", []),
        ("--duration", []), ("--contrast", []), ("--noise-rate", []), ("--seed", []),
        ("--threads", []),
    ]
] + [
    ("denoise", [*SOLVE, "--method", "baf"], flag, [])
    for flag in ("--baf-dt-max", "--baf-radius", "--baf-min-support")
] + [
    ("denoise", SOLVE, flag, [])
    for flag in ("--alpha", "--beta", "--kappa", "--b-ea", "--iters", "--sigma", "--tau",
                 "--window-ms", "--window-count", "--seed", "--threads")
] + [
    # the corners of the exact weight solve: every m > 0 pixel free (beta = 0),
    # and beta + lam / n = 0 at lam = 0 (alpha = 0, beta fuzzed)
    ("denoise", SOLVE, "--alpha", ["--beta=0"]), ("denoise", SOLVE, "--beta", ["--alpha=0"]),
] + [
    ("estimate-motion", SOLVE, flag, [])
    for flag in ("--alpha", "--beta", "--kappa", "--b-ea", "--iters", "--sigma", "--tau",
                 "--window-ms", "--window-count")
] + [
    ("render", STREAM, flag, []) for flag in ("--theta", "--omega", "--sigma")
] + [
    ("eval", ESR, "--m-ref", []),
] + [
    (command, base, "--geometry", [])
    for command, base in (("synth", ["-o", "{out}", "--duration", "0.05"]), ("denoise", SOLVE),
                          ("estimate-motion", SOLVE), ("render", STREAM), ("eval", ESR))
]
# comma-separated pairs: the value goes in both parts, then in each part with 1 in the other
PAIRS = {"--center", "--motion", "--theta"}
SUFFIX = {"synth": ".evj", "denoise": ".evj", "estimate-motion": ".csv", "render": ".pgm",
          "eval": ".json"}

# (name, estimated trajectory, truth trajectory) for `eval --rmse`
TRAJECTORIES = [
    ("est-1e200", "t,vx,vy\n0.1,1e200,0\n", "t,vx,vy\n0,0,0\n1,0,0\n"),
    ("gt-1e200", "t,vx,vy\n0.5,0,0\n", "t,vx,vy\n0,1e200,-1e200\n1,1e200,-1e200\n"),
    ("gt-repeated-time", "t,vx,vy\n0,5,0\n", "t,vx,vy\n0,0,0\n0,1,0\n1,1,0\n"),
    ("gt-repeated-time-swapped", "t,vx,vy\n0,5,0\n", "t,vx,vy\n0,1,0\n0,0,0\n1,1,0\n"),
]


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(argv: list[str], cwd: Path) -> tuple[int | None, str]:
    """(exit code or None on timeout, stderr) of one `evjoint` run."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error::RuntimeWarning",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "evjoint.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stderr


def problem(code: int | None, stderr: str) -> str | None:
    """Why a run fails the corpus, or None when it passes."""
    if code is None:
        return f"timed out after {TIMEOUT_S} s"
    if "Traceback" in stderr:
        return "traceback"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2:
        lines = [line for line in stderr.splitlines() if not line.startswith("INFO evjoint:")]
        if len(lines) != 1 or not lines[0].startswith("evjoint: error:"):
            return f"exit 2 with {len(lines)} lines besides the log"
    return None


def confidence_problem(out: Path) -> str | None:
    """Why a `denoise` run that exited 0 left no full confidence file beside
    its output .evj out, or None when it did."""
    try:
        with open(out, "rb") as f:
            (records,) = struct.unpack("<Q", f.read(20)[12:])  # the header's event count
        conf = np.load(f"{out}.confidence.npy", allow_pickle=False)
    except (OSError, ValueError, struct.error) as exc:
        return f"unreadable output or confidence file: {exc}"
    if conf.dtype.str != "<f8" or conf.shape != (records,):
        return f"confidence file holds {conf.shape} {conf.dtype.str}, not ({records},) <f8"
    return None


def cases(tmp: Path) -> list[tuple[str, list[str], Path | None]]:
    """(name, argv, the output .evj of a denoise case or None) of every case."""
    out = []
    for command, base, flag, extra in FLAGS:
        for value in GEOMETRIES if flag == "--geometry" else VALUES:
            for given in ([f"{value},{value}", f"{value},1", f"1,{value}"] if flag in PAIRS
                          else [value]):
                path = tmp / f"case{len(out)}{SUFFIX[command]}"
                argv = [a.replace("{in}", str(tmp / "in.evj")).replace("{out}", str(path))
                        for a in base]
                out.append((" ".join([command, *extra, f"{flag}={given}"]),
                            [command, *argv, *extra, f"{flag}={given}"],
                            path if command == "denoise" else None))
    for name, est, gt in TRAJECTORIES:
        (tmp / f"{name}.est.csv").write_text(est)
        (tmp / f"{name}.gt.csv").write_text(gt)
        out.append((f"eval --rmse {name}", ["eval", "--rmse", str(tmp / f"{name}.est.csv"),
                                            "--gt", str(tmp / f"{name}.gt.csv")], None))
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        code, stderr = run_cli(["synth", "--duration", "0.05", "--noise-rate", "0.05",
                                "-o", str(tmp / "in.evj")], tmp)
        if code != 0:
            print(f"could not write the input stream (exit {code}):\n{stderr}")
            return 1
        all_cases = cases(tmp)
        failures = 0
        start = time.perf_counter()
        for name, argv, evj in all_cases:
            code, stderr = run_cli(argv, tmp)
            why = problem(code, stderr)
            if why is None and code == 0 and evj is not None:
                why = confidence_problem(evj)
            if why is not None:
                failures += 1
                print(f"FAIL {name}: {why}\n{stderr.rstrip()}\n")
        print(f"{len(all_cases)} cases, {failures} failed, "
              f"{time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
