"""The benchmark's checks accept a correct output and reject wrong ones.

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py

Outputs are written here in the `.evj` layout with their sidecar, so no
solver runs; one test cross-checks the BAF reference against evjoint.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks

VELOCITY = (40.0, 25.0)
WINDOW_S = 0.05


def make_expected(solver: bool, n: int = 600, seed: int = 0) -> checks.Expected:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 0.2, n))
    # a dense 4x4 patch plus sparse events, so BAF labels are mixed
    dense = rng.random(n) < 0.6
    x = np.where(dense, rng.uniform(4.0, 8.0, n), rng.uniform(0.0, 32.0, n))
    y = np.where(dense, rng.uniform(4.0, 8.0, n), rng.uniform(0.0, 32.0, n))
    p = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    sample = np.sort(rng.choice(n, size=200, replace=False))
    return checks.Expected(
        x=x, y=y, t=t, p=p, truth=dense, width=32, height=32, velocity=VELOCITY,
        window_s=WINDOW_S, solver=solver,
        sensitivity_floor=0.8 if solver else None, specificity_floor=0.8 if solver else None,
        baf_sample=np.zeros(0, dtype=np.int64) if solver else sample,
    )


def correct_labels(exp: checks.Expected) -> np.ndarray:
    if exp.solver:
        return exp.truth.copy()
    labels = np.zeros(len(exp.t), dtype=bool)
    for lo, hi in checks.window_bounds(exp.t, exp.window_s):
        labels[lo:hi] = checks.baf_reference(exp.x, exp.y, exp.t, lo, hi,
                                             np.arange(lo, hi), *checks.BAF_DEFAULTS)
    return labels


def write_output(path, exp, labels, thetas, x=None, keep=None):
    """Write `path` and `path.json` as `denoise` would."""
    keep = np.ones(len(exp.t), dtype=bool) if keep is None else keep
    rec = np.empty(int(keep.sum()), dtype=checks.EVJ_RECORD)
    rec["x"] = (exp.x if x is None else x)[keep]
    rec["y"], rec["t"], rec["p"] = exp.y[keep], exp.t[keep], exp.p[keep]
    rec["label"] = labels[keep]
    path.write_bytes(checks.EVJ_HEADER.pack(checks.EVJ_MAGIC, exp.width, exp.height, len(rec))
                     + rec.tobytes())
    kept_t = exp.t[keep]
    windows = [{"theta": th, "counts": {"events": hi - lo,
                                        "signal_pred": int(labels[keep][lo:hi].sum())}}
               for (lo, hi), th in zip(checks.window_bounds(kept_t, exp.window_s), thetas)]
    path.with_name(path.name + ".json").write_text(json.dumps({"windows": windows}))
    return path


def right_thetas(exp):
    n = len(checks.window_bounds(exp.t, exp.window_s))
    return [[-VELOCITY[0], -VELOCITY[1]] if exp.solver else [0.0, 0.0] for _ in range(n)]


@pytest.mark.parametrize("solver", [True, False])
def test_correct_output_passes(tmp_path, solver):
    exp = make_expected(solver)
    labels = correct_labels(exp)
    assert 0 < labels.sum() < len(labels)
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp, labels,
                                                 right_thetas(exp)))
    assert out.problems == []
    assert out.window_ok == [True] * 4 and out.failed == 0


def test_theta_off_by_ten_percent_fails_its_window(tmp_path):
    exp = make_expected(True)
    thetas = right_thetas(exp)
    thetas[2] = [1.1 * v for v in thetas[2]]
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp,
                                                 correct_labels(exp), thetas))
    assert out.window_ok == [True, True, False, True]


def test_flipped_labels_fail_every_window(tmp_path):
    exp = make_expected(True)
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp,
                                                 ~correct_labels(exp), right_thetas(exp)))
    assert out.failed == 4
    assert any("sensitivity" in msg for msg in out.problems)


def test_flipped_sampled_baf_label_fails_its_window(tmp_path):
    exp = make_expected(False)
    labels = correct_labels(exp)
    k = int(exp.baf_sample[-1])
    labels[k] = not labels[k]
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp, labels,
                                                 right_thetas(exp)))
    window = next(i for i, (lo, hi) in enumerate(checks.window_bounds(exp.t, WINDOW_S))
                  if lo <= k < hi)
    assert out.failed == 1 and not out.window_ok[window]


@pytest.mark.parametrize("solver", [True, False])
def test_dropped_event_fails_every_window(tmp_path, solver):
    exp = make_expected(solver)
    keep = np.ones(len(exp.t), dtype=bool)
    keep[100] = False
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp, correct_labels(exp),
                                                 right_thetas(exp), keep=keep))
    assert out.failed == 4


@pytest.mark.parametrize("solver", [True, False])
def test_altered_event_fails_its_window(tmp_path, solver):
    exp = make_expected(solver)
    x = exp.x.copy()
    x[-1] = np.nextafter(x[-1], np.inf)  # one ulp is enough
    out = checks.check_outputs(exp, write_output(tmp_path / "o.evj", exp, correct_labels(exp),
                                                 right_thetas(exp), x=x))
    assert out.window_ok == [True, True, True, False]


def test_unreadable_output_fails_every_window(tmp_path):
    exp = make_expected(True)
    path = tmp_path / "o.evj"
    path.write_text("x,y,t,p,label\n")  # a CSV under the output name
    out = checks.check_outputs(exp, path)
    assert out.failed == 4 and "unreadable" in out.problems[0]


def test_baf_reference_matches_a_pairwise_count():
    exp = make_expected(False, n=300, seed=3)
    lo, hi = checks.window_bounds(exp.t, exp.window_s)[1]
    idx = np.arange(lo, hi)
    ref = checks.baf_reference(exp.x, exp.y, exp.t, lo, hi, idx, 0.010, 1, 1)
    px, py = np.floor(exp.x).astype(int), np.floor(exp.y).astype(int)
    for n, i in enumerate(idx):
        count = sum(1 for j in range(lo, hi) if j != i
                    and abs(px[j] - px[i]) <= 1 and abs(py[j] - py[i]) <= 1
                    and exp.t[i] - 0.010 <= exp.t[j] <= exp.t[i] + 0.010)
        assert ref[n] == (count >= 1)


def test_baf_reference_agrees_with_evjoint():
    baselines = pytest.importorskip("evjoint.baselines")
    from evjoint.events import Events, EventWindow, SensorGeometry

    exp = replace(make_expected(False, n=2000, seed=5), window_s=None)
    ev = Events(exp.x, exp.y, exp.t, exp.p)
    window = EventWindow(ev, SensorGeometry(32, 32), 0.0, 0.2, 0.1)
    ref = checks.baf_reference(exp.x, exp.y, exp.t, 0, len(ev), np.arange(len(ev)), *checks.BAF_DEFAULTS)
    assert np.array_equal(ref, baselines.baf_filter(window, baselines.BafConfig()))


def test_motion_rmse_and_error():
    assert checks.motion_error([-44.0, -27.5], VELOCITY) == pytest.approx(0.1)
    assert checks.motion_rmse([[-40.0, -25.0], [-43.0, -29.0]], VELOCITY) == pytest.approx(
        np.sqrt(25.0 / 2))


def test_benchmark_json_names_what_the_benchmark_prints():
    import spans
    import workload
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workload.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
