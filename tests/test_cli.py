import json
import logging
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import evjoint
from evjoint import baselines, cli
from evjoint.baselines import cmax_solve
from evjoint.cli import main
from evjoint.events import (Events, FixedDuration, SensorGeometry, read_events, window_stream,
                            write_events)
from evjoint.joint import JointConfig, solve
from evjoint.synth import Dot, SceneSpec, generate
from evjoint.warp import MotionParams


def run(*argv):
    return main(list(argv))


def confidences(out) -> np.ndarray:
    """The per-event confidences `denoise` wrote beside out."""
    return np.load(f"{out}.confidence.npy")


@pytest.fixture()
def synth_file(tmp_path):
    out = tmp_path / "in.evj"
    code = run("synth", "--pattern", "multi-edge", "--spacing", "8",
               "--geometry", "64x64", "--motion", "30,-10", "--duration", "0.1",
               "--noise-rate", "0.05", "--seed", "3", "-o", str(out))
    assert code == 0
    return out


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        assert run("synth", "--help") == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_exits_one(self):
        assert run("frobnicate") == 1

    def test_missing_required_flag_exits_one(self):
        assert run("synth") == 1

    def test_missing_input_exits_two(self, tmp_path):
        assert run("denoise", "-i", str(tmp_path / "nope.evj"),
                   "-o", str(tmp_path / "out.evj")) == 2

    def test_csv_without_geometry_exits_two(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("1,1,0.1,1\n")
        assert run("denoise", "-i", str(p), "-o", str(tmp_path / "o.evj")) == 2
        assert "geometry" in capsys.readouterr().err

    def test_csv_under_another_suffix_exits_two(self, tmp_path, capsys):
        src, out = tmp_path / "in.dat", tmp_path / "out.evj"
        src.write_text("x,y,t,p\n1,1,0.1,1\n2,2,0.2,-1\n")
        assert run("denoise", "--method", "baf", "-i", str(src), "-o", str(out),
                   "--geometry", "8x8") == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"evjoint: error: {src}: not an event binary (bad magic/header); "
            "CSV input needs a .csv or .txt name"]
        assert not out.exists()

    @pytest.mark.parametrize("offset,raw,reason", [
        (4, (0).to_bytes(4, "little"), "geometry must be at least 1x1, got 0x8"),
        (4, (1 << 20).to_bytes(4, "little") * 2,
         "geometry 1048576x1048576 exceeds 16777216 pixels"),
        (20 + 26, np.array([np.nan], "<f8").tobytes(), "non-finite coordinates"),
        (20 + 26 + 24, b"\x00", "polarity must be -1 or 1, got 0"),
    ], ids=["width-0", "2^20-square", "nan-x", "polarity-0"])
    def test_corrupt_evj_exits_two(self, tmp_path, capsys, offset, raw, reason):
        # a valid .evj with one field overwritten: the header's width (or
        # width and height), or the second record's x or polarity byte
        src, out = tmp_path / "in.evj", tmp_path / "out.evj"
        write_events(Events([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [1, -1, 1]), src,
                     geometry=SensorGeometry(8, 8))
        data = bytearray(src.read_bytes())
        data[offset:offset + len(raw)] = raw
        src.write_bytes(bytes(data))
        assert run("denoise", "-i", str(src), "-o", str(out)) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"evjoint: error: {src}: {reason}"]
        assert not out.exists()

    @pytest.mark.parametrize("body", ["x,y,t,p\n", "x,y,t,p\n1,1,0.1,1\n"],
                             ids=["header-only", "one-event"])
    def test_conflicting_window_flags_exit_two(self, tmp_path, capsys, body):
        p = tmp_path / "in.csv"
        p.write_text(body)
        out = tmp_path / "o.evj"
        assert run("denoise", "-i", str(p), "-o", str(out), "--geometry", "8x8",
                   "--window-ms", "10", "--window-count", "5") == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--window-ms=-5", "--window-ms=nan", "--window-count=0",
                                      "--kappa=-1", "--kappa=0", "--kappa=nan", "--kappa=inf",
                                      "--iters=-1", "--geometry=abc"])
    @pytest.mark.parametrize("body", ["x,y,t,p\n", "x,y,t,p\n1,1,0.1,1\n"],
                             ids=["header-only", "one-event"])
    @pytest.mark.parametrize("command", [["denoise", "--method", "baf"], ["estimate-motion"]])
    def test_invalid_window_flag_exits_two(self, tmp_path, capsys, command, body, flag):
        p = tmp_path / "in.csv"
        p.write_text(body)
        out = tmp_path / "o.out"
        assert run(*command, "-i", str(p), "-o", str(out), "--geometry", "8x8", flag) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestSynth:
    def test_writes_labeled_binary_and_sidecar(self, synth_file):
        loaded = read_events(synth_file)
        assert loaded.labels is not None
        assert loaded.geometry.width == 64
        side = json.loads((synth_file.parent / "in.evj.json").read_text())
        assert side["command"] == "synth" and side["schema"] == 2
        assert side["counts"]["events"] == len(loaded.events)
        assert side["theta_gt"] == [-30.0, 10.0]

    def test_impossible_scene_exits_two(self, tmp_path, capsys):
        code = run("synth", "--pattern", "vertical-edge", "--x0=-500",
                   "--motion=-10,0", "--duration", "0.1",
                   "-o", str(tmp_path / "x.evj"))
        assert code == 2

    @pytest.mark.parametrize("flag", ["--duration=inf", "--duration=1e30", "--duration=1e9",
                                      "--motion=1e300,0"])
    def test_unbounded_scene_exits_two(self, tmp_path, capsys, flag):
        assert run("synth", flag, "-o", str(tmp_path / "x.evj")) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestPipeline:
    def test_synth_denoise_eval_roundtrip(self, synth_file, tmp_path, capsys):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out),
                   "--method", "joint") == 0
        side = json.loads((tmp_path / "out.evj.json").read_text())
        assert side["command"] == "denoise"
        assert len(side["windows"]) == 1
        assert "theta" in side["windows"][0]
        assert len(confidences(out)) == side["counts"]["events"]

        assert run("eval", "--pred", str(out), "--truth", str(synth_file),
                   "--esr") == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("sensitivity", "specificity", "esr", "counts"):
            assert key in report
        assert report["sensitivity"] > 0.9

    def test_denoise_baf_and_seq_methods(self, synth_file, tmp_path):
        for method in ("baf", "cmax-seq"):
            out = tmp_path / f"{method}.evj"
            assert run("denoise", "-i", str(synth_file), "-o", str(out),
                       "--method", method) == 0
            assert read_events(out).labels is not None

    def test_output_format_follows_suffix(self, synth_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run("denoise", "-i", str(synth_file), "-o", str(out),
                   "--method", "baf") == 0
        assert out.read_text().startswith("x,y,t,p,label\n")
        assert run("eval", "--pred", str(out), "--truth", str(synth_file)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["tp"] + report["counts"]["fp"] > 0

    def test_nonfinite_objective_exits_two(self, synth_file, tmp_path, capsys):
        # finite weights whose exact minimum overflows the total: the L1 term
        # alpha * l1 with alpha / beta = 1 still keeps weight on the edges
        code = run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "o.evj"),
                   "--alpha", "1e308", "--beta", "1e308", "--iters", "4")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evjoint: error: non-finite objective at iteration 0")
        assert len(err.strip().splitlines()) == 1

    def test_huge_l1_weight_keeps_nothing(self, synth_file, tmp_path):
        # the exact weights are all 0 under an L1 weight of 1e200, so the
        # total stays finite and every event is noise
        out = tmp_path / "o.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out), "--alpha=1e200") == 0
        assert not read_events(out).labels.any()

    def test_gradient_too_large_exits_two(self, synth_file, tmp_path, capsys):
        # a finite fidelity weight whose motion gradient BFGS cannot square
        out = tmp_path / "o.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out), "--beta=1e300") == 2
        err = capsys.readouterr().err
        assert err.startswith("evjoint: error: motion gradient NaN or above 1e+150")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--b-ea=1", "--alpha=1e308", "--beta=1e308"],
                                       ["--alpha=1e308", "--beta=1e308"]],
                             ids=["explicit-b-ea", "warm-start"])
    def test_nonfinite_end_objective_exits_two(self, synth_file, tmp_path, capsys, flags):
        # no step runs: the end point's evaluation is checked as every step's is
        out = tmp_path / "o.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out), *flags, "--iters", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("evjoint: error: non-finite objective at iteration 0")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--alpha", "inf", "--b-ea", "nan"], ["--alpha=inf"],
                                       ["--beta=inf"], ["--b-ea=nan"], ["--b-ea=-inf"]],
                             ids=["alpha-inf-b-ea-nan", "alpha-inf", "beta-inf", "b-ea-nan",
                                  "b-ea-minus-inf"])
    def test_nonfinite_weight_exits_two_before_io(self, tmp_path, capsys, flags):
        # every window is degenerate, so no objective is evaluated: the
        # weights are refused with the configuration, not by the solve
        p = tmp_path / "in.csv"
        p.write_text("x,y,t,p\n1,1,0.1,1\n2,2,0.2,-1\n3,3,0.3,1\n")
        out = tmp_path / "o.evj"
        assert run("denoise", "-i", str(p), "-o", str(out), "--geometry", "8x8",
                   "--window-count", "5", *flags) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("evjoint: error:")
        assert not out.exists() and not (tmp_path / "o.evj.json").exists()

    @pytest.mark.parametrize("argv", [
        ["denoise", "--method", "baf", "-i", "{in}", "-o", "{in}/o.evj"],
        ["denoise", "--method", "baf", "-i", "{in}/x.evj", "-o", "o.evj"],
        ["synth", "-o", "{in}/x.evj"],
        ["eval", "--rmse", "{in}/est.csv", "--gt", "{in}/gt.csv"],
    ], ids=["denoise-output", "denoise-input", "synth-output", "eval-rmse"])
    def test_path_through_a_file_exits_two(self, synth_file, tmp_path, capsys, argv):
        # a path that runs through a regular file raises NotADirectoryError
        argv = [a.replace("{in}", str(synth_file)) for a in argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("evjoint: error:")
        assert "Not a directory" in err[0]

    @pytest.mark.parametrize("category", [RuntimeWarning, UserWarning])
    def test_solver_runtime_warning_surfaces(self, synth_file, tmp_path, monkeypatch, category):
        # the CLI silences no warning raised inside a solve
        def warning_solve(*args, **kwargs):
            warnings.warn("raised inside the solve", category)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", warning_solve)
        with pytest.warns(category, match="raised inside the solve"):
            run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "o.evj"), "--iters", "2")

    def test_degenerate_windows_report_zero_confidence(self, synth_file, tmp_path):
        out = tmp_path / "out.evj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a degenerate window raises no warning
            assert run("denoise", "-i", str(synth_file), "-o", str(out),
                       "--window-count", "7") == 0
        side = json.loads((tmp_path / "out.evj.json").read_text())
        assert side["counts"]["signal_pred"] == 0
        confidence = confidences(out)
        assert len(confidence) == side["counts"]["events"]
        assert (confidence == 0.0).all()

    def test_confidence_file_layout(self, synth_file, tmp_path):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out)) == 0
        confidence = confidences(out)
        side_path = Path(f"{out}.json")
        side = json.loads(side_path.read_text())
        assert confidence.dtype.str == "<f8" and confidence.ndim == 1
        assert len(confidence) == side["counts"]["events"] == len(read_events(out).events)
        assert side["schema"] == 2 and "confidence" not in side
        # one window of 4,219 events: its sidecar held 110 KB of confidences in schema 1
        assert side_path.stat().st_size < 8192

    def test_confidence_file_slices_are_window_solves(self, synth_file, tmp_path):
        # each window's slice, cut by the records' event counts, is its solve's samples
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out), "--window-ms", "40",
                   "--iters", "10") == 0
        confidence = confidences(out)
        records = json.loads(Path(f"{out}.json").read_text())["windows"]
        cuts = np.cumsum([0] + [rec["counts"]["events"] for rec in records])
        loaded = read_events(synth_file)
        windows = window_stream(loaded.events, loaded.geometry, FixedDuration(0.04))
        assert len(windows) == len(records) == 3 and cuts[-1] == len(confidence)
        start = None
        for w, a, b in zip(windows, cuts[:-1], cuts[1:]):
            res = solve(w, JointConfig(iterations=10), "translation2d", start)
            assert confidence[a:b].tobytes() == res.confidence.tobytes()
            start = None if res.stop_reason is None else res.theta  # as the CLI seeds

    def test_estimate_motion_csv(self, synth_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_ref,vx,vy"
        t_ref, vx, vy = (float(v) for v in lines[1].split(","))
        assert abs(vx + 30.0) < 3.0
        assert abs(vy - 10.0) < 3.0

    @pytest.mark.parametrize("model,header", [("translation2d", "t_ref,vx,vy"),
                                              ("rotation_inplane", "t_ref,omega")])
    def test_estimate_motion_cmax(self, synth_file, tmp_path, model, header):
        out = tmp_path / "traj.csv"
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(out), "--method", "cmax",
                   "--model", model, "--window-ms", "40", "--iters", "30") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == header
        loaded = read_events(synth_file)
        windows = window_stream(loaded.events, loaded.geometry, FixedDuration(0.04))
        assert len(lines) == 1 + len(windows) == 4
        cfg = JointConfig(iterations=30)
        theta = None  # each window's ascent is seeded with the previous window's motion
        for line, w in zip(lines[1:], windows):
            row = [float(v) for v in line.split(",")]
            theta = cmax_solve(w, model, cfg, theta=theta)
            assert row == [w.t_ref, *theta.values.tolist()]

    def test_estimate_motion_cmax_labels_nothing(self, synth_file, tmp_path, monkeypatch):
        # cmax's result already marks every event noise: nothing warps, maps or samples
        def refused(*args, **kwargs):
            raise AssertionError("estimate-motion --method cmax labelled its windows")

        for owner in (cli, baselines):
            for name in ("kept_result", "hard_map"):
                monkeypatch.setattr(owner, name, refused)
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(tmp_path / "traj.csv"),
                   "--method", "cmax", "--window-ms", "40", "--iters", "5") == 0

    def test_window_count_past_stream_is_one_window(self, synth_file, tmp_path):
        # a count past int64 once made the window starts floats
        outs = [tmp_path / "whole.evj", tmp_path / "huge.evj"]
        assert run("denoise", "-i", str(synth_file), "-o", str(outs[0]), "--method", "baf") == 0
        assert run("denoise", "-i", str(synth_file), "-o", str(outs[1]), "--method", "baf",
                   "--window-count", str(2**63)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (Path(f"{outs[0]}.confidence.npy").read_bytes()
                == Path(f"{outs[1]}.confidence.npy").read_bytes())
        sides = [json.loads(Path(f"{out}.json").read_text()) for out in outs]
        for side in sides:
            del side["config"]["output"], side["config"]["window_count"]
        assert sides[0] == sides[1]

    @pytest.mark.parametrize("argv,missing", [
        (["--pred", "{in}", "--gt", "{gt}"], "--gt needs --rmse"),
        (["--rmse", "{gt}"], "--rmse needs --gt"),
        (["--truth", "{in}"], "--truth needs --pred"),
        (["--esr", "--geometry", "64x64"], "--esr needs --pred"),
        (["--pred", "{in}", "--m-ref", "0"], "--m-ref needs --esr"),
        (["--pred", "{in}", "--geometry", "2x2"], "--geometry needs --esr"),
    ], ids=["gt", "rmse", "truth", "esr", "m-ref", "geometry"])
    def test_eval_flag_without_partner_exits_two(self, synth_file, tmp_path, capsys, argv,
                                                 missing):
        # a flag read only beside its partner is never silently ignored
        gt = tmp_path / "gt.csv"
        gt.write_text("t,vx,vy\n0.0,-30.0,10.0\n0.2,-30.0,10.0\n")
        paths = {"{gt}": str(gt), "{in}": str(synth_file)}
        capsys.readouterr()
        assert run("eval", *[paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"evjoint: error: {missing}"]

    def test_rmse_eval(self, synth_file, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(traj)) == 0
        gt = tmp_path / "gt.csv"
        gt.write_text("t,vx,vy\n0.0,-30.0,10.0\n0.2,-30.0,10.0\n")
        assert run("eval", "--rmse", str(traj), "--gt", str(gt)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rmse"] < 3.0

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("which", ["est", "gt"])
    def test_non_finite_trajectory_exits_two(self, tmp_path, capsys, value, which):
        # a NaN would otherwise reach the report as "rmse": NaN, which is not JSON
        paths = {name: tmp_path / f"{name}.csv" for name in ("est", "gt")}
        for name, path in paths.items():
            bad = value if name == which else "1.0"
            path.write_text(f"t,vx,vy\n0.0,1.0,2.0\n0.1,{bad},2.0\n")
        assert run("eval", "--rmse", str(paths["est"]), "--gt", str(paths["gt"])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"evjoint: error: {paths[which]}: line 3: non-finite trajectory value"]

    @pytest.mark.parametrize("text, line", [("\nt,vx,vy\n0.0,1.0,2.0\n", None),
                                            ("\n \nt,vx,vy\n0.0,1.0,2.0\n", None),
                                            ("0.0,1.0,2.0\nt,vx,vy\n", 2),
                                            ("t,vx,vy\nt,vx,vy\n0.0,1.0,2.0\n", 2)],
                             ids=["blank-then-header", "blanks-then-header",
                                  "header-after-a-row", "second-header"])
    def test_trajectory_header_is_the_first_nonblank_line(self, tmp_path, capsys, text, line):
        # as the event CSV reader does: blank lines before the header are skipped
        est = tmp_path / "est.csv"
        est.write_text(text)
        code = run("eval", "--rmse", str(est), "--gt", str(est))
        captured = capsys.readouterr()
        if line is None:
            assert code == 0 and json.loads(captured.out)["rmse"] == 0.0
        else:
            assert code == 2 and captured.err.strip().splitlines() == [
                f"evjoint: error: {est}: line {line}: unparseable trajectory row"]

    def test_windowed_denoise(self, tmp_path):
        src = tmp_path / "long.evj"
        assert run("synth", "--pattern", "dot", "--center", "20,32", "--radius", "6",
                   "--geometry", "64x64", "--motion", "30,10", "--duration", "0.4",
                   "--noise-rate", "0.1", "--seed", "1", "-o", str(src)) == 0
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(src), "-o", str(out), "--window-ms", "100") == 0
        side = json.loads((tmp_path / "out.evj.json").read_text())
        assert len(side["windows"]) == 4

    @pytest.mark.parametrize("command", [["denoise", "--method", "baf"], ["estimate-motion"]])
    def test_event_on_rounded_window_boundary(self, tmp_path, command):
        # (0.814 - 0.064) / 0.25 floors to 3, but 0.064 + 3 * 0.25 rounds
        # above 0.814
        p = tmp_path / "in.csv"
        p.write_text("x,y,t,p\n1,1,0.064,1\n2,2,0.814,-1\n")
        out = tmp_path / ("o.evj" if command[0] == "denoise" else "o.csv")
        assert run(*command, "-i", str(p), "-o", str(out), "--geometry", "8x8",
                   "--window-ms", "250") == 0
        if command[0] == "denoise":
            side = json.loads(out.with_name("o.evj.json").read_text())
            bounds = [(w["t_start"], w["t_end"]) for w in side["windows"]]
            assert len(bounds) == 2
            assert all(lo <= t <= hi for t, (lo, hi) in zip((0.064, 0.814), bounds))

    @pytest.mark.parametrize("command", [["denoise", "--method", "baf"], ["estimate-motion"]])
    def test_infinite_window_duration_exits_two(self, tmp_path, capsys, command):
        p = tmp_path / "in.csv"
        p.write_text("x,y,t,p\n1,1,0.064,1\n2,2,0.814,-1\n")
        assert run(*command, "-i", str(p), "-o", str(tmp_path / "o.evj"), "--geometry", "8x8",
                   "--window-ms", "inf") == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "window duration" in err and "inf" in err

    @pytest.mark.parametrize("command", [["denoise", "--method", "baf"], ["estimate-motion"]])
    def test_window_index_overflow_exits_two(self, tmp_path, capsys, command):
        p = tmp_path / "in.csv"
        p.write_text("x,y,t,p\n1,1,0.064,1\n2,2,0.814,-1\n3,3,0.9,1\n")
        assert run(*command, "-i", str(p), "-o", str(tmp_path / "o.evj"), "--geometry", "8x8",
                   "--window-ms", "1e-300") == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "window duration" in err

    @pytest.mark.parametrize("method,name", [("joint", "solve"), ("baf", "baf_filter")])
    def test_one_method_call_per_window(self, tmp_path, monkeypatch, method, name):
        # the benchmark times each window by wrapping these two names in `cli`
        src = tmp_path / "long.evj"
        assert run("synth", "--pattern", "dot", "--center", "20,32", "--radius", "6",
                   "--geometry", "64x64", "--motion", "30,10", "--duration", "0.4",
                   "--noise-rate", "0.1", "--seed", "1", "-o", str(src)) == 0
        calls = {"solve": 0, "baf_filter": 0}

        def counting(key):
            fn = getattr(cli, key)

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        for key in calls:
            monkeypatch.setattr(cli, key, counting(key))
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(src), "-o", str(out), "--window-ms", "100",
                   "--method", method, "--iters", "4") == 0
        windows = json.loads((tmp_path / "out.evj.json").read_text())["windows"]
        assert len(windows) == 4
        assert calls == {"solve": 0, "baf_filter": 0, name: len(windows)}

    def test_zero_iterations(self, synth_file, tmp_path, caplog):
        # no step in either phase: zero motion, and the weights solved exactly there
        out = tmp_path / "out.evj"
        with caplog.at_level(logging.INFO, logger="evjoint"):
            assert run("denoise", "-i", str(synth_file), "-o", str(out), "--iters", "0") == 0
        side = json.loads((tmp_path / "out.evj.json").read_text())
        (rec,) = side["windows"]
        assert rec["theta"] == [0.0, 0.0] and rec["iterations"] == 0
        confidence = confidences(out)
        assert len(confidence) == rec["counts"]["events"]
        assert (confidence >= 0.5).tolist() == read_events(out).labels.tolist()
        # the warm start stops at its cap of 0
        assert "theta=[0.0, 0.0], 0 warm (cap) + 0 joint steps (cap)" in caplog.text

    def test_stop_reason_logged_not_recorded(self, synth_file, tmp_path, caplog):
        out = tmp_path / "out.evj"
        with caplog.at_level(logging.INFO, logger="evjoint"):
            assert run("denoise", "-i", str(synth_file), "-o", str(out),
                       "--window-ms", "40") == 0
        records = json.loads((tmp_path / "out.evj.json").read_text())["windows"]
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("window")]
        assert len(lines) == len(records) == 3
        for i, (line, rec) in enumerate(zip(lines, records)):
            found = re.search(rf", (\d+) warm \((cap|settled)\) \+ {rec['iterations']} "
                              rf"joint steps \((settled|cap)\), from (zero|window {i - 1})$", line)
            assert found, line
            # BFGS settles far below the warm start's cap of 150 steps
            assert found[2] == "settled" and int(found[1]) < 150
            assert not {"stop_reason", "warm_iterations", "warm_stop_reason", "seeded"} & set(rec)

    def test_explicit_baseline_logs_no_warm_stop(self, synth_file, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="evjoint"):
            assert run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "out.evj"),
                       "--b-ea", "1.0", "--iters", "20") == 0
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("window")]
        assert re.search(r", 0 warm \+ \d+ joint steps \((settled|cap)\), from zero$", line), line

    def test_json_log_traces(self, synth_file, tmp_path, capsys):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out),
                   "--log", "json", "--iters", "5") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        (rec,) = json.loads((tmp_path / "out.evj.json").read_text())["windows"]
        assert 1 <= len(lines) == rec["iterations"] <= 5
        assert {"window", "iter", "f_ea", "f_ed", "total"} <= set(lines[0])

    def test_json_log_prints_each_step_as_it_is_taken(self, synth_file, tmp_path, capsys,
                                                     monkeypatch):
        # each window's lines carry iter 0 to n - 1, n its sidecar's
        # "iterations", and are all out by the time its solve returns
        printed = []

        def solved(*args, **kwargs):
            res = solve(*args, **kwargs)
            printed.append(capsys.readouterr().out)
            return res

        monkeypatch.setattr(cli, "solve", solved)
        assert run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "out.evj"),
                   "--window-ms", "40", "--iters", "60", "--log", "json") == 0
        assert capsys.readouterr().out == ""
        records = json.loads((tmp_path / "out.evj.json").read_text())["windows"]
        assert len(printed) == len(records) == 3
        for i, (text, rec) in enumerate(zip(printed, records)):
            lines = [json.loads(line) for line in text.splitlines()]
            assert [(line["window"], line["iter"]) for line in lines] == \
                [(i, k) for k in range(rec["iterations"])]
            assert all(list(line) == ["window", "iter", "f_ea", "f_ed", "r_ea", "r_ed",
                                      "worst_regret", "total"] for line in lines)


def _joined(tmp_path, geometry, parts):
    """Write the event streams one after another; a (spec, t0) part is the
    scene's stream (seed 1) shifted to start at t0."""
    streams = []
    for part in parts:
        if isinstance(part, tuple):
            ev = generate(part[0], 1)[0].events
            part = Events(ev.x, ev.y, ev.t + part[1], ev.p)
        streams.append(part)
    path = tmp_path / "joined.evj"
    write_events(Events.concatenate(streams), path, geometry=geometry)
    return path


class TestWarmStartSeed:
    """Window k's first descent starts from window k-1's motion when that
    aligns window k better than zero motion does."""

    def test_velocity_reversal(self, tmp_path, caplog):
        g = SensorGeometry(96, 96)
        there = SceneSpec(g, Dot((24.0, 40.0), 8.0), MotionParams.translation(40.0, 25.0), 1.0,
                          noise_rate=0.1)
        back = SceneSpec(g, Dot((64.0, 65.0), 8.0), MotionParams.translation(-40.0, -25.0), 1.0,
                         noise_rate=0.1)
        src = _joined(tmp_path, g, [(there, 0.0), (back, 1.0)])
        out = tmp_path / "out.evj"
        with caplog.at_level(logging.INFO, logger="evjoint"):
            assert run("denoise", "-i", str(src), "-o", str(out), "--method", "joint",
                       "--window-ms", "250") == 0
        records = json.loads((tmp_path / "out.evj.json").read_text())["windows"]
        assert len(records) == 8
        for rec in records:
            truth = np.array([-40.0, -25.0]) if rec["t_ref"] < 1.0 else np.array([40.0, 25.0])
            err = np.linalg.norm(np.array(rec["theta"]) - truth) / np.linalg.norm(truth)
            assert err < 0.01, (rec["t_ref"], rec["theta"])
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("window")]
        # the constant stretches are seeded; the reversed motion misaligns window 4
        assert [line.endswith(f"from window {i - 1}") for i, line in enumerate(lines)] == [
            False, True, True, True, False, True, True, True]

    def test_degenerate_window_resets_the_seed(self, tmp_path, monkeypatch):
        g = SensorGeometry(64, 64)
        spec = SceneSpec(g, Dot((20.0, 30.0), 6.0), MotionParams.translation(30.0, 10.0), 0.2,
                         noise_rate=0.1)
        stray = Events([5.5, 40.5, 12.5, 60.5], [8.5, 3.5, 50.5, 30.5], [0.22, 0.24, 0.26, 0.28],
                       np.ones(4, dtype=np.int8))
        src = _joined(tmp_path, g, [(spec, 0.0), stray, (spec, 0.3)])
        starts = []

        def recording(w, cfg, model, start=None, on_step=None):
            starts.append(start)
            return solve(w, cfg, model, start, on_step)

        monkeypatch.setattr(cli, "solve", recording)
        outs = [tmp_path / "a.evj", tmp_path / "b.evj"]
        for out in outs:
            assert run("denoise", "-i", str(src), "-o", str(out), "--window-ms", "100",
                       "--iters", "60") == 0
        records = json.loads((tmp_path / "a.evj.json").read_text())["windows"]
        counts = [rec["counts"]["events"] for rec in records]
        assert len(counts) == 5 and counts[2] < 10 <= min(counts[:2] + counts[3:])
        seeds = starts[:5]
        assert seeds[0] is None and seeds[3] is None  # first window, window after degenerate
        for k in (1, 2, 4):
            assert seeds[k].values.tolist() == records[k - 1]["theta"]
        # seeded runs stay deterministic (criterion 7)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "a.evj.json").read_text().replace("a.evj", "b.evj") == \
            (tmp_path / "b.evj.json").read_text()

    def test_cmax_windows_log_steps_and_start(self, synth_file, tmp_path, caplog):
        out = tmp_path / "traj.csv"
        with caplog.at_level(logging.INFO, logger="evjoint"):
            assert run("estimate-motion", "-i", str(synth_file), "-o", str(out),
                       "--method", "cmax", "--window-ms", "40") == 0
            assert run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "o.evj"),
                       "--method", "cmax-seq", "--window-ms", "40") == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("window")]
        assert len(lines) == 6
        for i, line in enumerate(lines):
            assert re.search(rf", \d+ cmax steps \((settled|cap)\), from "
                             rf"(zero|window {i % 3 - 1})$", line), line
        assert lines[0].endswith("from zero") and lines[3].endswith("from zero")


class TestRender:
    def test_pgm_output(self, synth_file, tmp_path):
        out = tmp_path / "map.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(out)) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n64 64\n255\n")
        assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64
        assert max(data[-64 * 64:]) == 255

    def test_aligned_render_is_sharper(self, synth_file, tmp_path):
        raw = tmp_path / "raw.pgm"
        aligned = tmp_path / "ali.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(raw)) == 0
        assert run("render", "-i", str(synth_file), "-o", str(aligned),
                   "--theta=-30,10") == 0
        # aligned map concentrates: more zero pixels than the raw render
        header = len(b"P5\n64 64\n255\n")
        raw_px = np.frombuffer(raw.read_bytes()[header:], dtype=np.uint8)
        ali_px = np.frombuffer(aligned.read_bytes()[header:], dtype=np.uint8)
        assert (ali_px == 0).sum() > (raw_px == 0).sum()

    def test_theta_and_omega_are_exclusive(self, synth_file, tmp_path, capsys):
        # with both given, the image used omega alone while the sidecar recorded both
        out = tmp_path / "map.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(out), "--theta=-30,-12",
                   "--omega", "0.5") == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_hard_map_render(self, synth_file, tmp_path):
        out = tmp_path / "hard.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(out), "--hard") == 0

    def test_omega_render(self, synth_file, tmp_path, capsys):
        plain, turned = tmp_path / "plain.pgm", tmp_path / "turned.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(plain)) == 0
        assert run("render", "-i", str(synth_file), "-o", str(turned), "--omega", "2") == 0
        assert capsys.readouterr().err == ""
        assert turned.read_bytes()[:13] == b"P5\n64 64\n255\n"
        assert turned.read_bytes() != plain.read_bytes()
        assert json.loads(Path(f"{turned}.json").read_text())["config"]["omega"] == 2.0

    @pytest.mark.parametrize("argv,message", [
        (["synth", "-o", "{out}.evj", "--motion", "5"],
         "bad --motion '5', expected two comma-separated numbers"),
        (["render", "-i", "{in}", "-o", "{out}.pgm", "--theta", "1,2,3"],
         "bad --theta '1,2,3', expected two comma-separated numbers"),
    ], ids=["one-part", "three-parts"])
    def test_bad_pair_exits_two(self, synth_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv = [a.replace("{in}", str(synth_file)).replace("{out}", str(out)) for a in argv]
        assert run(*argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"evjoint: error: {message}"]
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("name", ["map.png", "map"])
    def test_non_pgm_output_exits_two(self, synth_file, tmp_path, capsys, name):
        out = tmp_path / name
        assert run("render", "-i", str(synth_file), "-o", str(out)) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestGeometryFlag:
    """--geometry names the sensor of a stream that stores none; on a stream
    that stores one it must name the same size, never be silently ignored."""

    @pytest.mark.parametrize("command,name", [
        (["denoise", "--method", "baf"], "out.evj"),
        (["estimate-motion", "--method", "cmax", "--iters", "2"], "out.csv"),
        (["render", "--hard"], "out.pgm"),
    ], ids=["denoise", "estimate-motion", "render"])
    def test_stream_commands(self, synth_file, tmp_path, capsys, command, name):
        out = tmp_path / name
        assert run(*command, "-i", str(synth_file), "-o", str(out), "--geometry", "8x8") == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "evjoint: error: --geometry 8x8 differs from the stream's stored 64x64"]
        assert not out.exists()
        assert run(*command, "-i", str(synth_file), "-o", str(out), "--geometry", "64X64") == 0

    def test_eval_esr(self, synth_file, tmp_path, capsys):
        assert run("eval", "--pred", str(synth_file), "--esr", "--geometry", "2x2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "evjoint: error: --geometry 2x2 differs from the stream's stored 64x64"]
        assert run("eval", "--pred", str(synth_file), "--esr", "--geometry", "64x64") == 0
        with_flag = json.loads(capsys.readouterr().out)
        assert run("eval", "--pred", str(synth_file), "--esr") == 0
        assert json.loads(capsys.readouterr().out) == with_flag


class TestEvalReport:
    def test_esr_clamp_warns(self, synth_file, capsys):
        # an --m-ref past the kept count clamps esr's decay base, which it says
        with pytest.warns(UserWarning, match="clamping"):
            assert run("eval", "--pred", str(synth_file), "--esr", "--m-ref", "100000") == 0
        assert json.loads(capsys.readouterr().out)["esr_m_ref"] == 100000

    def test_report_to_file(self, synth_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("eval", "--pred", str(synth_file), "--truth", str(synth_file),
                   "-o", str(report)) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text())["sensitivity"] == 1.0
        side = json.loads(Path(f"{report}.json").read_text())
        assert side["command"] == "eval" and side["config"]["output"] == str(report)

    @pytest.mark.parametrize("argv,message", [
        (["--pred", "{bare}"], "{bare} has no label column"),
        (["--pred", "{in}", "--truth", "{bare}"], "{bare} has no label column"),
        (["--pred", "{in}", "--truth", "{short}"], "prediction and truth streams differ in length"),
        ([], "nothing to evaluate; pass --pred and/or --rmse"),
    ], ids=["pred-unlabeled", "truth-unlabeled", "lengths", "nothing"])
    def test_error_exits_two(self, synth_file, tmp_path, capsys, argv, message):
        loaded = read_events(synth_file)
        paths = {"{in}": str(synth_file), "{bare}": str(tmp_path / "bare.evj"),
                 "{short}": str(tmp_path / "short.evj")}
        write_events(loaded.events, paths["{bare}"], geometry=loaded.geometry)
        write_events(loaded.events[:10], paths["{short}"], labels=loaded.labels[:10],
                     geometry=loaded.geometry)
        report = tmp_path / "report.json"
        assert run("eval", *[paths.get(a, a) for a in argv], "-o", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"evjoint: error: {message.replace('{bare}', paths['{bare}'])}"]
        assert not report.exists()

    def test_trajectory_blank_lines_skipped(self, tmp_path, capsys):
        est, gt = tmp_path / "est.csv", tmp_path / "gt.csv"
        est.write_text("t,vx,vy\n\n0.0,1.0,2.0\n\n0.5,1.0,2.0\n\n")
        gt.write_text("t,vx,vy\n0.0,1.0,2.0\n1.0,1.0,2.0\n")
        assert run("eval", "--rmse", str(est), "--gt", str(gt)) == 0
        assert json.loads(capsys.readouterr().out) == {"rmse": 0.0}

    @pytest.mark.parametrize("text,message", [
        ("t,vx,vy\n0.0,1.0,2.0\nabc,1.0,2.0\n", "line 3: unparseable trajectory row"),
        ("t,vx,vy\n0.0\n", "line 2: need time plus parameters"),
        ("t,vx,vy\n\n", "empty trajectory"),
    ], ids=["unparseable", "short", "empty"])
    def test_bad_trajectory_exits_two(self, tmp_path, capsys, text, message):
        est, gt, report = tmp_path / "est.csv", tmp_path / "gt.csv", tmp_path / "report.json"
        est.write_text(text)
        gt.write_text("t,vx,vy\n0.0,1.0,2.0\n1.0,1.0,2.0\n")
        assert run("eval", "--rmse", str(est), "--gt", str(gt), "-o", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"evjoint: error: {est}: {message}"]
        assert not report.exists()


class TestSigmaBound:
    @pytest.mark.parametrize("sigma", ["inf", "1e300", "1000", "0.5"])
    @pytest.mark.parametrize("command", ["denoise", "estimate-motion", "render"])
    def test_unusable_sigma_exits_two_before_allocating(self, synth_file, tmp_path, capsys,
                                                        command, sigma):
        out = tmp_path / ("o.pgm" if command == "render" else "o.out")
        tracemalloc.start()
        try:
            code = run(command, "-i", str(synth_file), "-o", str(out), f"--sigma={sigma}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "sigma" in err[0]
        assert not out.exists()
        assert peak < 16 << 20


class TestSensorSizeBound:
    """A sensor past events.MAX_PIXELS exits 2 before any map is allocated.
    Without the bound these cases ask numpy for maps of tens of GiB, so they
    run only in a subprocess under a 2 GiB address-space limit."""

    LIMIT = 2 << 30

    @classmethod
    def _run_limited(cls, cwd, *argv):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cls.LIMIT, cls.LIMIT))

        src = str(Path(evjoint.__file__).resolve().parents[1])
        # one BLAS thread: each further one reserves address space of its own
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "evjoint.cli", *argv], cwd=cwd, env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("argv", [
        ["synth", "--geometry", "100000x100000", "--noise-rate", "0.1", "-o", "x.evj"],
        ["denoise", "--method", "baf", "--geometry", "100000x100000", "-i", "in.csv",
         "-o", "o.evj"],
        ["render", "--hard", "--geometry", "100000x100000", "-i", "in.csv", "-o", "o.pgm"],
        ["denoise", "--method", "baf", "-i", "huge.evj", "-o", "o.evj"],
    ], ids=["synth", "denoise-baf", "render-hard", "evj-header"])
    def test_oversized_sensor_exits_two(self, tmp_path, argv):
        (tmp_path / "in.csv").write_text("x,y,t,p\n1,1,0.01,1\n2,3,0.02,-1\n5,4,0.03,1\n")
        # a valid .evj whose header then claims a 100000 x 100000 sensor
        huge = tmp_path / "huge.evj"
        write_events(read_events(tmp_path / "in.csv").events, huge, geometry=SensorGeometry(8, 8))
        raw = bytearray(huge.read_bytes())
        raw[4:12] = (100000).to_bytes(4, "little") * 2
        huge.write_bytes(bytes(raw))
        proc = self._run_limited(tmp_path, *argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "100000x100000 exceeds" in err[0]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["huge.evj", "in.csv"]


class TestSynthPatternBound:
    """Pattern parameters that are non-finite, or that ask for more than
    synth.MAX_AXIS_CROSSINGS emitters or noise events, exit 2 before any
    emitter or noise event is allocated. Unbounded, the large ones ask numpy
    for arrays of GiB to TiB, so they run only under TestSensorSizeBound's
    address-space limit."""

    @pytest.mark.parametrize("argv,message", [
        (["--pattern", "dot", "--radius", "inf"], "dot radius must be positive and finite"),
        (["--pattern", "dot", "--radius", "1e12"], "6.28e+12 emitters, above the limit"),
        (["--pattern", "multi-edge", "--spacing", "1e-7"], "8.19e+10 emitters, above the limit"),
        (["--pattern", "vertical-edge", "--x0", "inf"], "edge column must be finite"),
        (["--pattern", "dot", "--center", "inf,3"], "dot center must be finite"),
        # a still axis past 2**53, where ceil(q) - 1 == ceil(q)
        (["--pattern", "dot", "--center", "30,1e16"], "produces no events inside the sensor"),
        (["--pattern", "dot", "--center", "30,30", "--radius", "5", "--geometry", "64x64",
          "--motion", "20,0", "--noise-rate", "0.9999999999"], "noise events, above the limit"),
    ], ids=["dot-radius-inf", "dot-radius-1e12", "multi-edge-spacing-1e-7",
            "vertical-edge-x0-inf", "dot-center-inf", "dot-center-far", "noise-rate-near-1"])
    def test_unbounded_pattern_exits_two(self, tmp_path, argv, message):
        proc = TestSensorSizeBound._run_limited(tmp_path, "synth", *argv, "-o", "x.evj")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert list(tmp_path.iterdir()) == []


class TestBafRadiusBound:
    def test_huge_radius_exits_two(self, tmp_path):
        # one 100 ms window of the 128x128 benchmark CSV scene, ~35k events:
        # r = 3000 is cut to the 127 px pixel spread and is still far past
        # baselines.BAF_MAX_WORK; unbounded, the filter loops 36M times
        assert run("synth", "--pattern", "multi-edge", "--spacing", "8", "--geometry", "128x128",
                   "--motion", "60,-20", "--duration", "0.1", "--noise-rate", "0.1",
                   "--seed", "1", "-o", str(tmp_path / "in.evj")) == 0
        proc = TestSensorSizeBound._run_limited(tmp_path, "denoise", "--method", "baf",
                                                "--baf-radius", "3000", "-i", "in.evj",
                                                "-o", "o.evj")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "BAF radius 127" in err[0] and "work bound" in err[0]
        assert not (tmp_path / "o.evj").exists()


class TestFlags:
    """--log belongs to the solver commands; --seed and --threads only to
    synth and denoise (the reproducibility criterion passes both to both).
    The solver's step sizes are constants, not flags."""

    @pytest.mark.parametrize("command,flag", [
        ("estimate-motion", "--seed=1"), ("estimate-motion", "--threads=1"),
        ("eval", "--seed=1"), ("eval", "--threads=1"),
        ("render", "--seed=1"), ("render", "--threads=1"),
        ("synth", "--log=json"), ("eval", "--log=json"), ("render", "--log=json"),
        ("denoise", "--lr-theta=0.05"), ("denoise", "--lr-logits=0.1"),
        ("estimate-motion", "--lr-theta=0.05"), ("estimate-motion", "--lr-logits=0.1"),
    ])
    def test_flag_rejected(self, synth_file, tmp_path, capsys, command, flag):
        argv = {
            "synth": ["-o", str(tmp_path / "s.evj")],
            "denoise": ["-i", str(synth_file), "-o", str(tmp_path / "d.evj"),
                        "--method", "cmax-seq", "--iters", "2"],
            "estimate-motion": ["-i", str(synth_file), "-o", str(tmp_path / "m.csv"),
                                "--method", "cmax", "--iters", "2"],
            "eval": ["--pred", str(synth_file), "--truth", str(synth_file)],
            "render": ["-i", str(synth_file), "-o", str(tmp_path / "r.pgm")],
        }[command]
        assert run(command, *argv) == 0
        capsys.readouterr()
        assert run(command, *argv, flag) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_denoise_records_seed_threads_and_log(self, synth_file, tmp_path):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out), "--method", "baf",
                   "--seed", "5", "--threads", "2", "--log", "json") == 0
        config = json.loads((tmp_path / "out.evj.json").read_text())["config"]
        assert (config["seed"], config["threads"], config["log"]) == (5, 2, "json")


class TestReproducibility:
    def test_same_invocation_bitwise_identical(self, tmp_path):
        args = ("synth", "--pattern", "dot", "--center", "30,30", "--radius", "5",
                "--motion", "25,5", "--duration", "0.2", "--noise-rate", "0.1",
                "--seed", "7")
        a = tmp_path / "a.evj"
        b = tmp_path / "b.evj"
        assert run(*args, "-o", str(a)) == 0
        assert run(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

        out_a = tmp_path / "da.evj"
        out_b = tmp_path / "db.evj"
        assert run("denoise", "-i", str(a), "-o", str(out_a), "--iters", "40") == 0
        assert run("denoise", "-i", str(a), "-o", str(out_b), "--iters", "40") == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (Path(f"{out_a}.confidence.npy").read_bytes()
                == Path(f"{out_b}.confidence.npy").read_bytes())
