import json

import numpy as np
import pytest

from evjoint.cli import main
from evjoint.events import read_events


def run(*argv):
    return main(list(argv))


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


class TestSynth:
    def test_writes_labeled_binary_and_sidecar(self, synth_file):
        loaded = read_events(synth_file)
        assert loaded.labels is not None
        assert loaded.geometry.width == 64
        side = json.loads((synth_file.parent / "in.evj.json").read_text())
        assert side["command"] == "synth"
        assert side["counts"]["events"] == len(loaded.events)
        assert side["theta_gt"] == [-30.0, 10.0]

    def test_impossible_scene_exits_two(self, tmp_path, capsys):
        code = run("synth", "--pattern", "vertical-edge", "--x0=-500",
                   "--motion=-10,0", "--duration", "0.1",
                   "-o", str(tmp_path / "x.evj"))
        assert code == 2


class TestPipeline:
    def test_synth_denoise_eval_roundtrip(self, synth_file, tmp_path, capsys):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out),
                   "--method", "joint") == 0
        side = json.loads((tmp_path / "out.evj.json").read_text())
        assert side["command"] == "denoise"
        assert len(side["windows"]) == 1
        assert "theta" in side["windows"][0]
        assert len(side["confidence"][0]) == side["counts"]["events"]

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
        code = run("denoise", "-i", str(synth_file), "-o", str(tmp_path / "o.evj"),
                   "--b-ea", "inf", "--iters", "4")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evjoint: error: non-finite objective at iteration 0")
        assert len(err.strip().splitlines()) == 1

    def test_estimate_motion_csv(self, synth_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_ref,vx,vy"
        t_ref, vx, vy = (float(v) for v in lines[1].split(","))
        assert abs(vx + 30.0) < 3.0
        assert abs(vy - 10.0) < 3.0

    def test_rmse_eval(self, synth_file, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run("estimate-motion", "-i", str(synth_file), "-o", str(traj)) == 0
        gt = tmp_path / "gt.csv"
        gt.write_text("t,vx,vy\n0.0,-30.0,10.0\n0.2,-30.0,10.0\n")
        assert run("eval", "--rmse", str(traj), "--gt", str(gt)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rmse"] < 3.0

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

    def test_json_log_traces(self, synth_file, tmp_path, capsys):
        out = tmp_path / "out.evj"
        assert run("denoise", "-i", str(synth_file), "-o", str(out),
                   "--log", "json", "--iters", "5") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 5
        assert {"window", "iter", "f_ea", "f_ed", "total"} <= set(lines[0])


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

    def test_hard_map_render(self, synth_file, tmp_path):
        out = tmp_path / "hard.pgm"
        assert run("render", "-i", str(synth_file), "-o", str(out), "--hard") == 0


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
