import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evjoint.events import (
    MAX_PIXELS,
    Events,
    EventWindow,
    FixedCount,
    FixedDuration,
    FormatError,
    SensorGeometry,
    read_events,
    window_stream,
    write_events,
)


def _random_events(rng, n, labels=False):
    ev = Events(
        rng.uniform(0, 64, n),
        rng.uniform(0, 48, n),
        np.sort(rng.uniform(0, 1.0, n)),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
    )
    if labels:
        return ev, rng.random(n) < 0.7
    return ev


class TestTypes:
    def test_polarity_invariant(self):
        with pytest.raises(ValueError, match="polarity"):
            Events([1.0], [1.0], [0.1], [2])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="timestamps"):
            Events([1.0], [1.0], [-0.1], [1])

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(ValueError):
            Events([np.nan], [1.0], [0.1], [1])

    def test_geometry_invariant(self):
        with pytest.raises(ValueError):
            SensorGeometry(0, 4)

    def test_geometry_pixel_bound(self):
        assert SensorGeometry(4096, 4096).npixels == MAX_PIXELS
        assert SensorGeometry(MAX_PIXELS, 1).npixels == MAX_PIXELS
        for w, h in [(4097, 4096), (100000, 100000), (2**32 - 1, 2**32 - 1)]:
            with pytest.raises(ValueError, match="exceeds"):
                SensorGeometry(w, h)

    def test_event_record_access(self):
        ev = Events([3.5, 4.0, 5.0], [2.0, 1.0, 0.0], [0.01, 0.02, 0.03], [1, -1, 1])
        assert ev[1:2] == Events([4.0], [1.0], [0.02], [-1])
        assert ev[np.array([True, False, True])] == Events([3.5, 5.0], [2.0, 0.0], [0.01, 0.03],
                                                           [1, 1])
        assert ev[::-1] != ev

    def test_scalar_index_and_iteration_rejected(self):
        # a scalar index used to return a one-event stream, and iteration
        # fell back to it, yielding N one-event streams
        ev = Events([3.5, 4.0, 5.0], [2.0, 1.0, 0.0], [0.01, 0.02, 0.03], [1, -1, 1])
        for idx in (1, -1, np.int64(0)):
            with pytest.raises(TypeError):
                ev[idx]
        with pytest.raises(TypeError):
            ev.take(2)
        with pytest.raises(TypeError):
            [len(e) for e in ev]
        assert len(ev[np.array([0, 2])]) == 2 and len(ev.take([1])) == 1

    def test_window_rejects_out_of_range_events(self):
        ev = Events([1.0], [1.0], [0.5], [1])
        with pytest.raises(ValueError):
            EventWindow(ev, SensorGeometry(4, 4), 0.0, 0.4, 0.2)

    def test_window_rejects_bad_tref(self):
        with pytest.raises(ValueError):
            EventWindow(Events.empty(), SensorGeometry(4, 4), 0.0, 1.0, 2.0)


class TestValueRules:
    """Events and the CSV reader check values against one rule table, with
    one wording; an empty stream breaks none."""

    @pytest.mark.parametrize("x,t,p,reason", [
        (1.0, 0.1, 3, "polarity must be -1 or 1, got 3"),
        (1.0, -0.5, 1, "timestamps must be finite and non-negative, got -0.5"),
        (np.inf, 0.1, 1, "non-finite coordinates"),
    ])
    def test_events_and_csv_share_the_wording(self, tmp_path, x, t, p, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            Events([x], [1.0], [t], [p])
        path = tmp_path / "bad.csv"
        path.write_text(f"{x!r},1.0,{t!r},{p}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 1: {reason}")):
            read_events(path)

    def test_empty_stream_validates(self):
        assert len(Events([], [], [], [])) == 0


class TestCsv:
    def test_single_line_mapping(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("3.5,2.0,0.010,1\n")
        loaded = read_events(p)
        assert loaded.events[:1] == Events([3.5], [2.0], [0.010], [1])
        assert loaded.labels is None
        assert loaded.geometry is None

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert len(read_events(p).events) == 0

    def test_bad_polarity_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,1,0.1,1\n3.5,2.0,0.010,2\n")
        with pytest.raises(FormatError, match="line 2"):
            read_events(p)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,y,t,p\n1.0,2.0,0.5,-1\n")
        loaded = read_events(p)
        assert len(loaded.events) == 1
        assert loaded.events.p[0] == -1

    def test_label_column(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("1,1,0.1,1,1\n2,2,0.2,-1,0\n")
        loaded = read_events(p)
        assert loaded.labels.tolist() == [True, False]

    def test_inconsistent_columns(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("1,1,0.1,1\n2,2,0.2,-1,0\n")
        with pytest.raises(FormatError, match="line 2"):
            read_events(p)

    @pytest.mark.parametrize("text,message", [
        ("1,1,0.1,1\n\n  \n1,1,0.2,5\n", "line 4: polarity must be -1 or 1, got 5"),
        ("1,1,0.1,1\n1,abc,0.2,1\n",
         "line 2: unparseable field (could not convert string to float: 'abc')"),
        ("1,1,0.1,1\ninf,1,0.2,1\n", "line 2: non-finite coordinates"),
        ("1,1,-0.5,1\n", "line 1: timestamps must be finite and non-negative, got -0.5"),
        ("1,1,nan,1\n", "line 1: timestamps must be finite and non-negative, got nan"),
        ("1,1,0.1,1,2\n", "line 1: label must be 0 or 1, got 2"),
        ("1,1,0.1\n", "line 1: expected 4 or 5 fields, got 3"),
        ("x,y,t,p\n\n1,1,0.1,1,0,7\n", "line 3: expected 4 or 5 fields, got 6"),
        ("1,1,0.1,1\n\n1,1,0.2,1,0\n", "line 3: inconsistent field count"),
        ("1,1,0.1,1\n# comment\n1,1,0.2,1\n",
         "line 2: unparseable field (could not convert string to float: '# comment')"),
        # the first bad line wins, whichever rule it breaks
        ("1,1,0.1,3\n1,x,0.2,1\n", "line 1: polarity must be -1 or 1, got 3"),
        ("1,x,0.1,1\n1,1,0.2,3\n",
         "line 1: unparseable field (could not convert string to float: 'x')"),
    ])
    def test_error_names_physical_line(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            read_events(p)

    def test_header_lines_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,y,t,p,label\n\n# units px,px,s\n \t\n1.5,2,0.25,-1,1\n\n3,4,0.5,1,0\n")
        loaded = read_events(p)
        assert loaded.events.x.tolist() == [1.5, 3.0]
        assert loaded.labels.tolist() == [True, False]

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,y,t,p,label\n")
        loaded = read_events(p)
        assert len(loaded.events) == 0
        assert loaded.labels is None

    @pytest.mark.parametrize("labeled", [False, True])
    def test_writer_bytes_match_per_event_formatting(self, tmp_path, labeled):
        # shortest-roundtrip repr for the coordinates and times, ints for the rest
        ev, labels = _random_events(np.random.default_rng(4), 300, labels=True)
        ev.x[:3] = [0.0, 1e-300, 63.0]
        labels = labels if labeled else None
        rows = [f"{float(ev.x[i])!r},{float(ev.y[i])!r},{float(ev.t[i])!r},{int(ev.p[i])}"
                + (f",{int(labels[i])}" if labeled else "") + "\n" for i in range(len(ev))]
        header = "x,y,t,p,label\n" if labeled else "x,y,t,p\n"
        p = tmp_path / "w.csv"
        write_events(ev, p, labels=labels)
        assert p.read_bytes() == (header + "".join(rows)).encode("utf-8")

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ev, labels = _random_events(rng, 500, labels=True)
        p = tmp_path / "rt.csv"
        write_events(ev, p, labels=labels)
        loaded = read_events(p)
        assert loaded.events == ev
        assert np.array_equal(loaded.labels, labels)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TIME = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_FINITE, _FINITE, _TIME, st.sampled_from([-1, 1]),
                               st.booleans()), min_size=1, max_size=40),
       labeled=st.booleans())
def test_csv_roundtrip_bit_exact(tmp_path_factory, rows, labeled):
    x, y, t, p, lab = (np.array(c) for c in zip(*rows))
    ev = Events(x, y, np.sort(t), p)
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    write_events(ev, path, labels=lab if labeled else None)
    loaded = read_events(path)
    for col in ("x", "y", "t"):
        assert getattr(loaded.events, col).view(np.uint64).tolist() == \
            getattr(ev, col).view(np.uint64).tolist()
    assert np.array_equal(loaded.events.p, ev.p)
    if labeled:
        assert np.array_equal(loaded.labels, lab)
    else:
        assert loaded.labels is None


class TestBinary:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_bit_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ev, labels = _random_events(rng, 1000, labels=True)
        p = tmp_path / "rt.evj"
        write_events(ev, p, labels=labels, geometry=SensorGeometry(64, 48))
        loaded = read_events(p)
        assert loaded.events == ev
        assert np.array_equal(loaded.labels, labels)
        assert loaded.geometry == SensorGeometry(64, 48)

    def test_unlabeled_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        ev = _random_events(rng, 100)
        p = tmp_path / "rt.evj"
        write_events(ev, p, geometry=SensorGeometry(64, 48))
        assert read_events(p).labels is None

    def test_requires_geometry(self, tmp_path):
        with pytest.raises(ValueError, match="geometry"):
            write_events(Events.empty(), tmp_path / "x.evj")

    @pytest.mark.parametrize("name", ["x.evj", "x.csv"])
    def test_short_labels_rejected(self, tmp_path, name):
        ev = _random_events(np.random.default_rng(4), 3)
        with pytest.raises(ValueError, match="labels must parallel the event list"):
            write_events(ev, tmp_path / name, labels=[True, False], geometry=SensorGeometry(64, 48))
        assert not (tmp_path / name).exists()

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(3)
        ev = _random_events(rng, 50)
        p = tmp_path / "t.evj"
        write_events(ev, p, geometry=SensorGeometry(64, 48))
        data = p.read_bytes()
        p.write_bytes(data[:-13])
        with pytest.raises(FormatError):
            read_events(p)
        # a partial record after the promised ones is no more valid
        p.write_bytes(data + b"junk!")
        with pytest.raises(FormatError, match="50 events of 26 bytes, the body holds 1305 bytes"):
            read_events(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.evj"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_events(p)

    def test_unwritable_path(self, tmp_path):
        ev = Events.empty()
        with pytest.raises(OSError):
            write_events(ev, tmp_path / "nodir" / "x.evj", geometry=SensorGeometry(4, 4))

    @pytest.mark.parametrize("byte,message", [(2, "label bytes must be 0, 1, or 255"),
                                              (255, "mixed labeled and unlabeled records")])
    def test_bad_label_byte(self, tmp_path, byte, message):
        p = tmp_path / "l.evj"
        ev = _random_events(np.random.default_rng(5), 3)
        write_events(ev, p, labels=[True, False, True], geometry=SensorGeometry(64, 48))
        data = bytearray(p.read_bytes())
        data[20 + 26 + 25] = byte  # the second record's label byte
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=message):
            read_events(p)

    def test_any_other_suffix_is_binary(self, tmp_path):
        rng = np.random.default_rng(9)
        ev, labels = _random_events(rng, 40, labels=True)
        p = tmp_path / "stream.dat"
        write_events(ev, p, labels=labels, geometry=SensorGeometry(64, 48))
        assert p.read_bytes()[:4] == b"EVJ1"
        loaded = read_events(p)
        assert loaded.events == ev
        assert np.array_equal(loaded.labels, labels)
        assert loaded.geometry == SensorGeometry(64, 48)

    def test_csv_under_another_suffix_is_read_as_binary(self, tmp_path):
        p = tmp_path / "stream.dat"
        p.write_text("x,y,t,p\n1,1,0.1,1\n2,2,0.2,-1\n")
        with pytest.raises(FormatError, match=r"bad magic.*CSV input needs a \.csv or \.txt name"):
            read_events(p)


class TestSorting:
    def test_unsorted_rejected(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("1,1,0.5,1\n1,1,0.1,1\n")
        with pytest.raises(FormatError, match="non-decreasing"):
            read_events(p)

    def test_sort_option(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("1,1,0.5,1,1\n2,2,0.1,-1,0\n")
        loaded = read_events(p, sort=True)
        assert loaded.events.t.tolist() == [0.1, 0.5]
        assert loaded.labels.tolist() == [False, True]


class TestWindowing:
    def test_fixed_duration_midpoint_refs(self):
        t = np.linspace(0.0, 0.99, 10)
        ev = Events(np.ones(10), np.ones(10), t, np.ones(10, dtype=np.int8))
        wins = window_stream(ev, SensorGeometry(4, 4), FixedDuration(0.5))
        assert len(wins) == 2
        assert wins[0].t_ref == pytest.approx(0.25)
        assert wins[1].t_ref == pytest.approx(0.75)

    # a count past the stream's length is one window, past int64 too
    @pytest.mark.parametrize("count,sizes", [(4, [4, 4, 2]), (11, [10]), (2**63 - 1, [10]),
                                             (2**63, [10])])
    def test_fixed_count_sizes(self, count, sizes):
        t = np.linspace(0, 1, 10)
        ev = Events(np.ones(10), np.ones(10), t, np.ones(10, dtype=np.int8))
        wins = window_stream(ev, SensorGeometry(4, 4), FixedCount(count))
        assert [len(w) for w in wins] == sizes

    def test_empty_stream(self):
        assert window_stream(Events.empty(), SensorGeometry(4, 4), FixedDuration(0.1)) == []

    @pytest.mark.parametrize("policy", [FixedDuration(0.13), FixedCount(37), FixedDuration(0.25)])
    def test_partition_properties(self, policy):
        rng = np.random.default_rng(7)
        # the second stream puts an event where floor((t - t0) / 0.25) = 3
        # while t0 + 3 * 0.25 rounds above t
        streams = [_random_events(rng, 800),
                   Events(np.ones(2), np.ones(2), np.array([0.064, 0.814]), np.ones(2, np.int8))]
        for ev in streams:
            wins = window_stream(ev, SensorGeometry(64, 48), policy)
            assert sum(len(w) for w in wins) == len(ev)
            merged = Events.concatenate([w.events for w in wins])
            assert merged == ev  # global ordering preserved, each event exactly once
            for w in wins:
                assert np.shares_memory(w.events.t, ev.t)
                assert w.t_start <= w.t_ref <= w.t_end
                assert np.all(w.times >= w.t_start) and np.all(w.times <= w.t_end)

    def test_stream_sort_checked_once(self, monkeypatch):
        # the windows are slices of the checked stream; a public EventWindow still checks
        calls = []
        real = Events.is_time_sorted
        monkeypatch.setattr(Events, "is_time_sorted", lambda ev: calls.append(len(ev)) or real(ev))
        ev = _random_events(np.random.default_rng(3), 500)
        wins = window_stream(ev, SensorGeometry(64, 48), FixedCount(50))
        assert len(wins) == 10 and calls == [500]
        backwards = Events(np.ones(2), np.ones(2), np.array([0.2, 0.1]), np.ones(2, np.int8))
        with pytest.raises(ValueError, match="sorted"):
            EventWindow(backwards, SensorGeometry(4, 4), 0.0, 0.3, 0.15)
        with pytest.raises(ValueError, match="events must be sorted by time before windowing"):
            window_stream(backwards, SensorGeometry(4, 4), FixedCount(50))

    def test_window_index_overflow_rejected(self):
        ev = Events(np.ones(3), np.ones(3), np.array([0.064, 0.814, 0.9]), np.ones(3, np.int8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="window duration"):
                window_stream(ev, SensorGeometry(8, 8), FixedDuration(1e-303))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FixedDuration(0.0)
        with pytest.raises(ValueError, match="window duration"):
            FixedDuration(math.inf)
        with pytest.raises(ValueError):
            FixedCount(0)
