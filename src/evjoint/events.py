"""Event records, stream reading/writing, and time windowing."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from itertools import dropwhile, filterfalse
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

BINARY_MAGIC = b"EVJ1"
UNLABELED = 255

# fixed-width little-endian record used by the .evj binary format
_EVENT_DTYPE = np.dtype(
    [("x", "<f8"), ("y", "<f8"), ("t", "<f8"), ("p", "<i1"), ("label", "<u1")]
)


class FormatError(ValueError):
    """Malformed event file or record."""


class Event(NamedTuple):
    """One sensor event: pixel location, time in seconds, polarity in {-1, +1}."""

    x: float
    y: float
    t: float
    p: int


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel grid of the sensor (width x height)."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def npixels(self) -> int:
        return self.width * self.height


class Events:
    """Column-oriented event stream: parallel x, y, t, p arrays.

    Coordinates are real-valued so the same container carries raw and
    warped events. Iterating yields ``Event`` records in stream order.
    """

    __slots__ = ("x", "y", "t", "p")

    def __init__(self, x, y, t, p, validate: bool = True):
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        self.p = np.ascontiguousarray(p, dtype=np.int8)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.x.shape[0]
        if not (self.y.shape[0] == self.t.shape[0] == self.p.shape[0] == n):
            raise ValueError("event columns have mismatched lengths")
        if n == 0:
            return
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("event coordinates must be finite")
        if not np.all(np.isfinite(self.t)) or np.any(self.t < 0.0):
            raise ValueError("timestamps must be finite and non-negative")
        if not np.all((self.p == 1) | (self.p == -1)):
            raise ValueError("polarity must be -1 or +1")

    @classmethod
    def empty(cls) -> "Events":
        return cls([], [], [], [], validate=False)

    @classmethod
    def concatenate(cls, streams) -> "Events":
        streams = list(streams)
        if not streams:
            return cls.empty()
        return cls(
            np.concatenate([s.x for s in streams]),
            np.concatenate([s.y for s in streams]),
            np.concatenate([s.t for s in streams]),
            np.concatenate([s.p for s in streams]),
            validate=False,
        )

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return Event(float(self.x[idx]), float(self.y[idx]), float(self.t[idx]), int(self.p[idx]))
        return Events(self.x[idx], self.y[idx], self.t[idx], self.p[idx], validate=False)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.p, other.p)
        )

    def take(self, mask_or_index) -> "Events":
        return self[np.asarray(mask_or_index)]

    @property
    def positions(self) -> np.ndarray:
        """(N, 2) array of x, y coordinates."""
        return np.stack([self.x, self.y], axis=1)

    def is_time_sorted(self) -> bool:
        return len(self) < 2 or bool(np.all(np.diff(self.t) >= 0.0))

    def sorted_by_time(self):
        """Stable time sort. Returns (events, permutation)."""
        order = np.argsort(self.t, kind="stable")
        return self.take(order), order


@dataclass(frozen=True)
class EventWindow:
    """Time-bounded slice of a stream plus sensor geometry and reference time."""

    events: Events
    geometry: SensorGeometry
    t_start: float
    t_end: float
    t_ref: float
    # Values derived from the events alone, memoized by the code that computes
    # them (the denoising baseline, for one). Windows are immutable, so an
    # entry never goes stale.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.t_start <= self.t_ref <= self.t_end):
            raise ValueError("t_ref must lie within [t_start, t_end]")
        if len(self.events) > 0:
            if not self.events.is_time_sorted():
                raise ValueError("window events must be sorted by time")
            if self.events.t[0] < self.t_start or self.events.t[-1] > self.t_end:
                raise ValueError("window events fall outside [t_start, t_end]")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def positions(self) -> np.ndarray:
        return self.events.positions

    @property
    def times(self) -> np.ndarray:
        return self.events.t


class LoadedStream(NamedTuple):
    events: Events
    labels: np.ndarray | None
    geometry: SensorGeometry | None


def detect_format(path) -> str:
    """Pick 'csv' or 'binary' from the extension, falling back to magic bytes."""
    p = Path(path)
    ext = p.suffix.lower()
    if ext in (".csv", ".txt"):
        return "csv"
    if ext in (".evj", ".bin"):
        return "binary"
    try:
        with open(p, "rb") as f:
            head = f.read(4)
    except OSError:
        return "csv"
    return "binary" if head == BINARY_MAGIC else "csv"


def _is_header(line: str) -> bool:
    # lines before the first data line whose first field is not a number
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return True
    return False


def _value_fault(rows: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first parsed CSV row whose values break a rule."""
    x, y, t, p = rows[:, :4].T
    lab = rows[:, 4] if rows.shape[1] == 5 else np.zeros(len(rows))
    rules = [
        ((p != 1) & (p != -1), lambda i: f"polarity must be -1 or 1, got {p[i]:g}"),
        (~(np.isfinite(t) & (t >= 0.0)), lambda i: f"bad timestamp {float(t[i])!r}"),
        (~(np.isfinite(x) & np.isfinite(y)), lambda i: "non-finite coordinates"),
        ((lab != 0) & (lab != 1), lambda i: f"label must be 0 or 1, got {lab[i]:g}"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    i = int(np.argmax(bad))
    return (i, next(reason(i) for mask, reason in rules if mask[i])) if bad.any() else None


def _csv_fault(path, fault: str = "malformed row") -> FormatError:
    """The error for the first line of a CSV stream that breaks a rule, by its
    physical number. Runs only after the array parse or its checks failed."""
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8") as f:
        numbered = ((n, line) for n, line in enumerate(f, start=1) if not line.isspace())
        for lineno, line in dropwhile(lambda item: _is_header(item[1]), numbered):
            try:
                vals = [float(s.strip()) for s in line.split(",")]
            except ValueError as exc:
                fault = f"line {lineno}: unparseable field ({exc})"
                break
            if len(vals) not in (4, 5):
                fault = f"line {lineno}: expected 4 or 5 fields, got {len(vals)}"
                break
            if rows and len(vals) != len(rows[0]):
                fault = f"line {lineno}: inconsistent field count"
                break
            rows.append(vals)
            linenos.append(lineno)
    bad = _value_fault(np.array(rows)) if rows else None
    return FormatError(f"{path}: line {linenos[bad[0]]}: {bad[1]}" if bad else f"{path}: {fault}")


def _parse_csv(path) -> LoadedStream:
    with open(path, "r", encoding="utf-8") as f:
        body = dropwhile(_is_header, filterfalse(str.isspace, f))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise _csv_fault(path, f"unparseable field ({exc})") from None
    if rows.shape[0] == 0:
        return LoadedStream(Events.empty(), None, None)
    if rows.shape[1] not in (4, 5) or _value_fault(rows):
        raise _csv_fault(path)
    events = Events(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], validate=False)
    labels = rows[:, 4].astype(bool) if rows.shape[1] == 5 else None
    return LoadedStream(events, labels, None)


def _parse_binary(path) -> LoadedStream:
    with open(path, "rb") as f:
        header = f.read(20)
        if len(header) < 20 or header[:4] != BINARY_MAGIC:
            raise FormatError(f"{path}: not an event binary (bad magic/header)")
        width, height, count = struct.unpack("<IIQ", header[4:])
        records = np.fromfile(f, dtype=_EVENT_DTYPE)
    if records.shape[0] != count:
        raise FormatError(
            f"{path}: header promises {count} events, file holds {records.shape[0]}"
        )
    try:
        geometry = SensorGeometry(int(width), int(height))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    try:
        events = Events(records["x"], records["y"], records["t"], records["p"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    raw_labels = records["label"]
    if np.all(raw_labels == UNLABELED):
        labels = None
    else:
        if np.any((raw_labels > 1) & (raw_labels != UNLABELED)):
            raise FormatError(f"{path}: label bytes must be 0, 1, or {UNLABELED}")
        if np.any(raw_labels == UNLABELED):
            raise FormatError(f"{path}: mixed labeled and unlabeled records")
        labels = raw_labels.astype(bool)
    return LoadedStream(events, labels, geometry)


def read_events(path, fmt: str | None = None, sort: bool = False) -> LoadedStream:
    """Read an event stream from a CSV or binary file.

    Timestamps must be non-decreasing; pass ``sort=True`` to stable-sort
    instead of rejecting. Labels and geometry are returned when the file
    carries them (binary always has geometry, CSV never does).
    """
    fmt = fmt or detect_format(path)
    if fmt == "csv":
        loaded = _parse_csv(path)
    elif fmt == "binary":
        loaded = _parse_binary(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    events, labels, geometry = loaded
    if not events.is_time_sorted():
        if not sort:
            raise FormatError(f"{path}: timestamps are not non-decreasing (use sort=True)")
        events, order = events.sorted_by_time()
        if labels is not None:
            labels = labels[order]
    return LoadedStream(events, labels, geometry)


def write_events(
    events: Events,
    path,
    labels: np.ndarray | None = None,
    geometry: SensorGeometry | None = None,
    fmt: str | None = None,
) -> None:
    """Write an event stream to CSV or binary.

    Binary round-trips are bit exact and require ``geometry``; CSV uses
    shortest-roundtrip decimal text, so it round-trips exactly as well.
    """
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape[0] != len(events):
            raise ValueError("labels must parallel the event list")
    if fmt is None:
        ext = Path(path).suffix.lower()
        fmt = "csv" if ext in (".csv", ".txt") else "binary"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as f:
            f.write("x,y,t,p,label\n" if labels is not None else "x,y,t,p\n")
            for i in range(len(events)):
                row = (
                    f"{float(events.x[i])!r},{float(events.y[i])!r},"
                    f"{float(events.t[i])!r},{int(events.p[i])}"
                )
                if labels is not None:
                    row += f",{int(labels[i])}"
                f.write(row + "\n")
    elif fmt == "binary":
        if geometry is None:
            raise ValueError("binary format requires sensor geometry")
        records = np.empty(len(events), dtype=_EVENT_DTYPE)
        records["x"] = events.x
        records["y"] = events.y
        records["t"] = events.t
        records["p"] = events.p
        records["label"] = labels.astype(np.uint8) if labels is not None else UNLABELED
        with open(path, "wb") as f:
            f.write(BINARY_MAGIC)
            f.write(struct.pack("<IIQ", geometry.width, geometry.height, len(events)))
            records.tofile(f)
    else:
        raise ValueError(f"unknown format {fmt!r}")


@dataclass(frozen=True)
class FixedDuration:
    """Split a stream into consecutive windows of equal duration (seconds)."""

    seconds: float

    def __post_init__(self) -> None:
        if not (0 < self.seconds < np.inf):
            raise ValueError(f"window duration must be positive and finite, got {self.seconds} s")


@dataclass(frozen=True)
class FixedCount:
    """Split a stream into consecutive windows of N events each."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("window count must be at least 1")


def window_stream(events: Events, geometry: SensorGeometry, policy) -> list[EventWindow]:
    """Partition a time-sorted stream into non-overlapping windows.

    Every event lands in exactly one window; the final partial window is
    retained and empty stretches produce no windows. Each window's
    reference time is its midpoint.
    """
    if not events.is_time_sorted():
        raise ValueError("events must be sorted by time before windowing")
    if len(events) == 0:
        return []
    if isinstance(policy, FixedDuration):
        t0 = float(events.t[0])
        idx = np.floor((events.t - t0) / policy.seconds).astype(np.int64)
        starts = np.flatnonzero(np.diff(idx, prepend=-1))  # idx is non-decreasing
    elif isinstance(policy, FixedCount):
        starts = np.arange(0, len(events), policy.count)
    else:
        raise TypeError(f"unknown windowing policy {policy!r}")
    bounds = np.append(starts, len(events))
    windows: list[EventWindow] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = events[lo:hi]  # views of the stream's arrays
        t_start, t_end = float(chunk.t[0]), float(chunk.t[-1])
        if isinstance(policy, FixedDuration):
            # floor((t - t0) / s) and t0 + k s round independently, so an
            # event on a boundary can fall an ulp outside its window's bounds;
            # widen them to hold it
            edge = t0 + idx[lo] * policy.seconds
            t_start = min(edge, t_start)
            t_end = max(edge + policy.seconds, t_end)
        windows.append(EventWindow(chunk, geometry, t_start, t_end, 0.5 * (t_start + t_end)))
    return windows
