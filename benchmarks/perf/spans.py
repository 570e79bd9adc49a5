"""Harness-side spans, self times and percentiles.

The benchmark measures every layer from outside, so it keeps its own
span log: one ``(name, start, end, parent)`` row per ``with`` block,
held in memory until the pass ends.  A layer's *self* time is its
span's duration minus the part its child spans cover, which makes the
per-layer table a partition of the measured section instead of the
nested view ``PhaseProfiler`` gives.

``Reference`` and ``Stamps`` are how a timing is taken: a measured
section is cut into segments, and between segments a fixed slice of
work is timed, which tells how fast the machine was just then.

Nothing here imports ``repro``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter, process_time


class Spans:
    """An in-memory span log with parent links."""

    def __init__(self):
        self.rows: list[list] = []   # [name, start, end, parent_index]
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        index = len(self.rows)
        parent = self._open[-1] if self._open else None
        self.rows.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.rows[index][2] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (0.0 if none)."""
        return sum(end - start for n, start, end, _ in self.rows if n == name)

    def self_times(self) -> dict[str, float]:
        """``{name: seconds}`` with every child's time taken out of its
        parent, so the values sum to the outermost spans' durations."""
        own = [end - start for _, start, end, _ in self.rows]
        for _, start, end, parent in self.rows:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.rows, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals


class Reference:
    """A fixed slice of interpreter work, timed between the segments of
    a pass: the speed of the machine, as the pass saw it.

    This host is a small shared VM whose speed moves with what its
    neighbours do, by +-20% over minutes (README, "How a value is
    made").  The slice does what the workloads do -- run bytecode,
    allocate objects, call numpy on an array that fits the cache -- so
    its time moves with theirs, and ``run.py`` divides every timing of
    a pass by the mean slice time of that pass.  Under 1 ms; taken at
    most every ``every_s``, so it costs a pass at most an eighth of
    its time and is never inside a timed segment.
    """

    def __init__(self, every_s: float = 0.008):
        import numpy

        self._every_s = every_s
        self._array = numpy.arange(8192, dtype=numpy.int64)
        self.slices: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        """Time one slice, unless the last one is more recent than
        ``every_s``."""
        started = perf_counter()
        if started - self._last < self._every_s:
            return
        total = 0
        for i in range(8000):
            total += i * i & 7
        total += len([float(i) for i in range(3000)])
        for _ in range(3):
            total += int((self._array * 3 + 1).sum())
        self._last = perf_counter()
        self.slices.append(self._last - started)

    def mean_s(self) -> float:
        return sum(self.slices) / len(self.slices)


class Stamps:
    """Wall and CPU seconds of each *segment* of a measured section (a
    round, or a run of the sweep), with a reference slice between
    segments."""

    def __init__(self, reference: Reference):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._reference = reference
        self._open()

    def _open(self) -> None:
        self._reference.sample()
        self._wall = perf_counter()
        self._cpu = process_time()

    def mark(self) -> None:
        """The current segment ends here and the next one starts."""
        wall, cpu = perf_counter(), process_time()
        self.wall.append(wall - self._wall)
        self.cpu.append(cpu - self._cpu)
        self._open()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
