"""Pure helpers of the benchmark: spans, self times, percentiles, output checks.

Nothing here imports ``refgame``; the unit tests in ``test_harness.py``
exercise this module on its own.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory spans and counters of one traced pass.

    A span records its name, start, end and the index of the span that
    was open when it started. Notes are the values counted at the same
    call boundaries as the spans, kept per call under a metric name.
    """

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    notes: dict[str, list] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=self._open[-1] if self._open else None))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's durations."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; +inf samples sort last.

    Nearest rank never interpolates, so a percentile that falls on a
    failed (+inf) sample is +inf rather than NaN.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def beyond(samples, value: float) -> int:
    """Number of samples strictly above ``value``."""
    return sum(1 for x in samples if x > value)


def median(samples) -> float:
    return float(statistics.median(samples))


def check_trajectory_csv(path: str | Path, header: str, rows: int) -> list[str]:
    """Problems with a trajectory CSV: header, row count, field count, periods.

    Every data row must hold as many comma-separated fields as the
    header, all of them parsable numbers, with the period column
    counting 0, 1, 2, ... An empty list means the file passed.
    """
    problems = []
    width = header.count(",") + 1
    with open(path, encoding="ascii", newline="") as f:
        first = f.readline()
        if first != header + "\n":
            problems.append(f"header {first.rstrip()!r} != {header!r}")
        n = 0
        for n, line in enumerate(f, start=1):
            if not line.endswith("\n"):
                problems.append(f"row {n} lacks its LF terminator")
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                problems.append(f"row {n} has {len(fields)} fields, expected {width}")
                break
            if fields[0] != str(n - 1):
                problems.append(f"row {n} has period {fields[0]!r}, expected {n - 1}")
                break
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError:
                problems.append(f"row {n} holds a field that is not a number")
                break
            if not all(map(math.isfinite, values)):
                problems.append(f"row {n} holds a non-finite value")
                break
    if n != rows:
        problems.append(f"{n} data rows, expected {rows}")
    return problems

