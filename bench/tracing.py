"""Spans around the benchmark's calls into ``vcsys``, and the statistics
the report is made of.

A traced job opens a job span; every public call the job makes through
:meth:`Recorder.call` becomes a child span named ``<module>.<function>``
(``sim.run``, ``cli.simulate``) with ``perf_counter_ns`` start and end
and the job id as its trace id. Counts (nodes, edges, ticks, records,
bytes, source lines) are attached to the same span. Untraced jobs go
through the same ``call`` and pay one extra Python call, nothing more.
Measurement-only calls run outside any job under the trace id ``probe``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns

PROBE = "probe"


@dataclass
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Keeps every span of a run in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._job: Span | None = None
        self._last: Span | None = None

    def _open(self, name: str, trace: str, parent: int | None) -> Span:
        span = Span(len(self.spans), name, trace, parent, perf_counter_ns())
        self.spans.append(span)
        self._last = span
        return span

    def start_job(self, trace: str) -> None:
        self._job = self._open("bench.job", trace, None)

    def end_job(self) -> None:
        self._job.end_ns = perf_counter_ns()
        self._job = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; inside a traced job, record the call as a span."""
        job = self._job
        if job is None:
            self._last = None
            return fn(*args, **kwargs)
        span = self._open(name, job.trace, job.id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = perf_counter_ns()

    def probe(self, name: str, fn, *args, **kwargs):
        """A measurement-only call outside every job span."""
        span = self._open(name, PROBE, None)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = perf_counter_ns()

    def count(self, **counts: float) -> None:
        """Attach counts to the span of the latest call, if it was recorded."""
        if self._last is not None:
            self._last.counts.update(counts)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
            start, end = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end_ns - span.start_ns - covered) / 1e9
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
