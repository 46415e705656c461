"""A self-contained span recorder and the statistics helpers.

Deliberately not ``repro.obs``: the referee shares no code with what
it measures beyond the entry points it times.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    #: Index of the enclosing span in ``Recorder.spans``, -1 for a root.
    parent: int
    #: One id per replayed operation, shared by all of its spans.
    op: int


class Recorder:
    """Spans kept in memory; written out by the caller at exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = -1

    def next_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0, 0, parent, self._op))
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Per span: its duration minus the part its child spans cover.

    Children of one span never overlap here (one thread, strictly
    nested), so the covered part is the sum of child durations.
    """
    own = [span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


def self_time_by_op(spans: Sequence[Span]) -> dict[int, dict[str, float]]:
    """``{op id: {span name: summed self time in ms}}``."""
    out: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        per_op = out.setdefault(span.op, {})
        per_op[span.name] = per_op.get(span.name, 0.0) + own / 1e6
    return out


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def blocked_percentile(values: Sequence[float], p: float) -> float:
    """The median, over consecutive blocks of ``values`` (in the order
    they were taken), of each block's percentile. A burst of
    interference then spoils one block, not the figure. Blocks hold at
    least 100 samples and there is an odd number of them, at most 9 —
    so below 300 samples this is the plain percentile."""
    blocks = min(9, len(values) // 100)
    blocks -= 1 - blocks % 2  # the largest odd number not above it
    if blocks < 3:
        return percentile(values, p)
    size = len(values) // blocks
    return percentile(
        [percentile(values[i * size : (i + 1) * size], p) for i in range(blocks)], 50
    )


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
