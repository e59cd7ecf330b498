"""In-memory spans recorded around calls into the solver's layers.

A span is (name, operation id, parent span id, start, end).  The spans of
one timed operation share its operation id; the parent link lets the
report charge each layer only its self time, i.e. its duration minus the
part covered by its child spans.  Nothing is written while the loop runs;
``to_json`` hands the whole record over once the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        record = [name, op, parent, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "op": op, "parent": parent, "start": start, "end": end}
            for n, op, parent, start, end in self.spans
        ]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name over a list of ``to_json`` records."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        totals[s["name"]] += s["end"] - s["start"] - child_time[i]
    return dict(totals)
