"""In-memory spans for the traced run.

A span is recorded around one call into a jetcal module: its name, start
and end on the monotonic clock, the span that encloses it, the workload
and run it belongs to, and the counts measured at the same boundary.
Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects the spans of one run."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded dict takes the boundary's counts."""
        counts: dict = {}
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run_id": self.run_id,
            "counts": counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield counts
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> dict[int, int]:
        """Each span's duration minus the time its direct children cover."""
        own = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed seconds, and summed counts."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0})
        for s in self.spans:
            agg = out[s["name"]]
            agg["calls"] += 1
            agg["s"] += (s["end_ns"] - s["start_ns"]) / 1e9
            for key, value in s["counts"].items():
                agg[key] = agg.get(key, 0) + value
        return dict(out)

    def children_s(self, name: str) -> float:
        """Seconds covered by the direct children of every span called `name`."""
        roots = {s["id"] for s in self.spans if s["name"] == name}
        return sum((s["end_ns"] - s["start_ns"]) / 1e9
                   for s in self.spans if s["parent"] in roots)

    def write(self, path, extra: dict) -> None:
        own = self.self_ns()
        spans = [dict(s, self_ns=own[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=spans, totals=self.totals()), fh, indent=1)
