"""In-memory spans for the traced run.

A span is (name, start, end, parent index).  ``Tracer.call`` wraps one of
the benchmark's calls into the program; nothing inside the program is
patched, so a span covers exactly the public call the benchmark made.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover (children
        are sequential, so their durations add)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def by_round(self, correct):
        """Self times, each passed through ``correct(seconds, start)``,
        grouped as {name: [per-round total]} and {name: [per call]}; a round
        is a top-level span named ``bench.round.*``."""
        selfs = self.self_times()
        round_of = [-1] * len(self.spans)
        totals: dict = defaultdict(lambda: defaultdict(float))
        calls: dict = defaultdict(list)
        for i, (name, start, _, parent) in enumerate(self.spans):
            if name.startswith("bench.round"):
                round_of[i] = i
                continue
            round_of[i] = round_of[parent] if parent >= 0 else -1
            seconds = correct(selfs[i], start)
            totals[name][round_of[i]] += seconds
            calls[name].append(seconds)
        return {k: list(v.values()) for k, v in totals.items()}, dict(calls)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
