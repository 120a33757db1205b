"""Spans around the benchmark's calls into each layer of the library.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory (up to ``keep`` of them) and written out when the run
ends; per-name call counts, self times and counters are summed as spans
close, so they cover the whole run even when the span list is capped.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans = []       # [name, start, end, parent index, op id]
        self.dropped = 0
        self.open = []        # [span index, start, child time]
        self.op = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        parent = self.open[-1][0] if self.open else -1
        start = perf_counter()
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op])
        else:
            index = -1
            self.dropped += 1
        self.open.append([index, start, 0.0])
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            index, start, child = self.open.pop()
            if index >= 0:
                self.spans[index][2] = end
            self.calls[name] += 1
            self.self_s[name] += end - start - child
            if self.open:
                self.open[-1][2] += end - start

    def count(self, name: str, amount: int):
        self.counts[name] += amount

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
