"""In-memory spans around the benchmark's calls into the library.

A span holds its name, start, end, parent span and the market it belongs
to; spans opened inside a market span inherit the market's id.  Spans are
kept in memory and written out as JSONL when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ids = itertools.count()

    def span(self, name: str, market: str | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, market)

    @contextlib.contextmanager
    def _record(self, name: str, market: str | None):
        parent = self._open[-1] if self._open else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "market": market if market is not None else (parent["market"] if parent else None),
        }
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(span)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def totals(self, root: str) -> dict[str, float]:
        """Total duration per span name, over spans below roots named `root`."""
        by_id = {s["id"]: s for s in self.spans}
        out: dict[str, float] = {}
        for s in self.spans:
            top = s
            while top["parent"] is not None:
                top = by_id[top["parent"]]
            if top["name"] == root and s is not top:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds); self time is the
        span's duration minus the time its (sequential) children cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, tuple[int, float, float]] = {}
        for s in self.spans:
            n, total, own = out.get(s["name"], (0, 0.0, 0.0))
            dur = s["end"] - s["start"]
            out[s["name"]] = (n + 1, total + dur, own + dur - child.get(s["id"], 0.0))
        return out
