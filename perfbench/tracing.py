"""Outside-in host-time spans for the benchmark's traced runs.

The tracer wraps public call boundaries of the program from the outside —
methods of the objects the benchmark constructs and hands in, or public
class methods — and records one span per call: name, start, end and the
span that was open when the call began (its parent).  Spans stay in memory
while the workload runs and are written out once it has finished.

The open span lives in a :class:`contextvars.ContextVar`, so parents follow
calls across ``asyncio`` tasks and ``asyncio.to_thread`` worker threads (both
copy the caller's context), which is how the drain engine dispatches batches.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = ["Span", "Tracer", "covered_seconds", "tail_percentile"]


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; restores every patch on demand."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_open_span", default=0)
        self._patches: "list[tuple[object, str, object, bool]]" = []

    def open(self) -> "tuple[int, int, contextvars.Token, float]":
        """Start a span under the currently open one; returns its handle."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def close(self, handle, name: str) -> None:
        """End the span ``handle`` under ``name`` (chosen once the call is over)."""
        end = time.perf_counter()
        span_id, parent, token, start = handle
        self._current.reset(token)
        self.spans.append(Span(span_id, name, start, end, parent))

    def traced(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""

        def wrapper(*args, **kwargs):
            handle = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(handle, name)

        return wrapper

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (a class or an instance) by a traced wrapper."""
        had_own = attribute in vars(owner)
        self._patches.append((owner, attribute, vars(owner).get(attribute), had_own))
        setattr(owner, attribute, self.traced(name, getattr(owner, attribute)))

    def patch_cache(self, cache) -> None:
        """Trace ``cache.lookup``, naming each span by whether the lookup missed."""
        original = cache.lookup

        def lookup(config, seq_len):
            misses = cache.misses
            handle = self.open()
            hit = True
            try:
                entry = original(config, seq_len)
                hit = cache.misses == misses
                return entry
            finally:
                self.close(handle, "cache.lookup.hit" if hit else "cache.lookup.miss")

        self._patches.append((cache, "lookup", None, False))
        cache.lookup = lookup

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, previous, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def children(self) -> "dict[int, list[Span]]":
        tree: "dict[int, list[Span]]" = defaultdict(list)
        for span in self.spans:
            tree[span.parent].append(span)
        return tree

    def by_name(self) -> "dict[str, list[Span]]":
        groups: "dict[str, list[Span]]" = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return groups

    def self_seconds(self, span: Span, tree: "dict[int, list[Span]]") -> float:
        """``span``'s duration minus the part of it its child spans cover."""
        return span.seconds - covered_seconds(span, tree.get(span.span_id, []))

    def nesting_violations(self, tree: "dict[int, list[Span]]") -> "list[str]":
        """Parents whose direct children add up to more than the parent itself."""
        by_id = {span.span_id: span for span in self.spans}
        problems = []
        for parent_id, kids in tree.items():
            parent = by_id.get(parent_id)
            if parent is None:
                continue
            total = sum(kid.seconds for kid in kids)
            if total > parent.seconds:
                problems.append(
                    f"children of {parent.name} sum to {total:.6f} s, "
                    f"more than its own {parent.seconds:.6f} s"
                )
        return problems

    def write(self, path) -> None:
        """Dump the spans as JSON lines, times relative to the first span start."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.start):
                record = {
                    "id": span.span_id,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                }
                handle.write(json.dumps(record) + "\n")


def covered_seconds(parent: Span, kids: "list[Span]") -> float:
    """Length of the union of ``kids``' intervals, clipped to ``parent``."""
    covered = 0.0
    reach = parent.start
    for kid in sorted(kids, key=lambda span: span.start):
        start = max(kid.start, reach)
        end = min(kid.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


#: Percentiles tried for a "tail" figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int) -> float:
    """Highest tried percentile with at least ten samples beyond it."""
    for percent in TAIL_PERCENTILES:
        if count * (100.0 - percent) / 100.0 >= 10:
            return percent
    return 50.0
