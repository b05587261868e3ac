"""Span tracing for the traced benchmark run.

For the traced run only, :class:`Tracer` rebinds the public names that the
package's modules import from each other (``gaussgenus.cli``,
``gaussgenus.search``, ``gaussgenus.moves`` and ``gaussgenus.cycles``) to
wrappers that record one span per call.  A span is ``(name, start, end,
parent, code_id)``: ``parent`` is the index of the enclosing span (-1 for a
root) and ``code_id`` names the corpus entry being processed.  Spans stay in
memory until :meth:`Tracer.write` dumps them.

``codes.canonical_rotation`` is rebound only where ``moves`` imports it, so
its calls are those made by ``rii_reduce``; the calls made inside
``canonical_form`` count towards ``canonical_form``'s self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (consumer module, bound name, span name).  The span is named after the
# module that defines the function, whichever namespace the call goes through.
BINDINGS = (
    ("gaussgenus.cli", "parse_gauss", "codes.parse_gauss"),
    ("gaussgenus.cli", "cycles", "cycles.cycles"),
    ("gaussgenus.cli", "genus", "cycles.genus"),
    ("gaussgenus.cli", "_run_search", "search.search"),
    ("gaussgenus.search", "canonical_form", "codes.canonical_form"),
    ("gaussgenus.search", "genus", "cycles.genus"),
    ("gaussgenus.search", "enumerate_bridges", "moves.enumerate_bridges"),
    ("gaussgenus.search", "strictly_decreases", "moves.strictly_decreases"),
    ("gaussgenus.search", "bridge_replace", "moves.bridge_replace"),
    ("gaussgenus.search", "rii_reduce", "moves.rii_reduce"),
    ("gaussgenus.moves", "canonical_rotation", "codes.canonical_rotation"),
    ("gaussgenus.moves", "cycles", "cycles.cycles"),
    ("gaussgenus.moves", "genus", "cycles.genus"),
    ("gaussgenus.moves", "remove_chords", "cycles.remove_chords"),
    ("gaussgenus.moves", "enumerate_bridges", "moves.enumerate_bridges"),
    ("gaussgenus.moves", "strictly_decreases", "moves.strictly_decreases"),
    ("gaussgenus.moves", "bridge_replace", "moves.bridge_replace"),
    ("gaussgenus.moves", "rii_reduce", "moves.rii_reduce"),
    ("gaussgenus.cycles", "cycles", "cycles.cycles"),
)

# Timed layers: each reports ``<name>.calls`` and ``<name>.self_s``.
LAYERS = (
    "codes.parse_gauss",
    "codes.canonical_form",
    "codes.canonical_rotation",
    "cycles.cycles",
    "cycles.genus",
    "cycles.remove_chords",
    "moves.enumerate_bridges",
    "moves.strictly_decreases",
    "moves.bridge_replace",
    "moves.rii_reduce",
    "search.search",
)

# Work counts recorded at the same boundaries, with the ratios built on them.
COUNTS = (
    "codes.units_parsed",
    "cycles.units_walked",
    "moves.bridges_found",
    "moves.rii_pairs_cancelled",
    "search.nodes_expanded",
    "search.children",
    "search.duplicates_pruned",
    "cli.lines",
    "cli.error_lines",
)


def _count(counts: Counter, name: str, args, result) -> None:
    # Work done by one call, recorded where the call crosses the boundary.
    if name == "codes.parse_gauss":
        counts["codes.units_parsed"] += len(result)
    elif name == "cycles.cycles":
        counts["cycles.units_walked"] += len(args[0])
    elif name == "moves.enumerate_bridges":
        counts["moves.bridges_found"] += len(result)
    elif name == "moves.bridge_replace":
        counts["moves.strict_replacements"] += result.strict_decrease_predicted
    elif name == "moves.rii_reduce":
        counts["moves.rii_pairs_cancelled"] += (args[0].n - result.n) // 2
    elif name == "search.search":
        counts["search.nodes_expanded"] += result.nodes_expanded
        counts["search.duplicates_pruned"] += result.duplicates_pruned


class Tracer:
    """Records spans and counts while its bindings are installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.code_id = -1
        self._open_spans: list[tuple[int, str]] = []  # (index, name), innermost last

    def _open(self, name: str) -> tuple[int, int, str | None]:
        parent, parent_name = self._open_spans[-1] if self._open_spans else (-1, None)
        index = len(self.spans)
        self.spans.append(None)
        self._open_spans.append((index, name))
        return index, parent, parent_name

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._open_spans.pop()
        self.spans[index] = (name, start, end, parent, self.code_id)

    @contextmanager
    def span(self, name: str, code_id: int):
        """A span opened by the benchmark itself around one operation."""
        self.code_id = code_id
        index, parent, _ = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index, parent, parent_name = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if name == "moves.bridge_replace" and parent_name == "search.search":
                self.counts["search.children"] += 1
            _count(self.counts, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in :data:`BINDINGS`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, span_name in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds].

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so children never overlap one another.
    """
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for name, start, end, parent, _ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
        if parent >= 0:
            out[spans[parent][0]][1] -= end - start
    return out
