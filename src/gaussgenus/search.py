"""Genus minimization by iterated bridge replacement and RII cleanup.

Nodes of the move graph are canonical forms; children apply one bridge
replacement (both kinds, maximal bridges of at least ``min_bridge_len``
passes) followed by RII reduction.  One beam search expands them depth by
depth.  Frontiers and tie-breaks order nodes by (genus, crossing count,
canonical serialization), so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import GaussCode, GaussCodeError, canonical_form
from .cycles import genus
from .moves import bridge_replace, enumerate_bridges, rii_reduce, strictly_decreases


@dataclass(frozen=True)
class SearchConfig:
    """Each depth keeps its ``beam_width`` best new nodes; None keeps all (exhaustive)."""

    max_depth: int = 5
    beam_width: int | None = None
    min_bridge_len: int = 2
    apply_rii: bool = True
    only_strict: bool = False

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.min_bridge_len < 1:
            raise ValueError("min_bridge_len must be at least 1")


@dataclass(frozen=True)
class SearchStep:
    """One edge of the move graph on the path to the best code."""

    bridge_kind: str
    bridge_labels: tuple[int, ...]
    pattern_labels: tuple[int, ...]
    rii_cancelled: int
    genus_after: int
    crossings_after: int


@dataclass(frozen=True)
class SearchResult:
    best_code: GaussCode
    best_genus: int
    move_trace: tuple[SearchStep, ...]
    nodes_expanded: int
    duplicates_pruned: int


@dataclass
class _Node:
    code: GaussCode
    genus: int
    parent: str | None
    step: SearchStep | None = None

    def order_key(self, key: str) -> tuple[int, int, str]:
        return (self.genus, self.code.n, key)


def search(code: GaussCode, config: SearchConfig | None = None) -> SearchResult:
    """Explore move sequences from ``code`` and return the best code found.

    Best means least (genus, crossing count, canonical serialization) over
    every node reached, the input included.
    """
    if config is None:
        config = SearchConfig()
    if not code.signed:
        raise GaussCodeError("search requires a fully signed code")

    root = canonical_form(code)
    root_key = root.serialize()
    nodes: dict[str, _Node] = {root_key: _Node(root, genus(root), parent=None)}
    frontier = [root_key]
    expanded = 0
    pruned = 0

    for _ in range(config.max_depth):
        fresh: list[str] = []
        for key in sorted(frontier, key=lambda k: nodes[k].order_key(k)):
            node = nodes[key]
            expanded += 1
            for bridge in enumerate_bridges(node.code, "both", config.min_bridge_len):
                if config.only_strict and not strictly_decreases(node.code, bridge):
                    continue
                outcome = bridge_replace(node.code, bridge)
                child = outcome.result
                cancelled = 0
                if config.apply_rii:
                    reduced = rii_reduce(child)
                    cancelled = (child.n - reduced.n) // 2
                    child = reduced
                child = canonical_form(child)
                child_key = child.serialize()
                if child_key in nodes:
                    pruned += 1
                    continue
                step = SearchStep(
                    bridge_kind=bridge.kind,
                    bridge_labels=bridge.labels,
                    pattern_labels=outcome.pattern_labels,
                    rii_cancelled=cancelled,
                    genus_after=genus(child),
                    crossings_after=child.n,
                )
                nodes[child_key] = _Node(child, step.genus_after, parent=key, step=step)
                fresh.append(child_key)
        if not fresh:
            break
        fresh.sort(key=lambda k: nodes[k].order_key(k))
        frontier = fresh[: config.beam_width]

    best_key = min(nodes, key=lambda k: nodes[k].order_key(k))
    trace: list[SearchStep] = []
    key: str | None = best_key
    while key is not None:
        node = nodes[key]
        if node.step is not None:
            trace.append(node.step)
        key = node.parent
    trace.reverse()
    return SearchResult(
        best_code=nodes[best_key].code,
        best_genus=nodes[best_key].genus,
        move_trace=tuple(trace),
        nodes_expanded=expanded,
        duplicates_pruned=pruned,
    )
