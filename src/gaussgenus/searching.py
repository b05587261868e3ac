"""Genus minimization by iterated bridge replacement and RII cleanup.

Nodes of the move graph are canonical forms, keyed by the code itself, so a
duplicate child is dropped by one hash lookup.  Children apply one bridge
replacement (both kinds, maximal bridges of at least ``min_bridge_len``
passes) followed by RII reduction.  One beam search expands them depth by
depth, ordering nodes by (genus, crossing count, canonical serialization),
so results do not depend on evaluation order, and stops at the first depth
that adds no node.  A node is a plain tuple whose leading fields are that
order; an int tuple (:func:`_order_key`) stands in for the serialization,
so no node is serialized.  A child's genus is read before
canonicalization, where RII that cancels nothing leaves the circles
``bridge_replace`` already counted.  A node records only the move that
made it, (bridge, pattern labels, RII pairs cancelled); the
:class:`SearchStep` records are built for the returned path alone.  With
RII on, a move whose reduced child would be its RII-free node itself
(:func:`~gaussgenus.moves._gives_back`, read from the node) is counted as
the duplicate it would be and never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .codes import (
    _NEGATIVE_BIT,
    _UNDER_BIT,
    GaussCode,
    GaussCodeError,
    _require_code,
    _require_int,
    canonical_form,
)
from .circles import genus
from .moves import _gives_back, bridge_replace, enumerate_bridges, rii_reduce, strictly_decreases


@dataclass(frozen=True)
class SearchConfig:
    """Each depth keeps its ``beam_width`` best new nodes; None keeps all (exhaustive)."""

    max_depth: int = 5
    beam_width: int | None = None
    min_bridge_len: int = 2
    apply_rii: bool = True
    only_strict: bool = False

    def __post_init__(self):
        _require_int("max_depth", self.max_depth, positive=True)
        if self.beam_width is not None:
            _require_int("beam_width", self.beam_width, positive=True)
        _require_int("min_bridge_len", self.min_bridge_len, positive=True)
        for name in ("apply_rii", "only_strict"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise GaussCodeError(f"{name} must be a bool, not {value!r}")


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


@lru_cache(maxsize=64)
def _unit_keys(n: int) -> tuple[int, ...]:
    # Indexed by a packed unit of a signed code labelled 1..n: an int that
    # orders like the unit's text, by pass letter, then the label's decimal
    # string (``lexrank``), then '+' before '-'.
    lexrank = [0] * (n + 1)
    for rank, label in enumerate(sorted(range(1, n + 1), key=str)):
        lexrank[label] = rank
    return tuple([
        (c & _UNDER_BIT) * n + 2 * lexrank[c >> 2] + (c & _NEGATIVE_BIT) for c in range(4 * n + 4)
    ])


def _order_key(code: GaussCode) -> tuple[int, ...]:
    """An int tuple ordered exactly as the serialization, among signed
    codes with n crossings labelled 1..n, as canonical forms are.

    Where one label's digits are a prefix of another's, the text goes on
    with a sign ('+' or '-') against a digit, and signs sort before digits:
    so units compare as (pass letter, label string, sign), one int each.
    """
    keys = _unit_keys(code.n)
    return tuple([keys[c] for c in code.packed])


class _Node(NamedTuple):
    # The leading fields are the node order; no two nodes share ``key``, so
    # a comparison never reaches ``code``.
    genus: int
    n: int
    key: tuple[int, ...]  # _order_key of the code, built once per new node
    code: GaussCode  # a canonical form; the key of its node
    parent: _Node | None
    move: tuple | None  # (bridge, pattern_labels, rii_cancelled) from the parent


def search(code: GaussCode, config: SearchConfig | None = None) -> SearchResult:
    """Explore move sequences from ``code`` and return the best code found.

    Best means least (genus, crossing count, canonical serialization) over
    every node reached, the input included.
    """
    _require_code(code)
    if config is None:
        config = SearchConfig()
    if not isinstance(config, SearchConfig):
        raise GaussCodeError(f"config must be a SearchConfig, not {type(config).__name__}")
    if not code.signed:
        raise GaussCodeError("search requires a fully signed code")

    root = canonical_form(code)
    start = _Node(genus(root), root.n, _order_key(root), root, None, None)
    nodes: dict[GaussCode, _Node] = {root: start}
    frontier = [start]
    # Every other node is RII-reduced, so ``_gives_back`` applies to it.
    root_reduced = config.apply_rii and rii_reduce(root) is root
    expanded = 0
    pruned = 0

    for _ in range(config.max_depth):
        fresh: list[_Node] = []
        for node in frontier:
            expanded += 1
            rii_free = config.apply_rii and (node is not start or root_reduced)
            for bridge in enumerate_bridges(node.code, "both", config.min_bridge_len):
                if config.only_strict and not strictly_decreases(node.code, bridge):
                    continue
                if rii_free and _gives_back(node.code, bridge):
                    pruned += 1  # the child would be this node, a duplicate
                    continue
                outcome = bridge_replace(node.code, bridge)
                reduced = outcome.result
                if config.apply_rii:
                    reduced = rii_reduce(reduced)
                child = canonical_form(reduced)
                if child in nodes:
                    pruned += 1
                    continue
                move = (bridge, outcome.pattern_labels, (outcome.result.n - reduced.n) // 2)
                new = _Node(genus(reduced), child.n, _order_key(child), child, node, move)
                nodes[child] = new
                fresh.append(new)
        if not fresh:
            break
        fresh.sort()
        frontier = fresh[: config.beam_width]

    best = min(nodes.values())
    trace: list[SearchStep] = []
    node = best
    while node.parent is not None:
        bridge, patterns, cancelled = node.move
        step = SearchStep(bridge.kind, bridge.labels, patterns, cancelled, node.genus, node.n)
        trace.append(step)
        node = node.parent
    trace.reverse()
    return SearchResult(
        best_code=best.code,
        best_genus=best.genus,
        move_trace=tuple(trace),
        nodes_expanded=expanded,
        duplicates_pruned=pruned,
    )
