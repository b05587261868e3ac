"""Session records of the kernel tests, each built once per run.

``corpora`` runs each corpus generator of :mod:`helpers` once.
``move_record`` replaces every bridge of their signed codes up to n = 12,
and ``search_record`` searches the tree codes and builds the child of every
move of each RII-free node.  A test that checks a prediction against built
moves or children loops over these records instead of building them again.
"""

import collections
import itertools
import random

import pytest

from gaussgenus import SearchConfig, bridge_replace, canonical_form, enumerate_bridges, genus
from gaussgenus import moves, parse_gauss, rii_reduce, search, searching
from helpers import CORPORA, EIGHT_20, RII_CORPORA, braid_knot_code, random_code

# The codes of each CORPORA and of each RII_CORPORA generator, by name; the
# codes search is compared on; the codes whose search trees are recorded.
Corpora = collections.namedtuple("Corpora", "kernel rii search tree")
# One replaced bridge: its family ("kernel" for a code of CORPORA, "rii" for
# one of RII_CORPORA), code, bridge and MoveOutcome, the open diagram that
# moves._checked received, and moves._guide's reading (None when the bridge
# holds every crossing).
Move = collections.namedtuple("Move", "family code bridge outcome opened guide")
# One move of an RII-free search node: canonical_form(rii_reduce(result)),
# then the result's genus and crossing count before RII, and the RII pairs
# cancelled.
Child = collections.namedtuple("Child", "node bridge built genus n cancelled")
# The config of the search trees, the SearchResult of each tree code, and
# the Child of every move of each RII-free node they expand, in order of
# expansion, and of the SAME_GAPS codes.
SearchRecord = collections.namedtuple("SearchRecord", "config results children")

# Search nodes with a move whose survivors fill the gaps of the bridge's
# passes, but in another order or for other chords: no self-moves.
SAME_GAPS = ("O1+O2-U3+O4-O3+U4-U2-O5-U5-U1+", "O1+O2-U2-U3+O4-O3+U5-U6-O6-O5-U4-U1+")


@pytest.fixture(scope="session")
def corpora():
    kernel = {name: tuple(CORPORA[name]()) for name in sorted(CORPORA)}
    rii = {name: tuple(RII_CORPORA[name]()) for name in sorted(RII_CORPORA)}
    rng = random.Random(6765)
    searched = [parse_gauss(EIGHT_20), random_code(rng, 4), random_code(rng, 6)]
    searched += [braid_knot_code(rng, max_strands=4, max_len=8) for _ in range(3)]
    # Canonical forms with two-digit labels, where "10" sorts before "9"; on
    # the padded braid (n = 12) that order decides between nodes.
    searched += [random_code(rng, 11), rii["padded_braid"][22]]
    tree = []  # signed codes of every corpus, up to n = 14, eight from each
    for codes in (*kernel.values(), *rii.values()):
        tree += [c for c in codes if c.signed and 4 <= c.n <= 14][:8]
    return Corpora(kernel, rii, tuple(searched), tuple(tree))


@pytest.fixture(scope="session")
def move_record(corpora):
    """Every maximal bridge of the signed codes up to n = 12 of both
    families, replaced once, by family, corpus name and code."""
    opened = []
    real_checked = moves._checked

    def spy(code, trimmed, outcome):
        opened.append(trimmed)
        return real_checked(code, trimmed, outcome)

    record = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moves, "_checked", spy)
        for family, named in (("kernel", corpora.kernel), ("rii", corpora.rii)):
            for code in [c for c in itertools.chain(*named.values()) if c.signed and c.n <= 12]:
                for bridge in enumerate_bridges(code):
                    outcome = bridge_replace(code, bridge)
                    guide = moves._guide(code, bridge) if len(bridge) < code.n else None
                    record.append(Move(family, code, bridge, outcome, opened.pop(), guide))
    return tuple(record)


@pytest.fixture(scope="session")
def search_record(corpora):
    config = SearchConfig(max_depth=3, beam_width=4)
    real = searching.enumerate_bridges
    nodes = []

    def spy(code, *args):
        nodes.append(code)
        return real(code, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(searching, "enumerate_bridges", spy)
        results = tuple([search(code, config) for code in corpora.tree])
    children = []
    for node in [*nodes, *map(parse_gauss, SAME_GAPS)]:
        if rii_reduce(node) is not node:
            continue  # a root with cancelling pairs
        for bridge in enumerate_bridges(node):
            result = bridge_replace(node, bridge).result
            n, reduced = result.n, rii_reduce(result)
            pairs = (n - reduced.n) // 2  # cancelled by RII
            children.append(Child(node, bridge, canonical_form(reduced), genus(result), n, pairs))
    return SearchRecord(config, results, tuple(children))
