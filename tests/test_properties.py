"""Property tests over random chord diagrams (Hypothesis).

A diagram is drawn as a pairing of 2n positions into n chords, with a pass
letter per end, a sign per chord and shuffled labels; codes are signed or
unsigned throughout, and signed where a move needs signs.  Runs are
derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaussgenus import (  # noqa: E402
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    UNSIGNED,
    GaussCode,
    Unit,
    bridge_replace,
    canonical_form,
    cycles,
    enumerate_bridges,
    flip_passes,
    genus,
    genus_oracle,
    parse_gauss,
    remove_chords,
    rii_reduce,
)
from gaussgenus import moves  # noqa: E402
from helpers import assert_as_validated, braid_closure_code  # noqa: E402

MAX_N = 30
MOVE_MAX_N = 14

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# Each move example also runs the band-surface oracle, so fewer of them.
derandomized_moves = settings(derandomized, max_examples=40)


@st.composite
def chord_diagrams(draw, max_n=MAX_N, signed=None):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(2 * n)))
    labels = draw(st.permutations(range(1, n + 1)))
    if signed is None:
        signed = draw(st.booleans())
    units = [None] * (2 * n)
    for c, label in enumerate(labels):
        over, under = order[2 * c], order[2 * c + 1]
        if draw(st.booleans()):
            over, under = under, over
        sign = draw(st.sampled_from((POSITIVE, NEGATIVE))) if signed else UNSIGNED
        units[over] = Unit(OVER, label, sign)
        units[under] = Unit(UNDER, label, sign)
    return GaussCode(units)


@st.composite
def braid_words(draw, max_strands=6, max_len=16):
    """Letters (j, eps) of a braid on up to ``max_strands`` strands."""
    strands = draw(st.integers(2, max_strands))
    letter = st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1)))
    return draw(st.lists(letter, min_size=2, max_size=max_len))


@st.composite
def code_pairs(draw):
    """Two small codes, often equal or nearly so: unrelated draws, the same
    units rebuilt, a rotation, or one pass letter or sign changed."""
    a = draw(chord_diagrams(max_n=3))
    units = list(a.units)
    kind = draw(st.sampled_from(("other", "same", "rotated", "flipped", "resigned")))
    if kind == "other" or not units:
        return a, draw(chord_diagrams(max_n=3))
    if kind == "same":
        return a, GaussCode(units)
    if kind == "rotated":
        return a, a.rotated(draw(st.integers(0, len(units) - 1)))
    label = draw(st.sampled_from(sorted(a.labels)))
    for i, u in enumerate(units):
        if u.label == label:
            if kind == "flipped":
                units[i] = u.flipped()
            else:
                units[i] = u._replace(sign=-u.sign)
    return a, GaussCode(units)


@derandomized
@given(chord_diagrams(), st.integers(0, 4 * MAX_N))
def test_canonical_form_is_idempotent_and_rotation_invariant(code, offset):
    canon = canonical_form(code)
    assert canonical_form(canon) == canon
    assert canonical_form(code.rotated(offset)) == canon


@derandomized
@given(chord_diagrams())
def test_parse_inverts_serialize(code):
    assert parse_gauss(code.serialize()) == code


@derandomized
@given(code_pairs())
def test_equal_exactly_when_serializations_are_equal(pair):
    a, b = pair
    assert (a == b) == (a.serialize() == b.serialize())
    if a == b:
        assert hash(a) == hash(b)


@derandomized
@given(chord_diagrams())
def test_crossings_plus_circles_is_odd(code):
    assert (code.n + cycles(code).s) % 2 == 1


@derandomized
@given(chord_diagrams())
def test_genus_matches_band_surface_oracle(code):
    assert genus(code) == genus_oracle(code)


@derandomized_moves
@given(chord_diagrams(max_n=MOVE_MAX_N, signed=True), st.integers(0, 4 * MOVE_MAX_N))
def test_replacement_genus_is_the_open_diagram_genus(code, pick):
    bridges = enumerate_bridges(code, "both", 1)
    if not bridges:
        return
    bridge = bridges[pick % len(bridges)]
    outcome = bridge_replace(code, bridge)
    # The oracle counts no circles, so this does not lean on the orbit pass.
    g_after = genus_oracle(outcome.result)
    g_before = genus_oracle(code)
    assert g_after == genus_oracle(remove_chords(code, bridge.labels))
    assert g_after <= g_before
    assert outcome.strict_decrease_predicted == (g_after < g_before)


@derandomized_moves
@given(chord_diagrams(max_n=MOVE_MAX_N, signed=True))
def test_rii_never_raises_genus_and_is_idempotent(code):
    reduced = rii_reduce(code)
    assert genus_oracle(reduced) <= genus_oracle(code)
    assert rii_reduce(reduced) is reduced


@derandomized_moves
@given(chord_diagrams(max_n=MOVE_MAX_N), st.integers(0, 4 * MOVE_MAX_N), st.randoms())
def test_derived_codes_equal_their_validated_build(code, offset, rng):
    genus(code)  # a circle cache on the parent must not leak into a derived code
    labels = sorted(code.labels)
    derived = [
        remove_chords(code, rng.sample(labels, rng.randint(0, len(labels)))),
        canonical_form(code),
        code.rotated(offset),
        flip_passes(code),
    ]
    if code.signed:
        derived.append(rii_reduce(code))
    for d in derived:
        assert_as_validated(d)


@derandomized_moves
@given(
    st.one_of(
        chord_diagrams(max_n=MOVE_MAX_N, signed=True),
        braid_words().map(braid_closure_code).filter(lambda code: code is not None),
    ),
    st.integers(0, 4 * MOVE_MAX_N),
)
def test_gives_back_exactly_when_the_reduced_child_is_the_node(code, pick):
    # On an RII-reduced canonical code and on one of its children, as search
    # reaches them: a child often gives itself back by a move.
    nodes = [canonical_form(rii_reduce(code))]
    bridges = enumerate_bridges(nodes[0])
    if bridges:
        outcome = bridge_replace(nodes[0], bridges[pick % len(bridges)])
        nodes.append(canonical_form(rii_reduce(outcome.result)))
    for node in nodes:
        for bridge in enumerate_bridges(node):
            built = canonical_form(rii_reduce(bridge_replace(node, bridge).result))
            assert moves._gives_back(node, bridge) == (built == node)
