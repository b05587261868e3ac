"""Property tests over random chord diagrams (Hypothesis).

A diagram is drawn as a pairing of 2n positions into n chords, with a pass
letter per end, a sign per chord and shuffled labels; codes are signed or
unsigned throughout.  Runs are derandomized, so every run checks the same
examples.
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
    canonical_form,
    cycles,
    genus,
    genus_oracle,
    parse_gauss,
)

MAX_N = 30

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def chord_diagrams(draw, max_n=MAX_N):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(2 * n)))
    labels = draw(st.permutations(range(1, n + 1)))
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
