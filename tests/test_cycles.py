"""Circle decomposition, genus, and chord removal."""

import copy
import pickle
import random

import pytest

from gaussgenus import (
    Cycle,
    GaussCodeError,
    chord_removal_drops_genus,
    cycles,
    genus,
    parse_gauss,
    remove_chords,
)
from helpers import EIGHT_20, EIGHT_20_TRIMMED_45, TREFOIL, TREFOIL_CYCLES, random_code


def test_trefoil_decomposition():
    decomposition = cycles(parse_gauss(TREFOIL))
    assert decomposition.s == 2
    assert tuple(c.serialize() for c in decomposition.cycles) == TREFOIL_CYCLES


def test_trefoil_genus():
    assert genus(parse_gauss(TREFOIL)) == 1


def test_empty_code_convention():
    decomposition = cycles(parse_gauss(""))
    assert decomposition.s == 1
    assert decomposition.arc_owner == ()
    assert genus(parse_gauss("")) == 0


def test_eight_20_orbit_sizes():
    decomposition = cycles(parse_gauss(EIGHT_20))
    assert decomposition.s == 3
    assert sorted(len(c.orbit) for c in decomposition.cycles) == [4, 4, 8]
    assert genus(parse_gauss(EIGHT_20)) == 3


def test_decomposition_records_are_named_tuples():
    decomposition = cycles(parse_gauss("O1-U1-"))
    assert repr(decomposition) == (
        "CycleDecomposition(cycles=(Cycle(orbit=(0,), recorded=(Unit(kind='O', label=1, sign=-1),"
        " Unit(kind='U', label=1, sign=-1))), Cycle(orbit=(1,), recorded=(Unit(kind='U', label=1,"
        " sign=-1), Unit(kind='O', label=1, sign=-1)))), arc_owner=(1, 0))"
    )
    assert pickle.loads(pickle.dumps(decomposition)) == decomposition
    assert copy.copy(decomposition) == decomposition == copy.deepcopy(decomposition)
    first = decomposition.cycles[0]
    with pytest.raises(AttributeError):
        decomposition.arc_owner = ()
    with pytest.raises(AttributeError):
        first.orbit = ()
    assert first._replace(orbit=(5,)) == Cycle(orbit=(5,), recorded=first.recorded)
    assert decomposition._replace(arc_owner=(0, 1)).s == 2


def test_arc_owner_covers_every_arc():
    code = parse_gauss(EIGHT_20)
    decomposition = cycles(code)
    assert len(decomposition.arc_owner) == len(code)
    assert set(decomposition.arc_owner) == set(range(decomposition.s))
    assert sum(len(c.orbit) for c in decomposition.cycles) == len(code)


def test_recorded_walk_alternates_steps():
    rng = random.Random(31)
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 9))
        for cyc in cycles(code).cycles:
            walk = cyc.recorded
            assert len(walk) == 2 * len(cyc.orbit)
            for i in range(0, len(walk), 2):
                assert walk[i].label == walk[i + 1].label  # chord step
            # arc steps: each partner endpoint is followed by its circle
            # successor, cyclically back to the start of the walk
            m = len(code)
            for i, x in enumerate(cyc.orbit):
                succ = cyc.orbit[(i + 1) % len(cyc.orbit)]
                assert (code.partner[x] + 1) % m == succ


def test_remove_chords_fixture():
    code = parse_gauss(EIGHT_20)
    assert remove_chords(code, {4, 5}).serialize() == EIGHT_20_TRIMMED_45
    # A label named twice drops its two positions once.
    assert remove_chords(code, [4, 4, 5]).serialize() == EIGHT_20_TRIMMED_45


def test_remove_chords_empty_set():
    code = parse_gauss(EIGHT_20)
    assert remove_chords(code, set()) == code


def test_remove_all_chords():
    assert remove_chords(parse_gauss(TREFOIL), {1, 2, 3}).n == 0


def test_remove_unknown_label():
    with pytest.raises(GaussCodeError, match="unknown label 9"):
        remove_chords(parse_gauss(TREFOIL), {9})


def test_remove_unknown_labels_of_mixed_types():
    # Unlike labels are not compared: ints are named first, by value.
    code = parse_gauss(TREFOIL)
    with pytest.raises(GaussCodeError, match="unknown label 99"):
        remove_chords(code, ["a", 99])
    with pytest.raises(GaussCodeError, match="^unknown label 'a'$"):
        remove_chords(code, ["a", 1])


def test_labels_that_are_not_ints_are_quoted():
    # The code has label 1, so an unquoted "1" would name a known crossing.
    code = parse_gauss(TREFOIL)
    for call in (
        lambda: remove_chords(code, ["1"]),
        lambda: code.positions_of("1"),
        lambda: chord_removal_drops_genus(code, "1"),
    ):
        with pytest.raises(GaussCodeError) as err:
            call()
        assert str(err.value) == "unknown label '1'"


def test_chord_removal_prediction_fixtures():
    assert not chord_removal_drops_genus(parse_gauss(EIGHT_20), 4)
    assert not chord_removal_drops_genus(parse_gauss(TREFOIL), 1)
    assert chord_removal_drops_genus(parse_gauss("O1+U2+U1+O2+"), 1)
    assert genus(parse_gauss("O1+U2+U1+O2+")) == 1
    assert genus(remove_chords(parse_gauss("O1+U2+U1+O2+"), {1})) == 0


def test_parity_and_removal_monotonicity_random():
    rng = random.Random(404)
    for _ in range(200):
        code = random_code(rng, rng.randint(0, 10))
        s = cycles(code).s
        assert (code.n + s) % 2 == 1
        for label in sorted(code.labels):
            drop = genus(code) - genus(remove_chords(code, {label}))
            assert drop in (0, 1)
            assert drop == (1 if chord_removal_drops_genus(code, label) else 0)


def test_genus_ignores_passes_and_signs():
    from gaussgenus import flip_passes

    rng = random.Random(77)
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 9))
        assert genus(flip_passes(code)) == genus(code)


def test_parity_violation_names_the_code(monkeypatch):
    from gaussgenus import InternalInvariantError
    from gaussgenus import circles

    real = circles._circles
    monkeypatch.setattr(circles, "_circles", lambda c: (None, real(c)[1] + 1))
    with pytest.raises(InternalInvariantError, match="n \\+ s must be odd") as err:
        genus(parse_gauss(TREFOIL))
    assert TREFOIL in str(err.value)


def test_circles_are_computed_once_and_shared():
    from gaussgenus.circles import _circles

    code = parse_gauss(EIGHT_20)
    assert code._orbits is None
    owner, s = _circles(code)
    assert type(owner) is tuple  # shared, so it cannot be changed in place
    assert _circles(code) is code._orbits
    assert genus(code) == (code.n - s + 1) // 2
    assert cycles(code).arc_owner == tuple(owner[(i + 1) % len(code)] for i in range(len(code)))
