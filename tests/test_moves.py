"""Bridge enumeration, bridge replacement, and RII reduction."""

import random

import pytest

from gaussgenus import (
    OVER,
    UNDER,
    Bridge,
    GaussCodeError,
    bridge_at,
    bridge_replace,
    canonical_form,
    chord_removal_drops_genus,
    enumerate_bridges,
    find_bridge,
    flip_passes,
    genus,
    knotoid_genus,
    parse_gauss,
    remove_chords,
    rii_reduce,
    strictly_decreases,
)
from helpers import (
    EIGHT_20,
    EIGHT_20_GUIDE_45,
    EIGHT_20_MOVED_45,
    RII_PAIR,
    TREFOIL,
    braid_knot_code,
    knot_fingerprint,
    odd_writhe,
    random_code,
    supporting_genus,
    torus_code,
    writhe_polynomial,
)
from test_kernels import _cancellable_pairs


# -- bridges -----------------------------------------------------------------


def test_enumerate_over_bridges_eight_20():
    code = parse_gauss(EIGHT_20)
    found = enumerate_bridges(code, "over", min_len=2)
    assert [b.labels for b in found] == [(8, 1), (4, 5), (2, 6)]
    assert found[0].positions == (15, 0)  # wrap-around run
    assert all(b.maximal for b in found)


def test_enumerate_under_bridges_eight_20():
    code = parse_gauss(EIGHT_20)
    found = enumerate_bridges(code, "under", min_len=2)
    assert [b.labels for b in found] == [(2, 3), (1, 6), (8, 5)]


def test_trefoil_has_no_long_bridges():
    assert enumerate_bridges(parse_gauss(TREFOIL), "both", min_len=2) == []
    assert len(enumerate_bridges(parse_gauss(TREFOIL), "both", min_len=1)) == 6


def test_empty_code_has_no_bridges():
    assert enumerate_bridges(parse_gauss(""), "both", min_len=1) == []


def test_bridge_at_maximality():
    code = parse_gauss(EIGHT_20)
    assert not bridge_at(code, 3, 1).maximal  # inside the O4+O5- run
    assert bridge_at(code, 3, 2).maximal
    with pytest.raises(GaussCodeError):
        bridge_at(code, 2, 2)  # U3+,O4+ mixes passes


@pytest.mark.parametrize(
    "call",
    [
        lambda code: enumerate_bridges(code, ["over"]),
        lambda code: enumerate_bridges(code, "both", "2"),
        lambda code: enumerate_bridges(code, "both", True),
        lambda code: bridge_at(code, 0, 1.0),
        lambda code: bridge_at(code, 3.0, 2),
        lambda code: strictly_decreases(code, Bridge(OVER, (3.0, 4.0), (4, 5), True)),
        lambda code: bridge_replace(code, Bridge(OVER, (3, 4.0), (4, 5), True)),
        lambda code: knotoid_genus(code, Bridge(OVER, (3, True), (4, 5), True)),
    ],
    ids=[
        "kind-list",
        "min-len-str",
        "min-len-bool",
        "length-float",
        "start-float",
        "float-positions",
        "float-second-position",
        "bool-position",
    ],
)
def test_bridge_arguments_that_are_not_ints_are_rejected(call):
    with pytest.raises(GaussCodeError):
        call(parse_gauss(EIGHT_20))


def _first_bridge_of_8_20(positions=None, labels=None):
    # 8_20's first bridge, O8-O1+ at positions (15, 0), with a field replaced.
    bridge = enumerate_bridges(parse_gauss(EIGHT_20))[0]
    return Bridge(bridge.kind, positions or bridge.positions, labels or bridge.labels, True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: remove_chords(parse_gauss(TREFOIL), [True]),
        lambda: remove_chords(parse_gauss(TREFOIL), [1.0]),
        lambda: find_bridge(parse_gauss(TREFOIL), [2.0]),
        lambda: chord_removal_drops_genus(parse_gauss(TREFOIL), True),
        lambda: parse_gauss(TREFOIL).positions_of(1.0),
        lambda: bridge_replace(parse_gauss(EIGHT_20), _first_bridge_of_8_20(labels=(8.0, 1.0))),
        lambda: strictly_decreases(parse_gauss(EIGHT_20), _first_bridge_of_8_20(labels=(8.0, 1))),
        lambda: knotoid_genus(parse_gauss(EIGHT_20), _first_bridge_of_8_20(labels=(8, 1.0))),
        lambda: bridge_replace(parse_gauss(EIGHT_20), _first_bridge_of_8_20(positions=(15, False))),
        lambda: strictly_decreases(parse_gauss(EIGHT_20), _first_bridge_of_8_20(labels=(8, True))),
    ],
    ids=[
        "remove-bool",
        "remove-float",
        "find-float",
        "drops-genus-bool",
        "positions-of-float",
        "replace-float-labels",
        "strict-float-label",
        "knotoid-float-label",
        "replace-bool-position",
        "strict-bool-label",
    ],
)
def test_labels_equal_to_ints_but_not_ints_are_unknown(call):
    # True == 1 and 1.0 == 1, yet neither is a crossing label or a position.
    with pytest.raises(GaussCodeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda code: bridge_replace(code, None),
        lambda code: strictly_decreases(code, "x"),
        lambda code: knotoid_genus(code, None),
    ],
    ids=["replace-none", "strict-str", "knotoid-none"],
)
def test_bridge_that_is_not_a_bridge_is_rejected(call):
    with pytest.raises(GaussCodeError, match="bridge must be a Bridge, not "):
        call(parse_gauss(EIGHT_20))


def test_find_bridge_requires_maximal_label_set():
    code = parse_gauss(EIGHT_20)
    assert find_bridge(code, (4, 5)).positions == (3, 4)
    assert find_bridge(code, (4,)).kind == UNDER  # the lone U4+ run
    with pytest.raises(GaussCodeError, match="maximal bridge"):
        find_bridge(code, (4, 1))


def test_find_bridge_names_labels_of_mixed_types():
    code = parse_gauss(TREFOIL)
    with pytest.raises(GaussCodeError, match=r"labels \{1,'x'\} do not form"):
        find_bridge(code, [1, "x"])
    with pytest.raises(GaussCodeError, match=r"^labels \{'1'\} do not form"):
        find_bridge(code, ["1"])
    with pytest.raises(GaussCodeError, match=r"labels \{9,10\} do not form"):
        find_bridge(code, [10, 9])


# -- strict-decrease predicate -------------------------------------------


def test_strictly_decreases_fixtures():
    code = parse_gauss(EIGHT_20)
    assert strictly_decreases(code, find_bridge(code, (4, 5)))
    assert strictly_decreases(code, find_bridge(code, (8, 1)))
    assert not strictly_decreases(code, find_bridge(code, (2, 6)))
    trefoil = parse_gauss(TREFOIL)
    assert not strictly_decreases(trefoil, bridge_at(trefoil, 0, 1))


def test_strictly_decreases_matches_ground_truth_random():
    rng = random.Random(64)
    for _ in range(150):
        code = random_code(rng, rng.randint(1, 10))
        for bridge in enumerate_bridges(code, "both", 1):
            truth = genus(code) > genus(remove_chords(code, bridge.labels))
            assert strictly_decreases(code, bridge) == truth


# -- knotoid genus ---------------------------------------------------------


def test_knotoid_genus_fixtures():
    code = parse_gauss(EIGHT_20)
    assert knotoid_genus(code, find_bridge(code, (4, 5))) == 2
    trefoil = parse_gauss(TREFOIL)
    assert knotoid_genus(trefoil, bridge_at(trefoil, 0, 1)) == 1
    full = parse_gauss("O1+O2+U1+U2+")
    assert knotoid_genus(full, find_bridge(full, (1, 2))) == 0


# -- bridge replacement ------------------------------------------------------


def test_replace_eight_20_bridge_45_exactly():
    code = parse_gauss(EIGHT_20)
    outcome = bridge_replace(code, find_bridge(code, (4, 5)))
    assert outcome.result.serialize() == EIGHT_20_MOVED_45
    assert str(outcome.anchor) == "U3+"
    assert outcome.pattern_labels == (3, 2)
    assert outcome.inserted_labels == (9, 10, 11, 12)
    assert outcome.removed_labels == (4, 5)
    assert outcome.guide_text() == EIGHT_20_GUIDE_45
    assert outcome.strict_decrease_predicted
    assert genus(outcome.result) == 2


def test_replace_trefoil_single_bridge():
    # Both passes of the anchor's own crossing lie on the guide here; the
    # departing chord step still counts, so two pattern crossings appear.
    code = parse_gauss(TREFOIL)
    outcome = bridge_replace(code, bridge_at(code, 0, 1))
    assert outcome.pattern_labels == (3, 2)
    assert outcome.result.n == 6
    assert genus(outcome.result) == 1
    assert knot_fingerprint(outcome.result) == knot_fingerprint(code)


def test_replace_bridge_covering_all_labels():
    code = parse_gauss("O1+O2+U1+U2+")
    outcome = bridge_replace(code, find_bridge(code, (1, 2)))
    assert outcome.result.n == 0
    assert outcome.pattern_labels == ()
    assert outcome.anchor is None


def test_replace_requires_signs():
    bare = parse_gauss("O1?O2?U1?U2?")
    with pytest.raises(GaussCodeError, match="signed"):
        bridge_replace(bare, find_bridge(bare, (1, 2)))


def test_replace_rejects_foreign_bridge():
    code = parse_gauss(EIGHT_20)
    alien = Bridge(kind=OVER, positions=(3, 4), labels=(4, 6), maximal=True)
    with pytest.raises(GaussCodeError):
        bridge_replace(code, alien)


def test_replace_self_check_names_input_and_bridge(monkeypatch):
    from gaussgenus import InternalInvariantError
    from gaussgenus import moves as moves_module

    real_genus = moves_module.genus
    code = parse_gauss(EIGHT_20)
    monkeypatch.setattr(moves_module, "genus", lambda c: real_genus(c) + (c != code))
    with pytest.raises(InternalInvariantError) as err:
        bridge_replace(code, find_bridge(code, (4, 5)))
    assert f"(input {EIGHT_20}, bridge 4,5)" in str(err.value)


def test_replace_parity_failure_names_input_and_bridge(monkeypatch):
    # The parent's circle count, which the self-check reads through genus,
    # breaks parity: the move reports the code and the bridge.
    from gaussgenus import InternalInvariantError, circles

    real_circles = circles._circles

    def broken(c):
        owner, s = real_circles(c)
        return owner, s + 1

    code = parse_gauss(EIGHT_20)
    monkeypatch.setattr(circles, "_circles", broken)
    with pytest.raises(InternalInvariantError, match="n \\+ s must be odd") as err:
        bridge_replace(code, find_bridge(code, (4, 5)))
    assert f"(input {EIGHT_20}, bridge 4,5)" in str(err.value)


def test_replace_genus_contract_random():
    rng = random.Random(911)
    for _ in range(250):
        code = random_code(rng, rng.randint(1, 11))
        for bridge in enumerate_bridges(code, "both", 1):
            outcome = bridge_replace(code, bridge)
            assert genus(outcome.result) == genus(remove_chords(code, bridge.labels))
            assert genus(outcome.result) <= genus(code)
            assert len(set(outcome.pattern_labels)) == len(outcome.pattern_labels)


def test_replace_mirror_symmetry():
    # An under bridge is replaced as the over bridge of the mirror image
    # would be: every field agrees once pass letters are interchanged.
    rng = random.Random(333)
    codes = [random_code(rng, rng.randint(1, 9)) for _ in range(100)]
    codes += [braid_knot_code(rng) for _ in range(40)]
    for code in codes:
        for bridge in enumerate_bridges(code, "under", 1):
            flipped = Bridge(OVER, bridge.positions, bridge.labels, bridge.maximal)
            ours = bridge_replace(code, bridge)
            theirs = bridge_replace(flip_passes(code), flipped)
            assert ours.result == flip_passes(theirs.result)
            assert ours.anchor == (theirs.anchor.flipped() if theirs.anchor else None)
            assert ours.guide == tuple(u.flipped() for u in theirs.guide)
            assert ours.pattern_labels == theirs.pattern_labels
            assert ours.inserted_labels == theirs.inserted_labels
            assert ours.removed_labels == theirs.removed_labels
            assert ours.strict_decrease_predicted == theirs.strict_decrease_predicted


def test_replace_preserves_knot_type_on_realizable_codes():
    # Strong regression guard: on braid closures every move must keep the
    # knot group's Alexander fingerprint, which genus checks cannot see.
    rng = random.Random(1234)
    for _ in range(50):
        code = braid_knot_code(rng)
        fp = knot_fingerprint(code)
        for bridge in enumerate_bridges(code, "both", 1):
            outcome = bridge_replace(code, bridge)
            assert knot_fingerprint(outcome.result) == fp
            assert knot_fingerprint(rii_reduce(outcome.result)) == fp


def test_supporting_genus_fixtures():
    for code in (parse_gauss(TREFOIL), parse_gauss(EIGHT_20)):
        assert supporting_genus(code) == 0
    for p, q in ((3, 4), (3, 5), (5, 7)):
        assert supporting_genus(torus_code(p, q)) == 0
    assert supporting_genus(parse_gauss("O1+U2+U1+O2+")) == 1  # the virtual trefoil
    assert supporting_genus(parse_gauss("")) == 0


def test_replace_keeps_realizable_codes_realizable():
    # A planar diagram stays planar through a bridge replacement and RII,
    # which the knot fingerprint above does not check.
    rng = random.Random(2011)
    replaced = 0
    for _ in range(300):
        code = braid_knot_code(rng)
        assert supporting_genus(code) == 0, code
        for bridge in enumerate_bridges(code):
            result = bridge_replace(code, bridge).result
            assert supporting_genus(result) == 0, (code, bridge)
            assert supporting_genus(rii_reduce(result)) == 0, (code, bridge)
            replaced += 1
    assert replaced > 2000


# -- virtual codes -----------------------------------------------------------


def _virtual_codes(count):
    """Random codes that are not realizable, n 3-14."""
    rng = random.Random(11)
    codes = []
    while len(codes) < count:
        code = random_code(rng, rng.randint(3, 14))
        if supporting_genus(code) > 0:
            codes.append(code)
    return codes


def test_odd_writhe_is_kept_by_rii_and_rotation_on_virtual_codes():
    assert odd_writhe(parse_gauss("O1+U2+U1+O2+")) == 2  # the virtual trefoil
    cancelled = 0
    for code in _virtual_codes(150):
        writhe = odd_writhe(code)
        reduced = rii_reduce(code)
        assert odd_writhe(reduced) == writhe, code
        cancelled += reduced is not code
        for r in range(1, len(code), 3):
            assert odd_writhe(code.rotated(r)) == writhe, (code, r)
    assert cancelled > 20


def test_odd_writhe_is_zero_on_braid_closures():
    rng = random.Random(5)
    for _ in range(200):
        code = braid_knot_code(rng)
        assert odd_writhe(code) == 0, code
    for p, q in ((3, 4), (3, 5), (5, 7)):
        assert odd_writhe(torus_code(p, q)) == 0


def test_writhe_polynomial_is_kept_by_rii_and_rotation_on_virtual_codes():
    # t + t^-1 - 2 for the virtual trefoil
    assert writhe_polynomial(parse_gauss("O1+U2+U1+O2+")) == ((-1, 1), (0, -2), (1, 1))
    cancelled = 0
    for code in _virtual_codes(150):
        polynomial = writhe_polynomial(code)
        reduced = rii_reduce(code)
        assert writhe_polynomial(reduced) == polynomial, code
        cancelled += reduced is not code
        for r in range(1, len(code), 3):
            assert writhe_polynomial(code.rotated(r)) == polynomial, (code, r)
    assert cancelled > 20


def test_writhe_polynomial_is_zero_on_braid_closures():
    rng = random.Random(5)
    for _ in range(200):
        code = braid_knot_code(rng)
        assert writhe_polynomial(code) == (), code
    for p, q in ((3, 4), (3, 5), (5, 7)):
        assert writhe_polynomial(torus_code(p, q)) == ()


def test_writhe_polynomial_is_kept_by_every_move_on_realizable_codes():
    rng = random.Random(77)
    moves = 0
    for _ in range(60):
        code = braid_knot_code(rng)
        for bridge in enumerate_bridges(code):
            result = bridge_replace(code, bridge).result
            assert writhe_polynomial(result) == (), (code, bridge)
            assert writhe_polynomial(rii_reduce(result)) == (), (code, bridge)
            moves += 1
    assert moves > 300


def test_replace_can_change_the_writhe_polynomial_of_a_virtual_code():
    for code in _virtual_codes(20):
        for bridge in enumerate_bridges(code):
            outcome = bridge_replace(code, bridge)
            if writhe_polynomial(outcome.result) != writhe_polynomial(code):
                assert genus(outcome.result) == knotoid_genus(code, bridge) <= genus(code)
                return
    pytest.fail("no bridge replacement changed the writhe polynomial of a virtual code")


def test_replace_keeps_the_genus_but_not_the_virtual_knot_type():
    # On a virtual code a move still never raises the genus, lowers it
    # exactly on a bypass and gives the knotoid genus, but the odd writhe,
    # a virtual-knot invariant, can change.
    for code in _virtual_codes(20):
        for bridge in enumerate_bridges(code):
            outcome = bridge_replace(code, bridge)
            if odd_writhe(outcome.result) != odd_writhe(code):
                after = genus(outcome.result)
                assert after == knotoid_genus(code, bridge) <= genus(code)
                assert (after < genus(code)) == outcome.strict_decrease_predicted
                return
    pytest.fail("no bridge replacement changed the odd writhe of a virtual code")


# -- RII reduction -----------------------------------------------------------


def test_rii_parallel_fixture():
    code = parse_gauss(RII_PAIR)
    assert genus(code) == 1
    reduced = rii_reduce(code)
    assert reduced.n == 0
    assert genus(reduced) == 0


def test_rii_antiparallel_pair():
    assert rii_reduce(parse_gauss("O1+O2-U2-U1+")).n == 0


def test_rii_same_sign_pair_is_kept():
    code = parse_gauss("O1+O2+U2+U1+")
    assert rii_reduce(code) == code


def test_rii_trefoil_is_fixed_point():
    code = parse_gauss(TREFOIL)
    assert rii_reduce(code) == code


def test_rii_requires_signs():
    with pytest.raises(GaussCodeError, match="signed"):
        rii_reduce(parse_gauss("O1?U1?"))


def test_rii_is_rotation_invariant():
    rng = random.Random(21)
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 9))
        reduced = canonical_form(rii_reduce(code))
        for r in range(0, len(code), 2):
            assert canonical_form(rii_reduce(code.rotated(r))) == reduced


def test_rii_result_has_no_cancellable_pair():
    rng = random.Random(22)
    for _ in range(120):
        code = random_code(rng, rng.randint(1, 10))
        reduced = rii_reduce(code)
        assert not _cancellable_pairs(reduced)
        assert genus(reduced) <= genus(code)
        assert (code.n - reduced.n) % 2 == 0


def test_rii_preserves_knot_type_on_realizable_codes():
    rng = random.Random(4321)
    for _ in range(60):
        code = braid_knot_code(rng)
        assert knot_fingerprint(rii_reduce(code)) == knot_fingerprint(code)


def test_moves_reuse_the_circle_pass_of_their_code(monkeypatch):
    # Once genus has counted the circles of a code, neither the strictness
    # test nor a replacement of any of its bridges walks that code again.
    from gaussgenus import circles
    from gaussgenus import moves as moves_module

    real_circles = circles._circles
    walked = []

    def counted(c):
        if getattr(c, "_orbits", None) is None:
            walked.append(c)
        return real_circles(c)

    for module in (circles, moves_module):
        monkeypatch.setattr(module, "_circles", counted)
    rng = random.Random(4)
    moved = 0
    for code in [parse_gauss(EIGHT_20)] + [random_code(rng, n) for n in (1, 3, 7, 12, 20)]:
        genus(code)
        walked.clear()
        for bridge in enumerate_bridges(code, "both", 1):
            strictly_decreases(code, bridge)
            bridge_replace(code, bridge)
            moved += 1
        assert not any(c is code for c in walked)
    assert moved > 20
