"""Parsing, validation, serialization and canonical forms."""

import copy
import pickle
import random
import sys

import pytest

from gaussgenus import (
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    UNSIGNED,
    DtCodeError,
    GaussCode,
    GaussCodeError,
    Unit,
    attach_signs,
    band_surface,
    boundary_components,
    bridge_at,
    bridge_replace,
    canonical_form,
    chord_removal_drops_genus,
    cycles,
    dt_to_gauss,
    enumerate_bridges,
    find_bridge,
    flip_passes,
    genus,
    genus_oracle,
    knotoid_genus,
    parse_dt,
    parse_gauss,
    remove_chords,
    rii_reduce,
    search,
    strictly_decreases,
)
from gaussgenus import codes
from helpers import EIGHT_20, TREFOIL, random_code


def test_parse_trefoil():
    code = parse_gauss(TREFOIL)
    assert code.n == 3
    assert code.units[0] == Unit(OVER, 1, NEGATIVE)
    assert code.units[3] == Unit(UNDER, 1, NEGATIVE)
    assert code.signed


def test_parse_empty():
    code = parse_gauss("")
    assert code.n == 0
    assert code.serialize() == ""


def test_parse_ignores_whitespace():
    spaced = "O1- U2-\tO3-\nU1- O2- U3-"
    assert parse_gauss(spaced).units == parse_gauss(TREFOIL).units


def test_parse_multidigit_labels():
    code = parse_gauss("O12+U12+")
    assert code.labels == {12}


def test_serialize_round_trip():
    code = parse_gauss(TREFOIL)
    assert code.serialize() == TREFOIL
    assert parse_gauss(code.serialize()).units == code.units


def test_serialize_from_rotation():
    assert parse_gauss(TREFOIL).serialize(start=3) == "U1-O2-U3-O1-U2-O3-"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("O1-U1+", "label 1"),          # sign mismatch
        ("O1-O1-", "label 1"),          # same pass twice
        ("O1-U2-U1-", "label 2"),       # label appears once
        ("O1-U2-O2-U1-O2-", "label 2"),  # label appears three times
        ("O1-U2-X3-", "offset 6"),      # malformed unit
        ("O0+U0+", "label 0"),          # labels start at 1
        ("O1-U1-O2?U2?", "signedness"),  # signed and unsigned mixed
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(GaussCodeError) as err:
        parse_gauss(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [None, 42, b"O1+U1+"], ids=["none", "int", "bytes"])
def test_parse_rejects_text_that_is_not_a_str(text):
    with pytest.raises(GaussCodeError, match=f"must be a str, not {type(text).__name__}"):
        parse_gauss(text)


@pytest.mark.parametrize(
    "units",
    [
        [("O", 1, 1), ("U", 1, 1)],  # plain tuples
        [Unit(OVER, 1, 1), "U1+"],  # a string
        [Unit(OVER, 1, 1), None],
    ],
)
def test_constructor_rejects_non_units(units):
    with pytest.raises(GaussCodeError, match="not a Unit"):
        GaussCode(units)


@pytest.mark.parametrize(
    "item, message",
    [
        (Unit(OVER, "x" * 50, 1), "label 'xxxxxxxxxxxxxxxxxxxx'... at position 0 (ints from 1)"),
        (Unit(OVER, list(range(30)), 1), "label [0, 1, 2, 3, 4, 5, 6... at position 0 (ints from 1)"),
        (("O", 10**30, POSITIVE), "position 0 holds ('O', 10000000000000..., not a Unit"),
        (object(), "position 0 holds <object object at 0x..., not a Unit"),
    ],
    ids=["str-label", "list-label", "tuple", "object"],
)
def test_foreign_items_are_echoed_in_at_most_20_characters(item, message):
    # A Unit whose label is not an int is a Unit with a bad label.
    with pytest.raises(GaussCodeError) as err:
        GaussCode([item, Unit(UNDER, 1, 1)])
    assert str(err.value) == message


@pytest.mark.parametrize(
    "units, position",
    [
        ([Unit(OVER, 1.0, 1), Unit(UNDER, 1.0, 1)], 0),  # would print as O1.0+U1.0+
        ([Unit(OVER, 1, 1), Unit(UNDER, 1.0, 1)], 1),
        ([Unit(OVER, True, 1), Unit(UNDER, True, 1)], 0),  # would equal O1+U1+
        ([Unit(OVER, "1", 1), Unit(UNDER, "1", 1)], 0),
    ],
)
def test_constructor_rejects_labels_that_are_not_ints(units, position):
    with pytest.raises(GaussCodeError, match=rf"at position {position} \(ints from 1\)"):
        GaussCode(units)


@pytest.mark.parametrize(
    "sign, shown",
    [(True, "True"), (1.0, "1.0"), (False, "False"), (0.0, "0.0"), ([], "[]")],
    ids=["true", "one-float", "false", "zero-float", "unhashable"],
)
def test_constructor_rejects_signs_that_are_not_ints(sign, shown):
    # True and 1.0 equal POSITIVE, False and 0.0 UNSIGNED, but none is a sign.
    with pytest.raises(GaussCodeError) as err:
        GaussCode([Unit("O", 1, sign), Unit("U", 1, sign)])
    assert str(err.value) == f"bad sign value {shown} at position 0"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda code: code.rotated(1.5), "offset"),
        (lambda code: code.rotated("1"), "offset"),
        (lambda code: code.rotated(True), "offset"),
        (lambda code: code.serialize("a"), "start"),
        (lambda code: code.successor(1.5), "position"),
    ],
    ids=["rotated-float", "rotated-str", "rotated-bool", "serialize-str", "successor-float"],
)
def test_offsets_that_are_not_ints_are_rejected(call, name):
    with pytest.raises(GaussCodeError, match=f"{name} must be an int, not "):
        call(parse_gauss(TREFOIL))


def test_successor_on_the_empty_code_is_refused():
    with pytest.raises(GaussCodeError, match="^the empty code has no positions$"):
        GaussCode([]).successor(0)


# int() refuses text of more than 4300 digits by default, where it has a limit.
int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)


@int_digit_limit
def test_parse_rejects_overlong_label():
    long = "9" * 5000
    with pytest.raises(GaussCodeError, match=r"label at offset 7 is too long \(5000 digits\)"):
        parse_gauss(f"O1+U1+ O{long}+U{long}+")


@int_digit_limit
def test_constructor_rejects_a_label_that_cannot_be_printed():
    # str() refuses an int of more than 4300 digits by default, so such a
    # code could not be serialized; with no limit it builds and prints.
    units = [Unit(OVER, 1, 1), Unit(UNDER, 1, 1), Unit(OVER, 10**5000, 1), Unit(UNDER, 10**5000, 1)]
    with pytest.raises(GaussCodeError) as err:
        GaussCode(units)
    assert str(err.value) == "label at position 2 is too long (5001 digits)"
    assert GaussCode([Unit(OVER, 2**2000, 1), Unit(UNDER, 2**2000, 1)]).n == 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(GaussCode(units).serialize()) == 6 + 2 * 5003
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "text, offset",
    [("O\u0661-U\u0661-", 0), ("O1+U1+ O\uff12+U\uff12+", 7)],
    ids=["arabic-indic", "fullwidth"],
)
def test_parse_reads_only_ascii_digits(text, offset):
    # re's \d and int() read the digits of every script; labels are ASCII.
    with pytest.raises(GaussCodeError, match=f"malformed unit at offset {offset}: "):
        parse_gauss(text)


@pytest.mark.parametrize(
    "token, signed, message",
    [
        ("\u0663", False, "malformed count '\u0663'"),
        ("1_0", False, "malformed count '1_0'"),
        ("+2", False, "malformed count '+2'"),
        ("-2", False, "malformed count '-2'"),
        (" 2", False, "malformed count ' 2'"),
        ("", False, "malformed count ''"),
        ("2_0", True, "malformed count '2_0'"),
        ("+-2", True, "malformed count '+-2'"),
        ("x" * 21, False, f"malformed count {'x' * 20!r}..."),
    ],
    ids=["arabic-indic", "underscore", "plus", "minus", "space", "empty",
         "signed-underscore", "two-signs", "clipped"],
)
def test_read_int_refuses_all_but_ascii_digits(token, signed, message):
    with pytest.raises(GaussCodeError) as err:
        codes._read_int(token, "count", signed)
    assert str(err.value) == message


def test_read_int_reads_ascii_digits_and_a_sign_where_allowed():
    assert codes._read_int("007", "count") == 7
    assert codes._read_int("+4", "entry", signed=True) == 4
    assert codes._read_int("-12", "entry", signed=True) == -12
    with pytest.raises(DtCodeError, match="^malformed entry 'x'$"):
        codes._read_int("x", "entry", True, DtCodeError)


@int_digit_limit
def test_read_int_names_an_overlong_token_by_its_length():
    with pytest.raises(GaussCodeError) as err:
        codes._read_int("-" + "9" * 5000, "entry", signed=True)
    assert str(err.value) == "entry is too long (5000 digits)"


# A label or entry of more than 20 digits is echoed by its first 20 and "...".
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_gauss("O1+U1+O" + "9" * 4000 + "+"), f"label {'9' * 20}... appears 1 "),
        (lambda: parse_gauss("O1+U1+O" + "9" * 20 + "+"), f"label {'9' * 20} appears 1 "),
        (lambda: parse_gauss(f"O{'7' * 3000}+U{'7' * 3000}-"), f"label {'7' * 20}... carries "),
        (lambda: parse_dt("2 " + "4" * 4000), f"out-of-range {'4' * 20}..., missing 4"),
        (lambda: remove_chords(parse_gauss("O1-U1-"), [10**4000]), f"unknown label 1{'0' * 19}..."),
        # str() refuses an int of more than 4300 digits
        (lambda: parse_gauss("O1-U1-").positions_of(10**5000), f"unknown label 1{'0' * 19}..."),
    ],
    ids=["unpaired", "unpaired-20-digits", "two-signs", "dt-entry", "remove-chords", "10**5000"],
)
def test_long_labels_are_clipped_in_messages(call, message):
    with pytest.raises((GaussCodeError, DtCodeError)) as err:
        call()
    assert str(err.value).startswith(message) and len(str(err.value)) < 80, str(err.value)[:200]


def test_unsigned_round_trip():
    code = parse_gauss("O1?U2?O2?U1?")
    assert not code.signed
    assert code.serialize() == "O1?U2?O2?U1?"


def test_canonical_is_rotation_invariant_on_trefoil():
    code = parse_gauss(TREFOIL)
    forms = {canonical_form(code.rotated(r)).serialize() for r in range(6)}
    assert forms == {TREFOIL}


def test_canonical_relabels_by_first_appearance():
    assert canonical_form(parse_gauss("O7+U9-U7+O9-")).serialize() == "O1+U2-U1+O2-"


def test_canonical_empty():
    empty = parse_gauss("")
    assert canonical_form(empty) is empty


def test_canonical_properties_random():
    rng = random.Random(2024)
    for _ in range(150):
        code = random_code(rng, rng.randint(1, 9))
        canon = canonical_form(code)
        assert canonical_form(canon) == canon
        for r in range(len(code)):
            assert canonical_form(code.rotated(r)) == canon


def test_validation_rejects_perturbations():
    rng = random.Random(5)
    for _ in range(80):
        code = random_code(rng, rng.randint(1, 8))
        units = list(code.units)
        i = rng.randrange(len(units))
        u = units[i]

        flipped = list(units)
        flipped[i] = u.flipped()
        with pytest.raises(GaussCodeError):
            GaussCode(flipped)

        resigned = list(units)
        resigned[i] = Unit(u.kind, u.label, -u.sign)
        with pytest.raises(GaussCodeError):
            GaussCode(resigned)

        other = rng.choice([x.label for x in units if x.label != u.label] or [u.label + 1])
        relabeled = list(units)
        relabeled[i] = Unit(u.kind, other, u.sign)
        with pytest.raises(GaussCodeError):
            GaussCode(relabeled)


def test_attach_signs():
    bare = parse_gauss("O1?U2?O3?U1?O2?U3?")
    signed = attach_signs(bare, {1: NEGATIVE, 2: NEGATIVE, 3: NEGATIVE})
    assert signed.serialize() == TREFOIL


def test_attach_signs_empty():
    assert attach_signs(parse_gauss(""), {}).n == 0


def test_attach_signs_partial_map():
    bare = parse_gauss("O1?U2?O3?U1?O2?U3?")
    with pytest.raises(GaussCodeError, match="label 2 unsigned"):
        attach_signs(bare, {1: NEGATIVE, 3: NEGATIVE})


def test_attach_signs_refuses_a_label_of_no_crossing():
    # worded as remove_chords words it
    bare = parse_gauss("O1?U2?O3?U1?O2?U3?")
    with pytest.raises(GaussCodeError, match="^unknown label 7$"):
        attach_signs(bare, {1: POSITIVE, 2: POSITIVE, 3: POSITIVE, 7: NEGATIVE})
    with pytest.raises(GaussCodeError, match="^unknown label 7$"):
        attach_signs(parse_gauss(""), {7: NEGATIVE})


def test_attach_signs_rejects_unknown_value():
    with pytest.raises(GaussCodeError):
        attach_signs(parse_gauss("O1?U1?"), {1: UNSIGNED})


@pytest.mark.parametrize(
    "signs",
    [
        {1.0: NEGATIVE},  # equal to 1 under ==, but no label
        {True: NEGATIVE},
        {1: True},  # equal to POSITIVE under ==, but no sign
        {1: -1.0},
    ],
)
def test_attach_signs_rejects_keys_and_signs_that_only_compare_equal(signs):
    # These once signed label 1 (True as '+').
    with pytest.raises(GaussCodeError):
        attach_signs(parse_gauss("O1?U1?"), signs)


def test_attach_signs_rejects_signed_input():
    with pytest.raises(GaussCodeError):
        attach_signs(parse_gauss(TREFOIL), {1: NEGATIVE, 2: NEGATIVE, 3: NEGATIVE})


def test_flip_passes_is_involution():
    code = parse_gauss(TREFOIL)
    assert flip_passes(code).serialize() == "U1-O2-U3-O1-U2-O3-"
    assert flip_passes(flip_passes(code)) == code


def test_code_is_immutable():
    code = parse_gauss(TREFOIL)
    with pytest.raises(AttributeError):
        code.units = ()


def test_code_pickles_and_copies():
    from gaussgenus import genus

    code = parse_gauss(TREFOIL)
    genus(code)  # fills the circle cache, which is not part of the state
    for twin in (pickle.loads(pickle.dumps(code)), copy.copy(code), copy.deepcopy(code)):
        assert twin == code
        assert twin.partner == code.partner
        assert twin.signed is code.signed
        assert twin._orbits is None

    class Forged:  # unpickles as GaussCode built from one lone unit
        def __reduce__(self):
            return (GaussCode, ((Unit(OVER, 1, NEGATIVE),),))

    with pytest.raises(GaussCodeError, match="appears 1 time"):
        pickle.loads(pickle.dumps(Forged()))


@pytest.mark.parametrize(
    "call",
    [
        lambda code: GaussCode(None),
        lambda code: GaussCode(5),
        lambda code: remove_chords(code, 5),
        lambda code: remove_chords(code, [[1]]),
        lambda code: find_bridge(code, [[1]]),
        lambda code: attach_signs(parse_gauss("O1?U2?O3?U1?O2?U3?"), None),
    ],
    ids=[
        "units-none",
        "units-int",
        "labels-int",
        "labels-unhashable",
        "bridge-labels-unhashable",
        "signs-none",
    ],
)
def test_arguments_of_the_wrong_shape_raise_gauss_code_error(call):
    with pytest.raises(GaussCodeError):
        call(parse_gauss(TREFOIL))


def test_signed_and_unsigned_codes_with_the_same_letters_differ():
    signed = parse_gauss("O1+U2+O3+U1+O2+U3+")
    unsigned = parse_gauss("O1?U2?O3?U1?O2?U3?")
    assert signed.packed == unsigned.packed  # '+' and '?' both leave the sign bit clear
    assert signed != unsigned
    assert parse_gauss("") == GaussCode(()) and parse_gauss("").signed


def test_units_are_built_on_first_read_and_kept():
    code = parse_gauss(EIGHT_20)
    assert code._units is None
    units = code.units
    assert units is code.units and units == tuple(code)
    assert str(code) == "".join(str(u) for u in units) == EIGHT_20
    for derived in (canonical_form(code), code.rotated(3), flip_passes(code)):
        assert derived._units is None  # a derived code reads its own packed ints


def test_codes_survive_pickling_unchanged():
    rng = random.Random(2357)
    codes = [random_code(rng, rng.randint(0, 30), signed=rng.random() < 0.7) for _ in range(60)]
    for code in codes + [parse_gauss(EIGHT_20)]:
        twin = pickle.loads(pickle.dumps(code))
        assert twin == code
        assert (twin.packed, twin.partner, twin.signed) == (code.packed, code.partner, code.signed)
        assert twin.serialize() == code.serialize()


def test_hash_is_cached_on_the_code():
    code = parse_gauss(EIGHT_20)
    assert code._hash is None
    assert hash(code) == hash(code.packed) == code._hash
    for derived in (canonical_form(code), code.rotated(3), flip_passes(code)):
        assert derived._hash is None  # a derived code hashes its own units
        assert hash(derived) == hash(derived.packed)
    assert pickle.loads(pickle.dumps(code))._hash is None


_BRIDGE = bridge_at(parse_gauss(TREFOIL), 0, 1)

# Each public entry that takes a code, called with a foreign object in its
# place, and the error it must raise.
_CODE_ENTRIES = {
    "attach_signs": (lambda x: attach_signs(x, {1: POSITIVE}), GaussCodeError),
    "band_surface": (band_surface, GaussCodeError),
    "boundary_components": (boundary_components, GaussCodeError),
    "bridge_at": (lambda x: bridge_at(x, 0, 1), GaussCodeError),
    "bridge_replace": (lambda x: bridge_replace(x, _BRIDGE), GaussCodeError),
    "canonical_form": (canonical_form, GaussCodeError),
    "chord_removal_drops_genus": (lambda x: chord_removal_drops_genus(x, 1), GaussCodeError),
    "cycles": (cycles, GaussCodeError),
    "dt_to_gauss": (dt_to_gauss, DtCodeError),
    "enumerate_bridges": (enumerate_bridges, GaussCodeError),
    "find_bridge": (lambda x: find_bridge(x, [1]), GaussCodeError),
    "flip_passes": (flip_passes, GaussCodeError),
    "genus": (genus, GaussCodeError),
    "genus_oracle": (genus_oracle, GaussCodeError),
    "knotoid_genus": (lambda x: knotoid_genus(x, _BRIDGE), GaussCodeError),
    "remove_chords": (lambda x: remove_chords(x, [1]), GaussCodeError),
    "rii_reduce": (rii_reduce, GaussCodeError),
    "search": (search, GaussCodeError),
    # None is the default config, so the config case takes a str for it.
    "search-config": (lambda x: search(parse_gauss(TREFOIL), x or "cfg"), GaussCodeError),
    "strictly_decreases": (lambda x: strictly_decreases(x, _BRIDGE), GaussCodeError),
}


@pytest.mark.parametrize("foreign", [None, TREFOIL], ids=["none", "text"])
@pytest.mark.parametrize("entry", sorted(_CODE_ENTRIES))
def test_entries_refuse_a_foreign_code(entry, foreign):
    call, error = _CODE_ENTRIES[entry]
    with pytest.raises(error, match="must be a"):
        call(foreign)
