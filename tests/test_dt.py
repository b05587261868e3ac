"""DT-code parsing and conversion."""

import random
import sys

import pytest

from gaussgenus import (
    DtCode,
    DtCodeError,
    GaussCodeError,
    dt_to_gauss,
    flip_passes,
    genus,
    parse_dt,
)
from helpers import DT_GENUS3, DT_GENUS5, DT_GENUS5_MISPRINT


def test_parse_valid_16_entry_code():
    dt = parse_dt(DT_GENUS3)
    assert dt.n == 16
    assert dt.serialize() == DT_GENUS3


def test_parse_minimal_alternating_code():
    code = dt_to_gauss(parse_dt("4 6 2"))
    kinds = [u.kind for u in code.units]
    assert kinds == ["O", "U"] * 3  # all-positive DT codes alternate
    assert genus(code) == 1


def test_misprinted_code_is_rejected_with_both_defects():
    with pytest.raises(DtCodeError) as err:
        parse_dt(DT_GENUS5_MISPRINT)
    assert "duplicate 26" in str(err.value)
    assert "missing 16" in str(err.value)


def test_dt_errors_are_gauss_code_errors():
    # one except clause catches every error of bad input
    assert issubclass(DtCodeError, GaussCodeError) and issubclass(DtCodeError, ValueError)
    with pytest.raises(GaussCodeError, match="^odd entry 3$"):
        parse_dt("3 2")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("3 2", "odd entry 3"),
        ("0 2", "zero entry"),
        ("2 2", "duplicate 2"),
        ("2 8", "out-of-range 8"),
        ("x", "malformed entry 'x'"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(DtCodeError) as err:
        parse_dt(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [None, b"4 6 2"], ids=["none", "bytes"])
def test_parse_rejects_text_that_is_not_a_str(text):
    # Bytes split and convert like text, but are refused all the same.
    with pytest.raises(DtCodeError, match=f"must be a str, not {type(text).__name__}"):
        parse_dt(text)


def test_empty_dt_code():
    assert dt_to_gauss(parse_dt("")).n == 0


def test_sixteen_crossing_genus_fixtures():
    assert genus(dt_to_gauss(parse_dt(DT_GENUS3))) == 3
    assert genus(dt_to_gauss(parse_dt(DT_GENUS5))) == 5


def test_output_is_unsigned_and_valid():
    code = dt_to_gauss(parse_dt(DT_GENUS3))
    assert not code.signed
    assert code.n == 16


def test_genus_does_not_depend_on_pass_convention():
    rng = random.Random(606)
    for _ in range(60):
        n = rng.randint(1, 10)
        entries = [v * rng.choice((1, -1)) for v in rng.sample(range(2, 2 * n + 1, 2), n)]
        code = dt_to_gauss(parse_dt(" ".join(map(str, entries))))
        assert genus(code) == genus(flip_passes(code))


@pytest.mark.parametrize("entries", [(4.0, 2.0), (True,), ("2",)])
def test_entries_must_be_ints(entries):
    # 4.0 would serialize as text that parse_dt rejects.
    with pytest.raises(DtCodeError, match="is not an int"):
        DtCode(entries)


@pytest.mark.parametrize("entries, shown", [(None, "NoneType"), (4, "int")])
def test_entries_must_be_iterable(entries, shown):
    with pytest.raises(DtCodeError) as err:
        DtCode(entries)
    assert str(err.value) == f"entries must be an iterable of ints, not {shown}"


def test_entries_are_kept_as_a_tuple():
    # A list would leave the code unhashable and unequal to its tuple twin.
    code = DtCode([4, 6, 2])
    assert code.entries == (4, 6, 2) and type(code.entries) is tuple
    assert code == DtCode((4, 6, 2)) and hash(code) == hash(DtCode((4, 6, 2)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u0664 -2", "malformed entry '\u0664'"),  # an Arabic-Indic 4
        ("+4 2_0", "malformed entry '2_0'"),
    ],
    ids=["arabic-indic", "underscore"],
)
def test_entries_are_ascii_digits(text, message):
    # int() reads both "\u0664" and "2_0"; a DT entry is ASCII digits only.
    with pytest.raises(DtCodeError) as err:
        parse_dt(text)
    assert str(err.value) == message


def test_entries_keep_their_sign():
    assert parse_dt("+4 -2").entries == (4, -2)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
def test_overlong_entry_gets_a_short_message():
    with pytest.raises(DtCodeError) as err:
        parse_dt("2 -" + "4" * 5000)
    assert str(err.value) == "entry is too long (5000 digits)"
