"""Gauss codes: cyclic crossing sequences of knot and virtual-knot diagrams.

A code of length n is a cyclic word of 2n units.  Each unit records one pass
of the strand through a crossing: an over/under letter, the crossing label,
and the crossing sign.  Every label occurs exactly twice, once over and once
under, with equal signs.  Codes need not be planar-realizable; virtual
diagrams are first-class citizens.

Text format: units are ``O`` or ``U``, a label in ASCII decimal digits, then
``+`` or ``-`` (``?`` for codes without sign data, as produced by DT import).
Whitespace between units is ignored, e.g. ``O1-U2-O3-U1-O2-U3-`` is a
trefoil diagram.

Inside the package a unit is one packed int, ``label << 2 | under << 1 |
negative``; :class:`Unit` objects are built only where a caller reads them.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from typing import Iterable, Iterator, NamedTuple

OVER = "O"
UNDER = "U"

POSITIVE = 1
NEGATIVE = -1
UNSIGNED = 0

_SIGN_CHAR = {POSITIVE: "+", NEGATIVE: "-", UNSIGNED: "?"}

# Outside text spells an int in ASCII digits: re's \d and int() would also
# read the digits of other scripts, and int() reads '_' between digits.
_UNIT_RE = re.compile(r"([OU])([0-9]+)([+\-?])")
# A whole code; where a match stops short of the end, the text is malformed.
_CODE_RE = re.compile(r"\s*(?:[OU][0-9]+[+\-?]\s*)*")
_INT_RE = {False: re.compile(r"[0-9]+"), True: re.compile(r"[+-]?[0-9]+")}

# A packed unit is ``label << 2 | under << 1 | negative``.
_UNDER_BIT = 2
_NEGATIVE_BIT = 1
# (pass letter, sign) of the low two bits, in a signed and an unsigned code.
_KIND_SIGN = {
    True: ((OVER, POSITIVE), (OVER, NEGATIVE), (UNDER, POSITIVE), (UNDER, NEGATIVE)),
    False: ((OVER, UNSIGNED),) * 2 + ((UNDER, UNSIGNED),) * 2,
}
# The low two bits of a unit's pass letter and sign character in text.
_LOW_BITS = {"O+": 0, "O-": 1, "O?": 0, "U+": 2, "U-": 3, "U?": 2}


class GaussCodeError(ValueError):
    """Text or unit data violates the Gauss-code invariants."""


class InternalInvariantError(RuntimeError):
    """A postcondition that should be unbreakable was broken (a bug)."""


class Unit(NamedTuple):
    kind: str  # OVER or UNDER
    label: int
    sign: int  # POSITIVE, NEGATIVE or UNSIGNED

    def __str__(self) -> str:
        return f"{self.kind}{self.label}{_SIGN_CHAR[self.sign]}"

    def flipped(self) -> "Unit":
        """The same pass with over and under interchanged."""
        return Unit(UNDER if self.kind == OVER else OVER, self.label, self.sign)


def _label_key(label) -> tuple:
    # Orders int labels by value and any other object after them by its text,
    # so naming a bad label in an error never compares unlike types.
    return (0, label) if type(label) is int else (1, repr(label))


def _label_set(labels) -> tuple[frozenset[int], frozenset]:
    """The int labels and the other items, which name no crossing, of
    ``labels``; GaussCodeError where it is not a set of hashable items."""
    ints, others = [], []
    try:
        for x in labels:
            (ints if type(x) is int else others).append(x)
        return frozenset(ints), frozenset(others)
    except TypeError:  # not iterable, or holding unhashable items
        raise GaussCodeError(
            f"labels must be an iterable of ints, not {_shown(labels, quote=True)}"
        ) from None


def _require_code(code) -> None:
    """GaussCodeError unless ``code`` is a :class:`GaussCode`."""
    if not isinstance(code, GaussCode):
        raise GaussCodeError(f"code must be a GaussCode, not {type(code).__name__}")


def _require_int(name: str, value, positive: bool = False) -> None:
    if type(value) is not int:  # 1.5, "1" and True alike
        raise GaussCodeError(f"{name} must be an int, not {_shown(value, quote=True)}")
    if positive and value < 1:
        raise GaussCodeError(f"{name} must be at least 1")


def _shown(token, quote: bool = False) -> str:
    """``token``, a token of outside text, a label or an entry, as an error
    message echoes it: at most 20 characters (an int's digits after its
    sign), then "..." if it is longer.  Ints are written in digits; a str,
    or the ``repr`` of anything else, is quoted where ``quote``."""
    sign = ""
    if type(token) is int:
        # Its leading digits only, as str() refuses an int of more digits than
        # sys.get_int_max_str_digits(); 0.30102999 < log10(2) keeps at least 21.
        sign, token = "-" if token < 0 else "", abs(token)
        text = str(token // 10 ** max(int((token.bit_length() - 1) * 0.30102999) - 20, 0))
    else:
        text = repr(token) if quote and not isinstance(token, str) else str(token)
    shown = repr(text[:20]) if quote and isinstance(token, str) else text[:20]
    return sign + shown + ("..." if len(text) > 20 else "")


def _read_int(token: str, what: str, signed: bool = False, error: type = GaussCodeError) -> int:
    """The int that ``token`` spells in ASCII decimal digits, after a '+' or
    '-' only where ``signed``: the one rule for ints in outside text."""
    if _INT_RE[signed].fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise error(f"{what} is too long ({len(token.lstrip('+-'))} digits)") from None
    raise error(f"malformed {what} {_shown(token, quote=True)}")


# str() writes every int of at most this many bits: its digit limit is 0
# (none) or at least 640, and 2**2000 has 603 digits.
_PRINTABLE_BITS = 2000


def _require_printable(n: int, what: str) -> None:
    """GaussCodeError if str() refuses ``n`` >= 1 for having more digits
    than sys.get_int_max_str_digits(), worded as :func:`_read_int` words it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return
    digits = int((n.bit_length() - 1) * 0.30102999) + 1  # a lower bound: < log10(2)
    while n >= 10**digits:
        digits += 1
    if digits > limit:
        raise GaussCodeError(f"{what} is too long ({digits} digits)")


def _kind(c: int) -> str:
    """The pass letter of a packed unit."""
    return UNDER if c & _UNDER_BIT else OVER


def _units_of(packed: Iterable[int], signed: bool) -> tuple[Unit, ...]:
    """The :class:`Unit` objects of packed units."""
    low = _KIND_SIGN[signed]
    return tuple([Unit(low[c & 3][0], c >> 2, low[c & 3][1]) for c in packed])


def _pair(packed: tuple[int, ...], mixed: list[bool] | None = None) -> tuple[int, ...]:
    """The chord partner of every position, checking each label's passes.

    One scan pairs each chord at its label's second pass; a third pass marks
    the label unpairable.  The count, pass and sign checks then read one pair
    per label, in order of first appearance.  ``mixed`` flags the unsigned
    positions of a code that mixes signed and unsigned units; such a code is
    refused once its labels pass.
    """
    partner = [-1] * len(packed)
    first: dict[int, int] = {}  # label -> position of its first pass
    for i, c in enumerate(packed):
        j = first.setdefault(c >> 2, i)
        if j != i:  # the second pass pairs the chord, a third marks it unpairable
            partner[i], partner[j] = (j, i) if partner[j] == -1 else (-1, -2)
    for label, j in first.items():
        k = partner[j]
        if k < 0:  # seen once, or more than twice
            count = sum(c >> 2 == label for c in packed)
            raise GaussCodeError(
                f"label {_shown(label)} appears {count} time(s), expected exactly twice"
            )
        differ = packed[j] ^ packed[k]
        if not differ & _UNDER_BIT:
            raise GaussCodeError(
                f"label {_shown(label)} passes {_kind(packed[j])} twice (needs one O and one U)"
            )
        if differ & _NEGATIVE_BIT or (mixed is not None and mixed[j] != mixed[k]):
            raise GaussCodeError(f"label {_shown(label)} carries two different signs")
    if mixed is not None:
        bad = next(c >> 2 for c, flag in zip(packed, mixed) if flag)
        raise GaussCodeError(f"mixed signedness (label {_shown(bad)} is unsigned)")
    return tuple(partner)


class GaussCode:
    """An immutable, validated cyclic sequence of units.

    The stored linearization is arbitrary; no basepoint is semantic.  Two
    codes are cyclically equivalent iff their :func:`canonical_form` values
    compare equal.  ``packed`` holds one int per position, ``label << 2 |
    under << 1 | negative``, and ``partner`` the position of the other pass
    of the same chord; whether the signs are data is one flag for the whole
    code.  ``units``, the :class:`Unit` objects, is built on first use, as
    are the Seifert circles (:func:`gaussgenus.circles._circles`) and the
    hash; a derived code starts without them.
    """

    __slots__ = ("packed", "partner", "_signed", "_units", "_orbits", "_hash")

    def __init__(self, units: Iterable[Unit]):
        try:
            units = tuple(units)
        except TypeError:
            raise GaussCodeError(
                f"units must be an iterable of Units, not {type(units).__name__}"
            ) from None
        packed = []
        unsigned = []
        try:
            for i, u in enumerate(units):
                kind = u.kind
                if kind not in (OVER, UNDER):
                    raise GaussCodeError(
                        f"bad pass letter {_shown(kind, quote=True)} at position {i}"
                    )
                label = u.label
                if type(label) is not int or label < 1:  # 1.0 and True print apart
                    raise GaussCodeError(
                        f"label {_shown(label, quote=True)} at position {i} (ints from 1)"
                    )
                if label.bit_length() > _PRINTABLE_BITS:  # as parse_gauss refuses it
                    _require_printable(label, f"label at position {i}")
                sign = u.sign
                if type(sign) is not int or sign not in _SIGN_CHAR:  # True and 1.0 alike
                    raise GaussCodeError(
                        f"bad sign value {_shown(sign, quote=True)} at position {i}"
                    )
                packed.append(label << 2 | (kind == UNDER) << 1 | (sign == NEGATIVE))
                unsigned.append(sign == UNSIGNED)
        except (AttributeError, TypeError):
            # Plain tuples and other foreign objects lack the Unit fields.
            raise GaussCodeError(
                f"position {i} holds {_shown(units[i], quote=True)}, not a Unit"
            ) from None
        packed = tuple(packed)
        signed = not any(unsigned)
        mixed = unsigned if not signed and not all(unsigned) else None
        self._fill(packed, _pair(packed, mixed), signed)

    def _fill(self, packed: tuple[int, ...], partner: tuple[int, ...], signed: bool) -> None:
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "_signed", signed or not packed)  # the empty code is signed
        object.__setattr__(self, "_units", None)
        object.__setattr__(self, "_orbits", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _derived(
        cls, packed: tuple[int, ...], partner: tuple[int, ...], signed: bool
    ) -> "GaussCode":
        """A code mapped from a valid one without checks.

        Only for maps that keep every surviving chord whole: deleting whole
        chords, rotating, flipping passes, relabeling one to one.  ``partner``
        must be what :func:`_pair` would compute.
        """
        code = object.__new__(cls)
        code._fill(packed, partner, signed)
        return code

    @classmethod
    def _validated(
        cls, packed: tuple[int, ...], signed: bool, mixed: list[bool] | None = None
    ) -> "GaussCode":
        """A code of packed units from text or from a move, checked as
        :meth:`__init__` checks units; see :func:`_pair` for ``mixed``."""
        return cls._derived(packed, _pair(packed, mixed), signed)

    def __setattr__(self, name, value):
        raise AttributeError("GaussCode is immutable")

    def __reduce__(self):
        # Pickles and copies rebuild through __init__, so unpickled data is
        # validated like any outside input; the cached units, circles and
        # hash are not state.
        return (GaussCode, (self.units,))

    # -- basic views ---------------------------------------------------

    @property
    def units(self) -> tuple[Unit, ...]:
        """The :class:`Unit` of every position, built on first use."""
        if self._units is None:
            object.__setattr__(self, "_units", _units_of(self.packed, self._signed))
        return self._units

    @property
    def n(self) -> int:
        """Number of crossings (chords)."""
        return len(self.packed) // 2

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Unit]:
        return iter(self.units)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussCode)
            and self.packed == other.packed
            and self._signed == other._signed
        )

    def __hash__(self) -> int:
        # Search hashes each child twice, for the lookup and the insertion.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.packed))
        return self._hash

    def __repr__(self) -> str:
        return f"GaussCode({self.serialize()!r})"

    @property
    def signed(self) -> bool:
        """Whether the crossings carry signs; a valid code is never mixed."""
        return self._signed

    @property
    def labels(self) -> frozenset[int]:
        return frozenset([c >> 2 for c in self.packed])

    def positions_of(self, label: int) -> tuple[int, int]:
        """The two positions at which ``label`` is visited, in order (O(m))."""
        if type(label) is int:  # True and 1.0 name no crossing
            for i, c in enumerate(self.packed):
                if c >> 2 == label:
                    return i, self.partner[i]
        raise GaussCodeError(f"unknown label {_shown(label, quote=True)}")

    def successor(self, position: int) -> int:
        _require_int("position", position)
        if not self.packed:
            raise GaussCodeError("the empty code has no positions")
        return (position + 1) % len(self.packed)

    def rotated(self, offset: int) -> "GaussCode":
        """The same cyclic code linearized from ``offset``."""
        _require_int("offset", offset)
        m = len(self.packed)
        if m == 0:
            return self
        offset %= m
        return _rotate(self, offset, self.packed[offset:] + self.packed[:offset])

    def serialize(self, start: int = 0) -> str:
        """Emit the units once around the cycle from ``start``, no separators."""
        _require_int("start", start)
        m = len(self.packed)
        if m == 0:
            return ""
        start %= m
        heads, tails = "OOUU", ("+-+-" if self._signed else "????")  # by the low two bits
        packed = self.packed[start:] + self.packed[:start]
        return "".join([f"{heads[c & 3]}{c >> 2}{tails[c & 3]}" for c in packed])

    def __str__(self) -> str:
        return self.serialize()


def parse_gauss(text: str) -> GaussCode:
    """Parse the textual unit sequence into a validated code.

    >>> parse_gauss("O1-U2-O3-U1-O2-U3-").n
    3
    """
    if not isinstance(text, str):
        raise GaussCodeError(f"Gauss code text must be a str, not {type(text).__name__}")
    i = _CODE_RE.match(text).end()
    if i < len(text):
        snippet = text[i : i + 8]
        raise GaussCodeError(f"malformed unit at offset {i}: {snippet!r}")
    found = _UNIT_RE.findall(text)
    try:
        packed = tuple([int(digits) << 2 | _LOW_BITS[kind + sign] for kind, digits, sign in found])
    except ValueError:  # a label of more digits than int() reads
        for m in _UNIT_RE.finditer(text):
            _read_int(m.group(2), f"label at offset {m.start()}")
        raise
    if packed and min(packed) < 4:  # label 0
        i = next(i for i, c in enumerate(packed) if c < 4)
        raise GaussCodeError(f"label 0 at position {i} (ints from 1)")
    unsigned = text.count("?")  # every '?' of a well-formed text is a sign
    mixed = [sign == "?" for _, _, sign in found] if 0 < unsigned < len(packed) else None
    return GaussCode._validated(packed, not unsigned, mixed)


def canonical_rotation(code: GaussCode) -> int:
    """The rotation offset whose relabeled serialization is least.

    Relabeling is by first appearance from the offset; units compare by
    pass letter (O before U), then label, then sign ('+' before '-'), and
    ties go to the least offset.  Offsets are eliminated step by step: after
    step t the surviving offsets share the relabeled prefix of length t, so
    one step-to-label table serves all of them.  The cost is the sum of the
    survivor counts: about O(m) on random codes, O(m * c) on a code whose c
    rotations tie, and never more than the O(m^2) of scoring every rotation.
    """
    packed = code.packed
    m = len(packed)
    if m == 0:
        return 0
    partner = code.partner
    # One integer per unit orders like (kind, fresh label, sign): the label
    # goes in at weight 4, above the sign bit and below the pass letter.  An
    # unsigned code's signs are all equal, so its sign bits (all 0) order it
    # as its '?' ranks would.
    under_weight = 4 * (m + 1)
    rank = [(c & _UNDER_BIT) * (2 * (m + 1)) + (c & _NEGATIVE_BIT) for c in packed]
    # Every label is fresh at the first step, where it gets label 1: the
    # least ranks survive, and they are O units.
    low = min(rank)
    candidates = [r for r in range(m) if rank[r] == low]
    if len(candidates) == 1:
        return candidates[0]
    fresh_at = [1] + [0] * (m - 1)  # label given at each step of the shared prefix
    next_fresh = 2
    for t in range(1, m):
        best = None
        survivors: list[int] = []
        for r in candidates:
            p = r + t
            if p >= m:
                p -= m
            d = partner[p] - r  # step at which this unit's label appears
            if d < 0:
                d += m
            key = rank[p] + 4 * (fresh_at[d] if d < t else next_fresh)
            if best is None or key < best:
                best = key
                survivors = [r]
            elif key == best:
                survivors.append(r)
        if len(survivors) == 1:
            return survivors[0]
        candidates = survivors
        fresh_at[t] = (best % under_weight) >> 2
        if fresh_at[t] == next_fresh:
            next_fresh += 1
    return candidates[0]


def canonical_form(code: GaussCode) -> GaussCode:
    """Rotation-invariant representative: relabel by first appearance and
    pick the least rotation under the unit order (O < U, label, '+' < '-').

    Mirror images and orientation reversal are deliberately not identified.
    """
    _require_code(code)
    packed = code.packed
    if not packed:
        return code
    r = canonical_rotation(code)
    relabel: dict[int, int] = {}  # old label -> new label << 2
    out = tuple([
        relabel.setdefault(c >> 2, (len(relabel) + 1) << 2) | c & 3
        for c in packed[r:] + packed[:r]
    ])
    return _rotate(code, r, out)


def attach_signs(code: GaussCode, signs: Mapping[int, int]) -> GaussCode:
    """Give every crossing of an unsigned code an explicit sign."""
    _require_code(code)
    if code.signed and len(code) > 0:
        raise GaussCodeError("code is already signed")
    if not isinstance(signs, Mapping):
        raise GaussCodeError(f"signs must map labels to signs, not {type(signs).__name__}")
    # A key or sign equal to an int under ``==`` but not an int (1.0, True)
    # is refused, as labels are everywhere.
    for label, sign in signs.items():
        _require_int("label", label)
        if type(sign) is not int or sign not in (POSITIVE, NEGATIVE):
            raise GaussCodeError(f"sign for label {_shown(label)} must be positive or negative")
    out = []
    for c in code.packed:
        label = c >> 2
        if label not in signs:
            raise GaussCodeError(f"label {_shown(label)} unsigned")
        out.append(c | (signs[label] == NEGATIVE))
    if len(signs) != code.n:  # every label of the code has a sign, so a key names none
        unknown = min(signs.keys() - code.labels)
        raise GaussCodeError(f"unknown label {_shown(unknown, quote=True)}")
    return GaussCode._validated(tuple(out), signed=True)


def flip_passes(code: GaussCode) -> GaussCode:
    """Interchange over and under everywhere (labels and signs unchanged)."""
    _require_code(code)
    packed = tuple([c ^ _UNDER_BIT for c in code.packed])
    return GaussCode._derived(packed, code.partner, code.signed)


def _rotate(code: GaussCode, r: int, packed: tuple[int, ...]) -> GaussCode:
    # ``packed`` is ``code`` read from offset r, relabeled one to one or not.
    partner = code.partner
    m = len(partner)
    rotated = tuple([(p - r) % m for p in partner[r:] + partner[:r]])
    return GaussCode._derived(packed, rotated, code.signed)


def _restrict(code: GaussCode, keep: list[int]) -> GaussCode:
    """The code read only at the ascending positions ``keep``, which must
    hold both passes of every chord they touch."""
    packed = code.packed
    partner = code.partner
    index = [0] * len(packed)
    for t, p in enumerate(keep):
        index[p] = t
    return GaussCode._derived(
        tuple([packed[p] for p in keep]),
        tuple([index[partner[p]] for p in keep]),
        code.signed,
    )
