"""Gauss codes: cyclic crossing sequences of knot and virtual-knot diagrams.

A code of length n is a cyclic word of 2n units.  Each unit records one pass
of the strand through a crossing: an over/under letter, the crossing label,
and the crossing sign.  Every label occurs exactly twice, once over and once
under, with equal signs.  Codes need not be planar-realizable; virtual
diagrams are first-class citizens.

Text format: units are ``O`` or ``U``, decimal digits, then ``+`` or ``-``
(``?`` for codes without sign data, as produced by DT import).  Whitespace
between units is ignored, e.g. ``O1-U2-O3-U1-O2-U3-`` is a trefoil diagram.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple

OVER = "O"
UNDER = "U"

POSITIVE = 1
NEGATIVE = -1
UNSIGNED = 0

_SIGN_CHAR = {POSITIVE: "+", NEGATIVE: "-", UNSIGNED: "?"}
_CHAR_SIGN = {"+": POSITIVE, "-": NEGATIVE, "?": UNSIGNED}
_SIGN_RANK = {POSITIVE: 0, NEGATIVE: 1, UNSIGNED: 2}

_UNIT_RE = re.compile(r"([OU])(\d+)([+\-?])")
# A whole code; where a match stops short of the end, the text is malformed.
_CODE_RE = re.compile(r"\s*(?:[OU]\d+[+\-?]\s*)*")


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


def unit_order_key(unit: Unit) -> tuple[int, int, int]:
    """Total order on units: O before U, then label, then '+' before '-'."""
    return (0 if unit.kind == OVER else 1, unit.label, _SIGN_RANK[unit.sign])


class GaussCode:
    """An immutable, validated cyclic sequence of units.

    The stored linearization is arbitrary; no basepoint is semantic.  Two
    codes are cyclically equivalent iff their :func:`canonical_form` values
    compare equal.  Its Seifert circles (:func:`gaussgenus.cycles._circles`)
    and its hash are kept on it after their first use; a derived code starts
    without them.  Building one from units is a single scan that checks each
    unit and pairs each chord at its second pass; the per-label checks then
    read one pair per label.
    """

    __slots__ = ("units", "partner", "_orbits", "_hash")

    def __init__(self, units: Iterable[Unit]):
        units = tuple(units)
        partner = [-1] * len(units)
        first: dict[int, int] = {}  # label -> position of its first pass
        try:
            for i, u in enumerate(units):
                if u.kind not in (OVER, UNDER):
                    raise GaussCodeError(f"bad pass letter {u.kind!r} at position {i}")
                label = u.label
                if label < 1 or type(label) is not int:  # 1.0 and True print apart
                    raise GaussCodeError(f"label {label!r} at position {i} (ints from 1)")
                if u.sign not in _SIGN_CHAR:
                    raise GaussCodeError(f"bad sign value {u.sign!r} at position {i}")
                j = first.setdefault(label, i)
                if j != i:  # the second pass pairs the chord, a third marks it unpairable
                    partner[i], partner[j] = (j, i) if partner[j] == -1 else (-1, -2)
        except (AttributeError, TypeError):
            # Plain tuples and other foreign objects lack the Unit fields or
            # carry fields of the wrong type.
            raise GaussCodeError(f"position {i} holds {units[i]!r}, not a Unit") from None
        for label, j in first.items():
            if partner[j] < 0:  # seen once, or more than twice
                count = sum(u.label == label for u in units)
                raise GaussCodeError(
                    f"label {label} appears {count} time(s), expected exactly twice"
                )
            a, b = units[j], units[partner[j]]
            if a.kind == b.kind:
                raise GaussCodeError(
                    f"label {label} passes {a.kind} twice (needs one O and one U)"
                )
            if a.sign != b.sign:
                raise GaussCodeError(f"label {label} carries two different signs")
        if len({units[j].sign == UNSIGNED for j in first.values()}) > 1:
            bad = next(u.label for u in units if u.sign == UNSIGNED)
            raise GaussCodeError(f"mixed signedness (label {bad} is unsigned)")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "partner", tuple(partner))
        object.__setattr__(self, "_orbits", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _derived(cls, units: tuple[Unit, ...], partner: tuple[int, ...]) -> "GaussCode":
        """A code mapped from a valid one without checks.

        Only for maps that keep every surviving chord whole: deleting whole
        chords, rotating, flipping passes, relabeling one to one.  ``partner``
        must be what :meth:`__init__` would compute.
        """
        code = object.__new__(cls)
        object.__setattr__(code, "units", units)
        object.__setattr__(code, "partner", partner)
        object.__setattr__(code, "_orbits", None)
        object.__setattr__(code, "_hash", None)
        return code

    def __setattr__(self, name, value):
        raise AttributeError("GaussCode is immutable")

    def __reduce__(self):
        # Pickles and copies rebuild through __init__, so unpickled data is
        # validated like any outside input; the cached circles and hash are
        # not state.
        return (GaussCode, (self.units,))

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of crossings (chords)."""
        return len(self.units) // 2

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[Unit]:
        return iter(self.units)

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussCode) and self.units == other.units

    def __hash__(self) -> int:
        # Search hashes each child twice, for the lookup and the insertion.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.units))
        return self._hash

    def __repr__(self) -> str:
        return f"GaussCode({self.serialize()!r})"

    @property
    def signed(self) -> bool:
        """Whether the crossings carry signs; a valid code is never mixed."""
        return not self.units or self.units[0].sign != UNSIGNED

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(u.label for u in self.units)

    def positions_of(self, label: int) -> tuple[int, int]:
        """The two positions at which ``label`` is visited, in order (O(m))."""
        for i, u in enumerate(self.units):
            if u.label == label:
                return i, self.partner[i]
        raise GaussCodeError(f"unknown label {label}")

    def successor(self, position: int) -> int:
        return (position + 1) % len(self.units)

    def rotated(self, offset: int) -> "GaussCode":
        """The same cyclic code linearized from ``offset``."""
        m = len(self.units)
        if m == 0:
            return self
        offset %= m
        return _rotate(self, offset, self.units[offset:] + self.units[:offset])

    def serialize(self, start: int = 0) -> str:
        """Emit the units once around the cycle from ``start``, no separators."""
        m = len(self.units)
        if m == 0:
            return ""
        return "".join(str(self.units[(start + t) % m]) for t in range(m))

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
    try:
        units = [
            Unit(kind, int(digits), _CHAR_SIGN[sign])
            for kind, digits, sign in _UNIT_RE.findall(text)
        ]
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits().
        for m in _UNIT_RE.finditer(text):
            digits = m.group(2)
            try:
                int(digits)
            except ValueError:
                raise GaussCodeError(
                    f"label at offset {m.start()} is too long ({len(digits)} digits)"
                ) from None
        raise
    return GaussCode(units)


def canonical_rotation(code: GaussCode) -> int:
    """The rotation offset whose relabeled serialization is least.

    Relabeling is by first appearance from the offset; units compare as in
    :func:`unit_order_key`, and ties go to the least offset.  Offsets are
    eliminated step by step: after step t the surviving offsets share the
    relabeled prefix of length t, so one step-to-label table serves all of
    them.  The cost is the sum of the survivor counts: about O(m) on random
    codes, O(m * c) on a code whose c rotations tie, and never more than the
    O(m^2) of scoring every rotation.
    """
    units = code.units
    m = len(units)
    if m == 0:
        return 0
    partner = code.partner
    # One integer per unit orders like (kind, fresh label, sign): the label
    # goes in at weight 4, above the sign rank and below the pass letter.
    under_weight = 4 * (m + 1)
    rank = [(under_weight if u.kind == UNDER else 0) + _SIGN_RANK[u.sign] for u in units]
    fresh_at = [0] * m  # label given at each step of the shared prefix
    next_fresh = 1
    candidates = range(m)
    for t in range(m):
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
    m = len(code.units)
    if m == 0:
        return code
    r = canonical_rotation(code)
    relabel: dict[int, int] = {}
    out = tuple([
        Unit(u.kind, relabel.setdefault(u.label, len(relabel) + 1), u.sign)
        for u in code.units[r:] + code.units[:r]
    ])
    return _rotate(code, r, out)


def attach_signs(code: GaussCode, signs: Mapping[int, int]) -> GaussCode:
    """Give every crossing of an unsigned code an explicit sign."""
    if code.signed and len(code) > 0:
        raise GaussCodeError("code is already signed")
    out = []
    for u in code.units:
        if u.label not in signs:
            raise GaussCodeError(f"label {u.label} unsigned")
        sign = signs[u.label]
        if sign not in (POSITIVE, NEGATIVE):
            raise GaussCodeError(f"sign for label {u.label} must be positive or negative")
        out.append(Unit(u.kind, u.label, sign))
    return GaussCode(out)


def flip_passes(code: GaussCode) -> GaussCode:
    """Interchange over and under everywhere (labels and signs unchanged)."""
    units = tuple([u.flipped() for u in code.units])
    return GaussCode._derived(units, code.partner)


def _rotate(code: GaussCode, r: int, units: tuple[Unit, ...]) -> GaussCode:
    # ``units`` is ``code`` read from offset r, relabeled one to one or not.
    partner = code.partner
    m = len(partner)
    rotated = tuple([(p - r) % m for p in partner[r:] + partner[:r]])
    return GaussCode._derived(units, rotated)


def _restrict(code: GaussCode, keep: list[int]) -> GaussCode:
    """The code read only at the ascending positions ``keep``, which must
    hold both passes of every chord they touch."""
    index = [0] * len(code.units)
    for t, p in enumerate(keep):
        index[p] = t
    units = code.units
    partner = code.partner
    return GaussCode._derived(
        tuple([units[p] for p in keep]),
        tuple([index[partner[p]] for p in keep]),
    )
