"""Dowker-Thistlethwaite codes and their conversion to unsigned Gauss codes.

A DT code for n crossings is a sequence of n nonzero signed even integers
whose absolute values are exactly 2, 4, ..., 2n: entry i pairs the odd visit
2i-1 with the even visit |entry_i|.  A negative entry means the strand goes
over at the even visit (the Knotscape convention).  Crossing signs cannot be
recovered without a planar embedding, so converted codes are unsigned; genus
and bridge enumeration work on them directly, and attach_signs bridges the
gap to the signed operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import OVER, UNDER, UNSIGNED, GaussCode, GaussCodeError, Unit, _read_int, _shown


class DtCodeError(GaussCodeError):
    """Text or entries violate the DT-code invariants; a GaussCodeError, as
    every error of bad input is."""


@dataclass(frozen=True)
class DtCode:
    entries: tuple[int, ...]

    def __post_init__(self):
        try:
            entries = tuple(self.entries)
        except TypeError:
            raise DtCodeError(
                f"entries must be an iterable of ints, not {type(self.entries).__name__}"
            ) from None
        object.__setattr__(self, "entries", entries)  # a list would leave it unhashable
        problems = []
        for e in self.entries:
            if type(e) is not int:  # 4.0 would print as text parse_dt rejects
                raise DtCodeError(f"entry {_shown(e, quote=True)} is not an int")
            if e == 0:
                raise DtCodeError("zero entry")
            if e % 2:
                raise DtCodeError(f"odd entry {_shown(e)}")
        n = len(self.entries)
        expected = set(range(2, 2 * n + 1, 2))
        seen: dict[int, int] = {}
        for e in self.entries:
            seen[abs(e)] = seen.get(abs(e), 0) + 1
        problems += [f"duplicate {_shown(v)}" for v in sorted(seen) if seen[v] > 1]
        problems += [f"out-of-range {_shown(v)}" for v in sorted(seen) if v not in expected]
        problems += [f"missing {v}" for v in sorted(expected - seen.keys())]
        if problems:
            raise DtCodeError(", ".join(problems))

    @property
    def n(self) -> int:
        return len(self.entries)

    def serialize(self) -> str:
        return " ".join(str(e) for e in self.entries)


def parse_dt(text: str) -> DtCode:
    """Parse whitespace-separated signed even integers in ASCII digits."""
    if not isinstance(text, str):
        raise DtCodeError(f"DT code text must be a str, not {type(text).__name__}")
    entries = [_read_int(t, "entry", signed=True, error=DtCodeError) for t in text.split()]
    return DtCode(tuple(entries))


def dt_to_gauss(dt: DtCode) -> GaussCode:
    """Unsigned Gauss code of a DT code.

    Crossing i is labeled by its odd visit order; a negative entry puts the
    over pass at the even visit.  Genus does not depend on that convention,
    bridge kinds do.
    """
    if not isinstance(dt, DtCode):
        raise DtCodeError(f"DT code must be a DtCode, not {type(dt).__name__}")
    units: list[Unit | None] = [None] * (2 * dt.n)
    for i, e in enumerate(dt.entries, start=1):
        over_at_even = e < 0
        units[abs(e) - 1] = Unit(OVER if over_at_even else UNDER, i, UNSIGNED)
        units[2 * i - 2] = Unit(UNDER if over_at_even else OVER, i, UNSIGNED)
    return GaussCode(units)
