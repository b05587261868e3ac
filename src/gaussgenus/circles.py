"""Seifert-circle decomposition and diagram genus of a Gauss code.

Smoothing every crossing of an n-crossing diagram coherently with the
orientation splits it into s circles; the spanning surface built on them has
genus (n - s + 1) / 2.  On the code, a circle corresponds to an orbit of
sigma(i) = successor(partner(i)): jump the chord, then step one unit along
the cycle.  The bare unknot (empty code) counts as one circle.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import (
    _UNDER_BIT,
    GaussCode,
    GaussCodeError,
    InternalInvariantError,
    Unit,
    _label_key,
    _label_set,
    _require_code,
    _restrict,
    _shown,
    _units_of,
)


def sigma_orbit(code: GaussCode, start: int) -> tuple[int, ...]:
    """Positions visited from ``start`` under jump-to-partner-then-step."""
    partner = code.partner
    m = len(partner)
    orbit = [start]
    x = (partner[start] + 1) % m
    while x != start:
        orbit.append(x)
        x = (partner[x] + 1) % m
    return tuple(orbit)


def _recorded(code: GaussCode, orbit: tuple[int, ...]) -> tuple[Unit, ...]:
    # Recorded walk from the least phase: each orbit position's unit followed
    # by its chord partner's.  Distinct positions carry distinct (pass,
    # label) pairs, so the phase whose first unit is least gives the least
    # walk; among units of one pass letter, packed ints order by label.
    packed = code.packed
    partner = code.partner
    k = min(range(len(orbit)), key=lambda t: (packed[orbit[t]] & _UNDER_BIT, packed[orbit[t]]))
    walk = [packed[y] for x in orbit[k:] + orbit[:k] for y in (x, partner[x])]
    return _units_of(walk, code.signed)


def _circles(code: GaussCode) -> tuple[tuple[int, ...], int]:
    """The circle index of every position, and the circle count s.

    The first call makes one pass over ``code.partner`` and keeps the result
    on the code for every later question about it.  Circles are numbered in
    the order of their least position; :func:`cycles` lists them that way.
    """
    if code._orbits is not None:
        return code._orbits
    partner = code.partner
    m = len(partner)
    owner = [-1] * m
    s = 0
    for i in range(m):
        if owner[i] >= 0:
            continue
        x = i
        while owner[x] < 0:
            owner[x] = s
            x = partner[x] + 1
            if x == m:
                x = 0
        s += 1
    orbits = (tuple(owner), s or 1)  # the bare unknot counts as one circle
    object.__setattr__(code, "_orbits", orbits)
    return orbits


class Cycle(NamedTuple):
    """One Seifert circle: its position orbit and the printable unit walk.

    ``recorded`` has even length; its steps alternate between chord steps
    (consecutive units share a label) and arc steps (consecutive positions
    on the circle).
    """

    orbit: tuple[int, ...]
    recorded: tuple[Unit, ...]

    def serialize(self) -> str:
        return "".join(str(u) for u in self.recorded)


class CycleDecomposition(NamedTuple):
    """All Seifert circles of a code, plus which circle traverses each arc.

    ``arc_owner[i]`` is the index of the cycle running along the gap between
    positions i and i+1.
    """

    cycles: tuple[Cycle, ...]
    arc_owner: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.cycles)


def cycles(code: GaussCode) -> CycleDecomposition:
    """Decompose the smoothed diagram into its circles.

    >>> from gaussgenus import parse_gauss
    >>> cycles(parse_gauss("O1-U2-O3-U1-O2-U3-")).s
    2
    """
    _require_code(code)
    m = len(code)
    if m == 0:
        return CycleDecomposition(cycles=(Cycle((), ()),), arc_owner=())
    owner = _circles(code)[0]
    found = []
    for i in range(m):
        if owner[i] == len(found):  # least position of the next circle
            orbit = sigma_orbit(code, i)
            found.append(Cycle(orbit=orbit, recorded=_recorded(code, orbit)))
    arc_owner = owner[1:] + owner[:1]  # the arc after position i is on owner[i + 1]
    return CycleDecomposition(cycles=tuple(found), arc_owner=arc_owner)


def genus(code: GaussCode) -> int:
    """Genus of the spanning surface the smoothing produces.

    Sign and pass data do not matter; only the chord pairing does.  Linear
    in the code length: counting circles builds no printable walks.
    """
    _require_code(code)
    s = _circles(code)[1]
    doubled = code.n - s + 1
    if doubled % 2 or doubled < 0:
        raise InternalInvariantError(
            f"impossible circle count s={s} for n={code.n} (n + s must be odd)"
            f" in code {code.serialize()}"
        )
    return doubled // 2


def remove_chords(code: GaussCode, labels) -> GaussCode:
    """Delete both passes of every named crossing, keeping cyclic order.

    Given a bridge's labels, this is the open (knotoid) diagram of its
    replacement.  Each known label drops two positions, so the code's label
    set is built only when fewer drop, to name the unknown label.  A label
    that is not an int is unknown.
    """
    _require_code(code)
    labels, others = _label_set(labels)
    keep = [i for i, c in enumerate(code.packed) if c >> 2 not in labels]
    if others or len(code.packed) - len(keep) != 2 * len(labels):
        missing = [*others, *(labels - code.labels)]
        raise GaussCodeError(f"unknown label {_shown(min(missing, key=_label_key), quote=True)}")
    return _restrict(code, keep)


def chord_removal_drops_genus(code: GaussCode, label: int) -> bool:
    """Whether deleting this one crossing lowers the genus (by exactly one).

    True iff both passes of the crossing lie on a single circle of the
    decomposition; otherwise the genus is unchanged.
    """
    _require_code(code)
    a, b = code.positions_of(label)
    owner = _circles(code)[0]
    return owner[a] == owner[b]
