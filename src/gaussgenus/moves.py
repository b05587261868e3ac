"""Bridges, the genus-reducing bridge replacement, and RII reduction.

A bridge is a cyclically contiguous run of all-over (or all-under) passes.
Replacing a bridge reroutes that strand along the interval left by smoothing
the rest of the diagram, which never raises the diagram genus and lowers it
exactly when two of the arcs flanking the bridge lie on one Seifert circle.
All operations are pure; codes are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .codes import (
    _NEGATIVE_BIT,
    _UNDER_BIT,
    OVER,
    UNDER,
    GaussCode,
    GaussCodeError,
    InternalInvariantError,
    Unit,
    _kind,
    _label_key,
    _label_set,
    _require_code,
    _require_int,
    _restrict,
    _shown,
    _units_of,
)
# ``canonical_rotation`` and ``cycles`` are unused here but stay bound:
# benchmarks/tracing.py rebinds them.
from .codes import canonical_rotation  # noqa: F401
from .circles import cycles  # noqa: F401
from .circles import _circles, genus, remove_chords

_KIND_ALIASES = {
    "O": OVER,
    "U": UNDER,
    "over": OVER,
    "under": UNDER,
    "both": "both",
}


@dataclass(frozen=True)
class Bridge:
    """A same-pass run: positions in run order with their crossing labels."""

    kind: str
    positions: tuple[int, ...]
    labels: tuple[int, ...]
    maximal: bool

    def __len__(self) -> int:
        return len(self.positions)


def _cyclic(seq, start: int, length: int):
    # ``length`` <= len(seq) items of ``seq`` from ``start`` < len(seq): one
    # slice, or two where they wrap past the end.
    over = start + length - len(seq)
    return seq[start : start + length] if over <= 0 else (*seq[start:], *seq[:over])


def _run(code: GaussCode, start: int, length: int) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    # The positions of the ``length`` units from ``start``, those packed
    # units, and whether both flanking units differ in pass from the first.
    packed = code.packed
    run = _cyclic(packed, start, length)
    flanks = (packed[start - 1] ^ run[0]) & (packed[(start + length) % len(packed)] ^ run[0])
    return tuple(_cyclic(range(len(packed)), start, length)), run, bool(flanks & _UNDER_BIT)


def bridge_at(code: GaussCode, start: int, length: int) -> Bridge:
    """The bridge occupying ``length`` positions from ``start``, maximal or not."""
    _require_code(code)
    _require_int("start", start)
    _require_int("length", length, positive=True)
    m = len(code.packed)
    if length > m:
        raise GaussCodeError(f"no bridge of length {length} in a code of {m} units")
    start %= m
    positions, run, maximal = _run(code, start, length)
    under = run[0] & _UNDER_BIT
    for p, c in zip(positions, run):
        if c & _UNDER_BIT != under:
            raise GaussCodeError(f"run at {start} mixes passes (position {p} is {_kind(c)})")
    return Bridge(_kind(under), positions, tuple([c >> 2 for c in run]), maximal)


def enumerate_bridges(code: GaussCode, kind: str = "both", min_len: int = 1) -> list[Bridge]:
    """All maximal bridges of the requested kind(s) with length >= min_len.

    Each run of equal pass letters, found by one scan, is one bridge; they
    come in order of least position, so a run wrapping past the end is first.
    """
    _require_code(code)
    want = _KIND_ALIASES.get(kind) if type(kind) is str else None
    if want is None:
        raise GaussCodeError(f"bad bridge kind {kind!r}")
    _require_int("min_len", min_len, positive=True)
    packed = code.packed
    m = len(packed)
    if m == 0:
        return []
    starts = [i for i in range(m) if (packed[i] ^ packed[i - 1]) & _UNDER_BIT]
    if starts[0]:  # position 0 lies inside the last run, which wraps
        starts.insert(0, starts.pop())
    bridges = []
    for st, nxt in zip(starts, starts[1:] + starts[:1]):
        letter, length = _kind(packed[st]), (nxt - st) % m
        if length >= min_len and want in ("both", letter):
            positions, run, _ = _run(code, st, length)
            bridges.append(Bridge(letter, positions, tuple([c >> 2 for c in run]), True))
    return bridges


def find_bridge(code: GaussCode, labels) -> Bridge:
    """The maximal bridge whose crossing set is exactly ``labels``."""
    target, others = _label_set(labels)
    for b in enumerate_bridges(code):
        if not others and frozenset(b.labels) == target:
            return b
    pretty = ",".join(_shown(x, quote=True) for x in sorted([*target, *others], key=_label_key))
    raise GaussCodeError(f"labels {{{pretty}}} do not form a maximal bridge")


def _require_bridge(code: GaussCode, bridge: Bridge) -> None:
    # Exactly the bridge that ``bridge_at`` reads from its first position.
    # Its positions and labels must be ints and ``maximal`` a bool, since
    # ``==`` takes 1.0 and True for 1.
    _require_code(code)
    if not isinstance(bridge, Bridge):
        raise GaussCodeError(f"bridge must be a Bridge, not {bridge!r}")
    positions, labels = bridge.positions, bridge.labels
    if (
        type(positions) is type(labels) is tuple
        and positions
        and {*map(type, positions + labels)} == {int}
        and type(bridge.maximal) is bool
    ):
        try:
            if bridge_at(code, positions[0], len(positions)) == bridge:
                return
        except GaussCodeError:  # too long, or not of one pass letter
            pass
    raise GaussCodeError("bridge not contained in code")


def strictly_decreases(code: GaussCode, bridge: Bridge) -> bool:
    """Whether replacing this bridge is guaranteed to lower the genus.

    True iff two of the k+1 arcs flanking and separating the bridge's
    passes are traversed by the same Seifert circle (a bypass exists).
    """
    _require_bridge(code, bridge)
    return _bypass(_circles(code)[0], bridge)


def _bypass(owner: tuple[int, ...], bridge: Bridge) -> bool:
    # The arc after position i is traversed by circle ``owner[i + 1]``, so
    # the k+1 positions from the bridge's first stand for the k+1 arcs
    # around its k consecutive passes.
    ends = _cyclic(owner, bridge.positions[0], len(bridge.positions) + 1)
    return len(set(ends)) < len(ends)


def knotoid_genus(code: GaussCode, bridge: Bridge) -> int:
    """Genus of the open diagram left when the bridge strand is removed."""
    _require_bridge(code, bridge)
    return genus(remove_chords(code, bridge.labels))


@dataclass(frozen=True)
class MoveOutcome:
    """Full provenance of one bridge replacement.

    ``packed_guide`` is the guide walk as packed units (see
    :class:`~gaussgenus.codes.GaussCode`), empty when the bridge held every
    crossing; ``anchor`` and ``guide`` build its units when read.
    """

    result: GaussCode
    removed_labels: tuple[int, ...]
    packed_guide: tuple[int, ...]
    pattern_labels: tuple[int, ...]
    inserted_labels: tuple[int, ...]
    strict_decrease_predicted: bool

    @property
    def anchor(self) -> Unit | None:
        """The last kept unit before the bridge, where the guide starts."""
        return _units_of(self.packed_guide[:1], True)[0] if self.packed_guide else None

    @property
    def guide(self) -> tuple[Unit, ...]:
        """The guide cycle read from the anchor, its closing unit left off."""
        return _units_of(self.packed_guide, True)  # a replaced code is signed

    def guide_text(self) -> str:
        return "".join(str(u) for u in self.guide)


def bridge_replace(code: GaussCode, bridge: Bridge) -> MoveOutcome:
    """Replace the bridge by a new one routed along the smoothing interval.

    The genus of the result equals the genus of the code with the bridge's
    crossings deleted, and never exceeds the genus of the input.  An under
    bridge is replaced exactly as the over bridge of the mirror image
    (:func:`flip_passes`) would be, with every pass letter interchanged.
    """
    _require_bridge(code, bridge)
    if not code.signed:
        raise GaussCodeError("bridge replacement requires a fully signed code")
    top = _UNDER_BIT if bridge.kind == UNDER else 0  # the bridge's pass bit
    bottom = top ^ _UNDER_BIT
    removed = tuple(sorted(bridge.labels))
    strict = _bypass(_circles(code)[0], bridge)
    trimmed = remove_chords(code, bridge.labels)  # the open diagram
    if not trimmed.packed:  # the bridge held every crossing: the result is the unknot
        unknot = MoveOutcome(trimmed, removed, (), (), (), strict)
        return _checked(code, trimmed, unknot)

    packed = code.packed
    partner = code.partner
    gone, anchor, steps = _guide(code, bridge)

    # Pattern crossings: chord steps of the guide, scanned leftward from X,
    # where the new bridge must cross the interval.
    patterns = _crossed(packed, steps, top)
    k = len(patterns)
    if len({packed[x] >> 2 for _, x in patterns}) != k:
        raise _broken("pattern crossings are not pairwise distinct", code, removed)

    # New crossings base+1 .. base+2k: the block after X alternates '-',
    # '+' from its first pass; pattern j gets the '-' pass of crossing
    # base+2j-1 right after its partner pass and the '+' pass of base+2j
    # at the end of the gap before its pass on the guide.  ``inserted``
    # holds the units placed after each kept position, in that order.
    base = max(packed) >> 2  # the largest label
    inserted = {
        partner[x]: [(base + 2 * j - 1) << 2 | bottom | _NEGATIVE_BIT]
        for j, (_, x) in enumerate(patterns, start=1)
    }
    block = [(base + t) << 2 | top | t & _NEGATIVE_BIT for t in range(1, 2 * k + 1)]
    inserted[anchor] = [*inserted.get(anchor, ()), *block]
    for j, (gap, _) in enumerate(patterns, start=1):
        inserted.setdefault(gap, []).append((base + 2 * j) << 2 | bottom)

    out: list[int] = []
    for t, c in enumerate(packed):
        if t not in gone:
            out.append(c)
            if t in inserted:
                out += inserted[t]
    result = GaussCode._validated(tuple(out), signed=True)

    return _checked(
        code,
        trimmed,
        MoveOutcome(
            result,
            removed,
            tuple([packed[y] for step in steps for y in step]),
            tuple([packed[x] >> 2 for _, x in patterns]),
            tuple(range(base + 1, base + 2 * k + 1)),
            strict,
        ),
    )


def _guide(code: GaussCode, bridge: Bridge) -> tuple[set[int], int, list[tuple[int, int]]]:
    # The guide of replacing ``bridge``, read in the positions of ``code``,
    # which must keep a chord: the removed positions (the bridge's and their
    # partners), the anchor X, which is the last kept position before the
    # bridge, and the guide's steps.  The guide is the open diagram's circle
    # through the gap the bridge used to occupy.  A gap is named by the kept
    # position before it, and a step is (gap, position): the first kept
    # position after X, with gap X; then, after jumping the chord of the
    # step before, the next kept position, whose gap is that chord's other
    # pass.  The walk closes when that other pass is X again.  So the steps,
    # read in order, are the guide's units from X less the closing one.
    partner = code.partner
    m = len(partner)
    positions = bridge.positions
    gone = {*positions, *[partner[p] for p in positions]}
    anchor = (positions[0] - 1) % m
    while anchor in gone:
        anchor = (anchor - 1) % m
    steps = []
    gap = anchor
    while True:
        x = (gap + 1) % m
        while x in gone:
            x = (x + 1) % m
        steps.append((gap, x))
        gap = partner[x]
        if gap == anchor:
            return gone, anchor, steps


def _crossed(packed, steps, top: int) -> list[tuple[int, int]]:
    # The guide steps whose positions are pattern crossings for a bridge of
    # pass bit ``top``, last step first.  A '+' crossing matches when
    # stepped from the bridge's pass letter to the other one, a '-' crossing
    # the other way: its pass bit differs from the bridge's exactly when its
    # sign bit is set.  Each chord matches in at most one direction, so
    # pattern labels stay distinct.
    return [
        step
        for step in reversed(steps)
        if ((packed[step[1]] ^ top) & _UNDER_BIT) >> 1 == packed[step[1]] & _NEGATIVE_BIT
    ]


def _gives_back(code: GaussCode, bridge: Bridge) -> bool:
    """Whether ``canonical_form(rii_reduce(bridge_replace(code, bridge).result))``
    equals ``code``, for an RII-free canonical ``code``, read from ``code``
    alone.

    Work in the parent's positions, as :func:`_guide` reads the guide: the
    kept positions are the open diagram's, a gap is named by the kept
    position before it, and each guide position comes with its gap.
    Pattern j (in the order :func:`bridge_replace` numbers them) at position
    q1, with partner q2, gets inserted crossing base+2j-1 ('-') at the start
    of gap q2 and base+2j ('+') at the end of the gap before q1.

    Patterns are numbered from the guide's last position back, and the
    guide steps from q1(j+1) to the first kept position after q2(j+1).  So
    patterns j and j+1 are consecutive on the guide exactly when the gap
    before q1(j) is q2(j+1).  Then base+2j and base+2j+1 cancel by RII:
    their block passes are adjacent, their other passes fill that gap alone
    and in turn, and their signs are opposite.  That gap is never X, where
    the block would sit between them, since q1(j) would then be the guide's
    first position and j the last pattern.  So each maximal run of
    consecutive patterns leaves two crossings, the '-' one of its first
    pattern and the '+' one of its last: 2 * runs survivors, signed '-',
    '+', ... in block order.  The child has the parent's crossing count only
    when that is k, the bridge's length, and it reads as the parent only
    when the bridge's passes carry the same signs.

    The move gives back ``code`` when the survivors' other passes fill the
    same gaps, in the same order, as the bridge chords' other passes do in
    ``code``, survivor i standing for the bridge's i-th chord: the cancelled child is then
    ``code`` itself, relabelled.  ``code`` is RII-free, so that child is
    fully reduced, and since RII reduction is confluent up to relabelling
    (see :func:`rii_reduce`) ``rii_reduce`` of the built child has the same
    canonical form.  The test is sufficient; it has matched the built child
    on every move of the test corpora's search trees.
    """
    packed = code.packed
    partner = code.partner
    m = len(packed)
    positions = bridge.positions
    k = len(positions)
    if k % 2 or 2 * k == m:  # survivors come in pairs; no chord left is the unknot
        return False
    for t, p in enumerate(positions):
        if not (packed[p] ^ t) & _NEGATIVE_BIT:  # '-' at even t, '+' at odd
            return False
    gone, anchor, steps = _guide(code, bridge)

    # Gap, rank within the gap, survivor index: the '-' survivor opens its
    # gap, the block follows in X's gap, a '+' survivor closes its gap.
    want = [(anchor, 1, -1)]
    end = -1  # the gap before the last pattern's q1
    for gap, x in _crossed(packed, steps, packed[positions[0]] & _UNDER_BIT):
        q2 = partner[x]
        if q2 != end:  # a run starts here
            if end >= 0:
                want.append((end, 2, len(want) - 1))
            want.append((q2, 0, len(want) - 1))
            if len(want) > k:
                return False
        end = gap
    if end < 0:  # no pattern, so no survivor
        return False
    want.append((end, 2, len(want) - 1))

    # The bridge chords' other passes are removed positions: name each gap
    # by the kept position before it.
    have = [(anchor, (positions[0] - anchor) % m, -1)]
    for i, p in enumerate(positions):
        c = gap = partner[p]
        while gap in gone:
            gap = (gap - 1) % m
        have.append((gap, (c - gap) % m, i))
    want.sort()
    have.sort()
    return [(g, i) for g, _, i in want] == [(g, i) for g, _, i in have]


def _broken(message: str, code: GaussCode, labels) -> InternalInvariantError:
    # Input code and bridge labels reproduce the failing move.
    pretty = ",".join(str(x) for x in labels)
    return InternalInvariantError(f"{message} (input {code.serialize()}, bridge {pretty})")


def _checked(code: GaussCode, trimmed: GaussCode, outcome: MoveOutcome) -> MoveOutcome:
    # ``trimmed`` is the open diagram of ``code``.
    labels = outcome.removed_labels
    try:
        g_before = genus(code)
        g_after = genus(outcome.result)
        g_open = genus(trimmed)
    except InternalInvariantError as exc:
        raise _broken(str(exc), code, labels) from exc
    if g_after != g_open:
        raise _broken(
            f"replacement genus {g_after} differs from open-diagram genus {g_open}", code, labels
        )
    if g_after > g_before:
        raise _broken(f"replacement raised genus {g_before} -> {g_after}", code, labels)
    if outcome.strict_decrease_predicted != (g_after < g_before):
        raise _broken("bypass prediction disagrees with genus drop", code, labels)
    return outcome


def rii_reduce(code: GaussCode) -> GaussCode:
    """Cancel opposite-sign adjacent crossing pairs until none remains.

    Labels a, b cancel when their O passes sit at adjacent positions (a
    first), their U passes are adjacent in either order, and the signs are
    opposite.  One pass over a worklist of O positions on a linked cycle of
    the live units: a cancellation re-tests only the positions whose
    neighbourhood it changed, so a call is O(m) and builds one code at the
    end, or returns ``code`` itself when nothing cancels.

    Cancellation is confluent up to relabelling: where two candidates
    overlap, as on alternating runs, either leaves the same chord under a
    different label.  So rotations of one code reduce to codes with equal
    :func:`canonical_form`, though the surviving labels may differ.
    """
    _require_code(code)
    if not code.signed:
        raise GaussCodeError("RII reduction requires a fully signed code")
    packed = code.packed
    partner = code.partner
    m = len(packed)
    over = [not c & _UNDER_BIT for c in packed]
    nxt = [*range(1, m), 0]
    prv = [m - 1, *range(m - 1)]
    alive = [True] * m
    work = list(compress(range(m - 1, -1, -1), reversed(over)))  # least position pops first
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        j = nxt[i]
        if not over[j] or not (packed[i] ^ packed[j]) & _NEGATIVE_BIT:  # equal signs
            continue
        a, b = partner[i], partner[j]
        if nxt[a] != b and nxt[b] != a:
            continue
        for r in (i, j, a, b):
            p, q = prv[r], nxt[r]
            nxt[p] = q
            prv[q] = p
            alive[r] = False
            # A pair turns cancellable only through a new adjacency, of its
            # O passes (the first is then p) or of its U passes (then p and
            # q), so its first O pass is the O pass of p's or q's label.
            for y in (p, q):
                work.append(y if over[y] else partner[y])
    if all(alive):
        return code
    return _restrict(code, list(compress(range(m), alive)))
