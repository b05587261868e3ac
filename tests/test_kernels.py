"""Differential tests: the fast kernels against the slower ones they replaced.

The reference implementations below are the scans that the orbit pass,
candidate elimination, the one-pass RII worklist, the one-regex parser and
the one-scan bridge enumeration replaced.  They are kept here as oracles:
every rotation scored in full, every phase of every circle tried, the genus
counted from the printable decomposition, RII pairs cancelled one round at a
time from the canonical base point, text scanned unit by unit, search nodes
keyed by their serialization with every frontier re-sorted, each run read
again by ``bridge_at`` and the bridges sorted, the anchor of a bridge
replacement found by walking left, its guide read in the open diagram's
indices, and units validated through an index of each label's positions.
Codes derived from a valid code without re-validation are compared with the
validated build of their units.

The kernels that now run on packed ints are compared with their Unit
versions: validation of Unit fields, the canonical relabel, the RII
worklist, and the open diagram, guide and inserted block of a bridge
replacement.  The int tuple that orders search nodes is compared with the
serialization it stands for.
"""

import bisect
import collections
import itertools
import random

import pytest

from gaussgenus import (
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    UNSIGNED,
    Bridge,
    GaussCode,
    GaussCodeError,
    SearchConfig,
    SearchResult,
    SearchStep,
    Unit,
    bridge_at,
    bridge_replace,
    canonical_form,
    chord_removal_drops_genus,
    cycles,
    enumerate_bridges,
    flip_passes,
    genus,
    parse_gauss,
    remove_chords,
    rii_reduce,
    search,
    strictly_decreases,
)
from gaussgenus import moves, searching
from gaussgenus.codes import (
    _SIGN_CHAR,
    _UNIT_RE,
    _shown,
    canonical_rotation,
)
from gaussgenus.circles import sigma_orbit
from gaussgenus.searching import _order_key
from helpers import CORPORA, RII_CORPORA, TORUS, assert_as_validated, random_code, torus_code

# -- reference implementations ------------------------------------------------

_CHAR_SIGN = {"+": POSITIVE, "-": NEGATIVE, "?": UNSIGNED}
_SIGN_RANK = {POSITIVE: 0, NEGATIVE: 1, UNSIGNED: 2}


def unit_order_key(unit):
    """Total order on units: O before U, then label, then '+' before '-'."""
    return (0 if unit.kind == OVER else 1, unit.label, _SIGN_RANK[unit.sign])


def _rotation_key(code, offset):
    relabel = {}
    key = []
    m = len(code.units)
    for t in range(m):
        u = code.units[(offset + t) % m]
        fresh = relabel.setdefault(u.label, len(relabel) + 1)
        key.append((0 if u.kind == OVER else 1, fresh, _SIGN_RANK[u.sign]))
    return tuple(key)


def reference_canonical_rotation(code):
    m = len(code.units)
    if m == 0:
        return 0
    best, best_key = 0, _rotation_key(code, 0)
    for r in range(1, m):
        key = _rotation_key(code, r)
        if key < best_key:
            best, best_key = r, key
    return best


def _interleave(code, orbit):
    out = []
    for x in orbit:
        out.append(code.units[x])
        out.append(code.units[code.partner[x]])
    return tuple(out)


def reference_recorded(code, orbit):
    best, best_key = None, None
    for s in range(len(orbit)):
        cand = _interleave(code, orbit[s:] + orbit[:s])
        key = tuple(unit_order_key(u) for u in cand)
        if best is None or key < best_key:
            best, best_key = cand, key
    return best if best is not None else ()


def reference_cycles(code):
    """(printed walks, arc owners) of the full decomposition."""
    m = len(code.units)
    if m == 0:
        return ("",), ()
    owner = [-1] * m
    walks = []
    for i in range(m):
        if owner[i] >= 0:
            continue
        orbit = sigma_orbit(code, i)
        for x in orbit:
            owner[x] = len(walks)
        walks.append("".join(str(u) for u in reference_recorded(code, orbit)))
    return tuple(walks), tuple(owner[(i + 1) % m] for i in range(m))


def reference_genus(code):
    return (code.n - len(reference_cycles(code)[0]) + 1) // 2


def _cancellable_pairs(code):
    """Candidate RII cancellations as (o_pair_start, label_a, label_b).

    Labels a, b cancel when their O passes sit at adjacent positions (a
    first), their U passes are adjacent in either order, and the signs are
    opposite.
    """
    m = len(code.units)
    out = []
    for i in range(m):
        ua = code.units[i]
        ub = code.units[(i + 1) % m]
        if ua.kind != OVER or ub.kind != OVER or ua.label == ub.label:
            continue
        if ua.sign != -ub.sign:
            continue
        a_under = next(p for p in code.positions_of(ua.label) if p != i)
        b_under = next(p for p in code.positions_of(ub.label) if p != (i + 1) % m)
        if (a_under + 1) % m == b_under or (b_under + 1) % m == a_under:
            out.append((i, ua.label, ub.label))
    return out


def reference_rii_reduce(code):
    """Each round cancels the candidate whose O pair starts at the least
    position, measured from the canonical rotation."""
    while True:
        candidates = _cancellable_pairs(code)
        if not candidates:
            return code
        shift = canonical_rotation(code)
        m = len(code.units)
        i, a, b = min(candidates, key=lambda c: (c[0] - shift) % m)
        code = remove_chords(code, (a, b))


def reference_parse_gauss(text):
    """Scan the text unit by unit, skipping whitespace between units."""
    units = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _UNIT_RE.match(text, i)
        if not m:
            snippet = text[i : i + 8]
            raise GaussCodeError(f"malformed unit at offset {i}: {snippet!r}")
        kind, digits, sign = m.groups()
        units.append(Unit(kind, int(digits), _CHAR_SIGN[sign]))
        i = m.end()
    unit_validate(units)  # the Unit validator's message wins
    return GaussCode(units)


def _unit_labels(units):
    """The label of each unit, after the checks of its fields, unit by unit."""
    labels = []
    try:
        for i, u in enumerate(units):
            if u.kind not in (OVER, UNDER):
                raise GaussCodeError(f"bad pass letter {_shown(u.kind, True)} at position {i}")
            label = u.label
            if type(label) is not int or label < 1:
                raise GaussCodeError(f"label {_shown(label, True)} at position {i} (ints from 1)")
            if type(u.sign) is not int or u.sign not in _SIGN_CHAR:
                raise GaussCodeError(f"bad sign value {_shown(u.sign, True)} at position {i}")
            labels.append(label)
    except (AttributeError, TypeError):
        raise GaussCodeError(f"position {i} holds {_shown(units[i], True)}, not a Unit") from None
    return labels


def _check_pair(label, a, b):
    """The pass and sign checks of the two units of a label."""
    if a.kind == b.kind:
        raise GaussCodeError(f"label {label} passes {a.kind} twice (needs one O and one U)")
    if a.sign != b.sign:
        raise GaussCodeError(f"label {label} carries two different signs")


def reference_validate(units):
    """The validator that indexed every label's positions and paired the
    chords in a later loop: ``(units, partner)`` of a valid code."""
    units = tuple(units)
    label_pos = {}
    for i, label in enumerate(_unit_labels(units)):
        label_pos.setdefault(label, []).append(i)
    for label, pos in label_pos.items():
        if len(pos) != 2:
            raise GaussCodeError(
                f"label {label} appears {len(pos)} time(s), expected exactly twice"
            )
        _check_pair(label, *(units[p] for p in pos))
    if len({u.sign == UNSIGNED for u in units}) > 1:
        bad = next(u.label for u in units if u.sign == UNSIGNED)
        raise GaussCodeError(f"mixed signedness (label {bad} is unsigned)")
    partner = [0] * len(units)
    for a, b in label_pos.values():
        partner[a], partner[b] = b, a
    return units, tuple(partner)


def reference_enumerate_bridges(code, kind, min_len):
    want = {"O": OVER, "U": UNDER, "over": OVER, "under": UNDER, "both": "both"}[kind]
    m = len(code.units)
    if m == 0:
        return []
    starts = [i for i in range(m) if code.units[i].kind != code.units[i - 1].kind]
    bridges = []
    for idx, st in enumerate(starts):
        nxt = starts[(idx + 1) % len(starts)]
        b = bridge_at(code, st, (nxt - st) % m)
        if len(b) >= min_len and want in ("both", b.kind):
            bridges.append(b)
    bridges.sort(key=lambda b: min(b.positions))
    return bridges


def reference_anchor(code, bridge):
    """The first unit at or left of the one before the bridge that names no
    bridge crossing, or None when the bridge holds every crossing."""
    doomed = set(bridge.labels)
    if doomed == code.labels:
        return None
    m = len(code.units)
    pos = (bridge.positions[0] - 1) % m
    while code.units[pos].label in doomed:
        pos = (pos - 1) % m
    return code.units[pos]


def reference_guide(code, bridge):
    """The removed positions, anchor and guide steps of a bridge replacement
    as it was read in the open diagram, mapped back to the code's positions.

    The anchor's index in the open diagram is the bridge's first position p
    less the removed positions before p, less one; the guide is the open
    diagram's orbit from the index after it; each step's gap is found by
    walking left from its position past the removed ones."""
    partner = code.partner
    m = len(code)
    p = bridge.positions[0]
    gone = {*bridge.positions, *[partner[q] for q in bridge.positions]}
    kept = [i for i in range(m) if i not in gone]
    trimmed = remove_chords(code, bridge.labels)
    mm = len(kept)
    xc = (p - sum(q < p for q in gone) - 1) % mm
    steps = []
    for y in sigma_orbit(trimmed, (xc + 1) % mm):
        gap = (kept[y] - 1) % m
        while gap in gone:
            gap = (gap - 1) % m
        steps.append((gap, kept[y]))
    return gone, kept[xc], steps


def reference_search(code, config):
    """Nodes keyed by their canonical serialization; every child is
    serialized before the duplicate test, and each frontier is re-sorted."""
    root = canonical_form(code)
    root_key = root.serialize()
    nodes = {root_key: (root, genus(root), None, None)}  # code, genus, parent key, step

    def order_key(key):
        return (nodes[key][1], nodes[key][0].n, key)

    frontier = [root_key]
    expanded = pruned = 0
    for _ in range(config.max_depth):
        fresh = []
        for key in sorted(frontier, key=order_key):
            node_code = nodes[key][0]
            expanded += 1
            for bridge in enumerate_bridges(node_code, "both", config.min_bridge_len):
                if config.only_strict and not strictly_decreases(node_code, bridge):
                    continue
                outcome = bridge_replace(node_code, bridge)
                child = outcome.result
                cancelled = 0
                if config.apply_rii:
                    reduced = rii_reduce(child)
                    cancelled = (child.n - reduced.n) // 2
                    child = reduced
                child = canonical_form(child)
                child_key = child.serialize()
                if child_key in nodes:
                    pruned += 1
                    continue
                step = SearchStep(
                    bridge.kind, bridge.labels, outcome.pattern_labels, cancelled,
                    genus(child), child.n,
                )
                nodes[child_key] = (child, step.genus_after, key, step)
                fresh.append(child_key)
        if not fresh:
            break
        fresh.sort(key=order_key)
        frontier = fresh[: config.beam_width]
    best_key = min(nodes, key=order_key)
    trace = []
    key = best_key
    while nodes[key][2] is not None:
        trace.append(nodes[key][3])
        key = nodes[key][2]
    trace.reverse()
    best_code, best_genus = nodes[best_key][:2]
    return SearchResult(best_code, best_genus, tuple(trace), expanded, pruned)


# -- the Unit kernels the packed-int kernels replaced ---------------------------


def unit_validate(units):
    """The one-scan validator on Unit fields: ``(units, partner)`` of a valid
    code, the chords paired at their second pass."""
    units = tuple(units)
    partner = [-1] * len(units)
    first = {}
    for i, label in enumerate(_unit_labels(units)):
        j = first.setdefault(label, i)
        if j != i:
            partner[i], partner[j] = (j, i) if partner[j] == -1 else (-1, -2)
    for label, j in first.items():
        if partner[j] < 0:
            count = sum(u.label == label for u in units)
            raise GaussCodeError(f"label {label} appears {count} time(s), expected exactly twice")
        _check_pair(label, units[j], units[partner[j]])
    if len({units[j].sign == UNSIGNED for j in first.values()}) > 1:
        bad = next(u.label for u in units if u.sign == UNSIGNED)
        raise GaussCodeError(f"mixed signedness (label {bad} is unsigned)")
    return units, tuple(partner)


def unit_canonical_form(code):
    """The units of the canonical form, relabeled through Unit objects."""
    units = code.units
    if not units:
        return ()
    r = canonical_rotation(code)
    relabel = {}
    return tuple(
        Unit(u.kind, relabel.setdefault(u.label, len(relabel) + 1), u.sign)
        for u in units[r:] + units[:r]
    )


def unit_rii_reduce(code):
    """The one-pass RII worklist reading pass letters and signs off Units:
    the units of the reduced code."""
    units = code.units
    partner = code.partner
    m = len(units)
    over = [u.kind == OVER for u in units]
    nxt = [(t + 1) % m for t in range(m)]
    prv = [(t - 1) % m for t in range(m)]
    alive = [True] * m
    work = [t for t in range(m - 1, -1, -1) if over[t]]
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        j = nxt[i]
        if not over[j] or units[i].sign == units[j].sign:
            continue
        a, b = partner[i], partner[j]
        if nxt[a] != b and nxt[b] != a:
            continue
        for r in (i, j, a, b):
            p, q = prv[r], nxt[r]
            nxt[p] = q
            prv[q] = p
            alive[r] = False
            for y in (p, q):
                work.append(y if over[y] else partner[y])
    return tuple(units[t] for t in range(m) if alive[t])


def unit_bridge_replace(code, bridge):
    """Bridge replacement with the open diagram, guide and inserted block
    built from Unit objects: (result units, anchor, guide, pattern labels,
    inserted labels)."""
    top = bridge.kind
    bottom = UNDER if top == OVER else OVER
    doomed = set(bridge.labels)
    kept = [i for i, u in enumerate(code.units) if u.label not in doomed]
    trimmed = GaussCode([code.units[i] for i in kept])
    if not kept:
        return (), None, (), (), ()
    mm = len(kept)
    xc = (bisect.bisect_left(kept, bridge.positions[0]) - 1) % mm
    orbit = sigma_orbit(trimmed, (xc + 1) % mm)
    guide = (trimmed.units[xc],) + _interleave(trimmed, orbit)[:-1]
    patterns = []
    for x in reversed(orbit):
        u = trimmed.units[x]
        if (u.sign == POSITIVE and u.kind == top) or (u.sign == NEGATIVE and u.kind == bottom):
            patterns.append((u.label, x, trimmed.partner[x]))
    k = len(patterns)
    base = max(u.label for u in code.units)
    block = [Unit(top, base + t, NEGATIVE if t % 2 else POSITIVE) for t in range(1, 2 * k + 1)]
    after = {}
    before = {}
    for j, (_, q1, q2) in enumerate(patterns, start=1):
        after[q2] = Unit(bottom, base + 2 * j - 1, NEGATIVE)
        before[(q1 - 1) % mm] = Unit(bottom, base + 2 * j, POSITIVE)
    out = []
    for t in range(mm):
        out.append(trimmed.units[t])
        if t in after:
            out.append(after[t])
        if t == xc:
            out.extend(block)
        if t in before:
            out.append(before[t])
    inserted = tuple(range(base + 1, base + 2 * k + 1))
    return tuple(out), trimmed.units[xc], guide, tuple(a for a, _, _ in patterns), inserted


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_canonical_rotation_matches_full_scan(corpora, corpus):
    rng = random.Random(len(corpus))
    for code in corpora.kernel[corpus]:
        shown = code.rotated(rng.randrange(max(len(code), 1)))
        assert canonical_rotation(shown) == reference_canonical_rotation(shown), shown


def test_canonical_rotation_ties_pick_least_offset():
    for p, q in TORUS:
        code = torus_code(p, q)
        keys = [_rotation_key(code, r) for r in range(len(code))]
        tied = [r for r, key in enumerate(keys) if key == min(keys)]
        assert len(tied) == q
        assert canonical_rotation(code) == tied[0]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_genus_and_cycles_match_printed_decomposition(corpora, corpus):
    for code in corpora.kernel[corpus]:
        walks, arc_owner = reference_cycles(code)
        decomposition = cycles(code)
        assert tuple(c.serialize() for c in decomposition.cycles) == walks
        assert decomposition.arc_owner == arc_owner
        assert genus(code) == reference_genus(code)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_orbit_predicates_match_arc_owners(corpora, corpus):
    for code in corpora.kernel[corpus]:
        if code.n > 40:
            continue
        m = len(code)
        _, arc_owner = reference_cycles(code)
        for label in code.labels:
            a, b = code.positions_of(label)
            same = arc_owner[(a - 1) % m] == arc_owner[(b - 1) % m]
            assert chord_removal_drops_genus(code, label) == same
        for bridge in enumerate_bridges(code):
            arcs = [(bridge.positions[0] - 1) % m, *bridge.positions]
            bypass = len({arc_owner[x] for x in arcs}) < len(arcs)
            assert strictly_decreases(code, bridge) == bypass


@pytest.mark.parametrize("corpus", sorted(RII_CORPORA))
def test_rii_reduce_matches_round_by_round(corpora, corpus):
    cancelled = 0
    for code in corpora.rii[corpus]:
        ours = rii_reduce(code)
        theirs = reference_rii_reduce(code)
        assert ours.n == theirs.n, code
        assert canonical_form(ours) == canonical_form(theirs), code
        assert not _cancellable_pairs(ours), code
        assert_as_validated(ours)
        if not _cancellable_pairs(code):
            assert ours is code
        cancelled += code.n - ours.n
    assert cancelled > 0  # every corpus exercises cancellation


@pytest.mark.parametrize("corpus", sorted(RII_CORPORA))
def test_rii_reduce_matches_unit_worklist(corpora, corpus):
    for code in corpora.rii[corpus]:
        assert rii_reduce(code).units == unit_rii_reduce(code), code


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_canonical_relabel_matches_unit_relabel(corpora, corpus):
    for code in corpora.kernel[corpus]:
        assert canonical_form(code).units == unit_canonical_form(code), code


def test_bridge_replace_matches_unit_block(move_record):
    replaced = 0
    for _, code, bridge, outcome, _, _ in move_record:
        ours = (
            outcome.result.units,
            outcome.anchor,
            outcome.guide,
            outcome.pattern_labels,
            outcome.inserted_labels,
        )
        assert ours == unit_bridge_replace(code, bridge), (code, bridge)
        replaced += 1
    assert replaced > 3000


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_derived_codes_match_validated_build(corpora, corpus):
    rng = random.Random(len(corpus) + 1)
    unsigned = 0
    for code in corpora.kernel[corpus]:
        genus(code)  # a derived code must not inherit these circles
        labels = sorted(code.labels)
        some = rng.sample(labels, rng.randint(0, len(labels)))
        for derived in (
            remove_chords(code, some),
            remove_chords(code, labels),
            canonical_form(code),
            code.rotated(rng.randrange(max(len(code), 1))),
            flip_passes(code),
        ):
            assert_as_validated(derived)
        if code.signed:
            assert_as_validated(rii_reduce(code))
        unsigned += code.n > 0 and not code.signed
    if corpus == "random":
        assert unsigned > 0  # deleting every chord of these makes a signed code


def test_open_diagram_matches_validated_build(move_record):
    # The open diagram is the one moves._checked received.
    replaced = 0
    for _, code, bridge, _, trimmed, _ in [m for m in move_record if m.family == "kernel"]:
        assert_as_validated(trimmed)
        assert trimmed == remove_chords(code, bridge.labels)
        replaced += 1
    assert replaced > 1000


def test_search_opens_each_diagram_through_remove_chords(corpora, monkeypatch):
    # bridge_replace deletes its bridge through the one public chord
    # deletion, looked up in moves at call time, once per replacement.
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(moves, "remove_chords")
    counted(searching, "bridge_replace")
    for codes in corpora.rii.values():
        for code in codes[:5]:
            search(code, SearchConfig(max_depth=2, beam_width=4))
    assert calls["bridge_replace"] > 100
    assert calls["remove_chords"] == calls["bridge_replace"]


@pytest.fixture(scope="module")
def bridge_walk(corpora):
    """One walk of CORPORA and RII_CORPORA for the two tests below.

    Returns what each test checks: the enumerations that differ from the
    sorted runs, the run reads on which bridge_at, enumerate_bridges and the
    caller-bridge check disagree, and the counts that show every case is met.
    """
    walk = {"enumerated": [], "entries": [], "zero_starts": {True: 0, False: 0}, "read": 0, "mixed": 0}
    for code in itertools.chain(*corpora.kernel.values(), *corpora.rii.values()):
        for kinds in (("both",), ("O", "over"), ("U", "under")):  # spellings of one kind
            for min_len in (1, 2, 3):
                expected = reference_enumerate_bridges(code, kinds[0], min_len)
                for kind in kinds:
                    if enumerate_bridges(code, kind, min_len) != expected:
                        walk["enumerated"].append((code, kind, min_len))
        if len(code):
            walk["zero_starts"][code.units[0].kind != code.units[-1].kind] += 1
        m = len(code)
        for start in range(m):
            for length in range(1, min(m, 6) + 1):
                try:
                    bridge = bridge_at(code, start, length)
                except GaussCodeError as exc:
                    if "mixes passes" not in str(exc):
                        walk["entries"].append((code, start, length, str(exc)))
                    walk["mixed"] += 1
                    continue
                try:
                    moves._require_bridge(code, bridge)
                except GaussCodeError as exc:
                    walk["entries"].append((code, bridge, str(exc)))
                flanks = {code.units[start - 1].kind, code.units[(start + length) % m].kind}
                if bridge.maximal != (bridge.kind not in flanks):
                    walk["entries"].append((code, bridge, "maximal"))
                walk["read"] += 1
        for b in enumerate_bridges(code):
            if b != bridge_at(code, b.positions[0], len(b)):
                walk["entries"].append((code, b, "bridge_at"))
    return walk


def test_enumerate_bridges_matches_sorted_runs(bridge_walk):
    assert bridge_walk["enumerated"] == []
    # Both orders of the run list are exercised: a run starting at position 0
    # keeps the scan order, a run wrapping past the end goes first.
    assert min(bridge_walk["zero_starts"].values()) > 200, bridge_walk["zero_starts"]


def test_anchor_and_guide_match_leftward_walk(move_record):
    replaced = 0
    for _, code, bridge, outcome, _, _ in [m for m in move_record if m.family == "kernel"]:
        anchor = reference_anchor(code, bridge)
        assert outcome.anchor == anchor, (code, bridge)
        if anchor is None:
            assert outcome.guide == ()
            continue
        trimmed = remove_chords(code, bridge.labels)
        xc = trimmed.units.index(anchor)
        orbit = sigma_orbit(trimmed, (xc + 1) % len(trimmed))
        assert outcome.guide == (anchor,) + _interleave(trimmed, orbit)[:-1]
        replaced += 1
    assert replaced > 1000


def test_guide_reader_matches_open_diagram_walk(move_record):
    # moves._guide walks the guide in the code's own positions; the walk
    # that bridge_replace made in the open diagram's indices is its oracle.
    read = 0
    for _, code, bridge, _, _, guide in move_record:
        if len(bridge) < code.n:
            assert guide == reference_guide(code, bridge)
            read += 1
    assert read > 4000


def test_require_bridge_accepts_exactly_the_runs_of_the_code(corpora):
    checked = 0
    for code in corpora.kernel["random"]:
        if code.n == 0:
            continue
        m = len(code)
        top = max(code.labels)
        for bridge in enumerate_bridges(code):
            moves._require_bridge(code, bridge)
            length = len(bridge)
            if length > 1:  # a part of a run is a bridge, though not maximal
                part = bridge_at(code, bridge.positions[1], length - 1)
                assert not part.maximal
                moves._require_bridge(code, part)
                # Reversed, the run is no run; a part of a run is not maximal.
                wrongs = [
                    Bridge(bridge.kind, bridge.positions[::-1], bridge.labels[::-1], True),
                    Bridge(part.kind, part.positions, part.labels, True),
                ]
            else:
                wrongs = []
            other = UNDER if bridge.kind == OVER else OVER
            shifted = tuple((p + 1) % m for p in bridge.positions)
            relabelled = tuple(x + top for x in bridge.labels)
            wrongs += [
                Bridge(bridge.kind, shifted, bridge.labels, True),
                Bridge(other, bridge.positions, bridge.labels, True),
                Bridge(bridge.kind, bridge.positions, relabelled, True),
                Bridge(bridge.kind, bridge.positions, bridge.labels[:-1], True),
                Bridge(bridge.kind, (), (), True),
                Bridge(bridge.kind, bridge.positions, bridge.labels, False),  # it is maximal
                Bridge(bridge.kind, bridge.positions, bridge.labels, 1),  # == True, not a bool
                # Equal under ==, but 1.0 and True name no label or position.
                Bridge(bridge.kind, bridge.positions, tuple(map(float, bridge.labels)), True),
            ]
            if min(bridge.positions) < 2:
                as_bools = tuple([p if p > 1 else bool(p) for p in bridge.positions])
                wrongs.append(Bridge(bridge.kind, as_bools, bridge.labels, True))
            for wrong in wrongs:
                with pytest.raises(GaussCodeError):
                    moves._require_bridge(code, wrong)
                checked += 1
    assert checked > 5000


def test_bridge_entries_read_one_run(bridge_walk):
    # bridge_at, enumerate_bridges and the caller-bridge check agree on every
    # short run of every code.
    assert bridge_walk["entries"] == []
    assert bridge_walk["read"] > 10000 and bridge_walk["mixed"] > 10000, (bridge_walk["read"], bridge_walk["mixed"])


_SPACES = " \t\n\x1c\u00a0\u2003\u3000"
# Letters, digits (also non-ASCII: Arabic-Indic three, fullwidth one, and a
# superscript two that is no decimal digit), signs, spaces and junk.
_FUZZ_CHARS = "OU0123456789+-?" + _SPACES + "\u0663\uff11\u00b2xo|"
# Labels written in Arabic-Indic or fullwidth digits.
_OTHER_DIGITS = [
    str.maketrans("0123456789", "".join(chr(zero + d) for d in range(10)))
    for zero in (0x660, 0xFF10)
]


def _fuzz_texts():
    rng = random.Random(31337)
    out = []
    for _ in range(2000):
        if rng.random() < 0.2:
            out.append("".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randint(0, 12))))
            continue
        code = random_code(rng, rng.randint(0, 6), signed=rng.random() < 0.8)
        text = code.serialize()
        if rng.random() < 0.1:
            text = text.translate(rng.choice(_OTHER_DIGITS))
        chars = list(text)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(chars))
            edit = rng.random()
            if edit < 0.4:
                chars.insert(at, rng.choice(_SPACES))
            elif at < len(chars) and edit < 0.7:
                chars[at] = rng.choice(_FUZZ_CHARS)
            elif at < len(chars):
                del chars[at]
        out.append("".join(chars))
    return out


def _parsed(parse, text):
    try:
        code = parse(text)
    except GaussCodeError as exc:
        return ("error", str(exc))
    positions = [code.positions_of(label) for label in sorted(code.labels)]
    return ("code", code.units, code.partner, code.labels, positions, code.signed)


def test_parse_gauss_matches_unit_scan():
    outcomes = {"code": 0, "error": 0}
    for text in _fuzz_texts():
        ours = _parsed(parse_gauss, text)
        assert ours == _parsed(reference_parse_gauss, text), repr(text)
        outcomes[ours[0]] += 1
    assert min(outcomes.values()) > 500, outcomes


_FOREIGN = [None, 7, "O1+", ("O", 1, POSITIVE), object()]
_BAD_KINDS = ["X", "o", None, 0]
_BAD_LABELS = [True, False, 1.0, 0.5, "1", 0, -3, None]
_BAD_SIGNS = [2, "+", None, [], 0.5, True, 1.0, False, 0.0]


def _mutated(rng, units):
    """One violation of the unit invariants, or a harmless relabel."""
    at = rng.randrange(len(units))
    u = units[at]
    if not isinstance(u, Unit):
        return
    edit = rng.randrange(12)
    if edit == 0:  # the label is seen three times
        units.insert(rng.randint(0, len(units)), u)
    elif edit == 1:  # seen once
        del units[at]
    elif edit == 2:  # seen four times
        k = rng.randint(0, len(units))
        units[k:k] = [u, u.flipped()]
    elif edit == 3:  # merges two labels or splits one
        units[at] = u._replace(label=rng.randint(1, len(units) // 2 + 1))
    elif edit == 4:
        units[at] = u._replace(label=rng.choice(_BAD_LABELS))
    elif edit == 5:
        units[at] = rng.choice(_FOREIGN)
    elif edit == 6:
        units[at] = u._replace(kind=rng.choice(_BAD_KINDS))
    elif edit == 7:
        units[at] = u._replace(sign=rng.choice(_BAD_SIGNS))
    elif edit == 8:  # the same pass twice
        units[at] = u.flipped()
    elif edit == 9:  # two different signs, or True, which is no sign
        units[at] = u._replace(sign=rng.choice((POSITIVE, NEGATIVE, UNSIGNED, True)))
    else:  # both passes of the label unsigned, or of every other label
        units[:] = [
            v._replace(sign=UNSIGNED)
            if isinstance(v, Unit) and (v.label == u.label) == (edit == 10)
            else v
            for v in units
        ]


def _fuzz_unit_lists(count, seed=2584):
    """Unit lists of random codes with no, one or several violations."""
    rng = random.Random(seed)
    for _ in range(count):
        units = list(random_code(rng, rng.randint(1, 7), signed=rng.random() < 0.7).units)
        for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
            if units:
                _mutated(rng, units)
        yield units


def _built(units):
    code = GaussCode(units)
    return code.units, code.partner


def _validated(validate, units):
    try:
        return validate(units)
    except GaussCodeError as exc:
        return str(exc)


# A fragment of each message the fuzzed lists must provoke.
_VIOLATIONS = (
    "bad pass letter",
    "(ints from 1)",
    "bad sign value",
    "not a Unit",
    "appears 1 time",
    "appears 3 time",
    "appears 4 time",
    "(needs one O and one U)",
    "two different signs",
    "mixed signedness",
)


def test_validation_matches_indexed_validator():
    outcomes = collections.Counter()
    for units in _fuzz_unit_lists(6000):
        ours = _validated(_built, units)
        assert ours == _validated(reference_validate, units), units
        assert ours == _validated(unit_validate, units), units
        if type(ours) is tuple:
            outcomes["valid"] += 1
        else:  # labels seen five times or more are not counted
            outcomes[next((v for v in _VIOLATIONS if v in ours), None)] += 1
    assert min(outcomes[v] for v in ("valid",) + _VIOLATIONS) > 100, outcomes


def _text_prefix_tie(a, b):
    """Whether the first units in which two codes differ have one pass
    letter and labels one of whose decimal strings begins the other."""
    for u, v in zip(a.units, b.units):
        if u != v:
            x, y = str(u.label), str(v.label)
            return u.kind == v.kind and x != y and (x.startswith(y) or y.startswith(x))
    return False


def _swapped(code, a, b):
    """``code`` with labels a and b interchanged."""
    swap = {a: b, b: a}
    return GaussCode([u._replace(label=swap.get(u.label, u.label)) for u in code.units])


# Labels whose decimal strings begin one another, across 9/10 and 99/100.
_PREFIX_SWAPS = {12: ((1, 10), (1, 12), (2, 12)), 105: ((1, 10), (10, 100), (1, 105), (10, 104))}


def _key_corpus(search_codes):
    """Signed codes labelled 1..n grouped by crossing count: canonical
    random codes whose labels cross 9/10 (n = 12) and 99/100 (n = 105),
    each also with two labels interchanged whose decimal strings begin one
    another, and the search codes with every child of their canonical
    forms."""
    rng = random.Random(9091)
    groups = collections.defaultdict(set)
    for n, count in ((12, 150), (105, 40)):
        for _ in range(count):
            code = canonical_form(random_code(rng, n))
            groups[n].add(code)
            groups[n].update(_swapped(code, a, b) for a, b in _PREFIX_SWAPS[n])
    for code in search_codes:
        root = canonical_form(code)
        groups[root.n].add(root)
        for bridge in enumerate_bridges(root):
            child = canonical_form(rii_reduce(bridge_replace(root, bridge).result))
            groups[child.n].add(child)
    return groups


def test_node_order_key_orders_like_serialization(corpora):
    pairs = ties = 0
    for codes in _key_corpus(corpora.search).values():
        keyed = [(_order_key(code), code.serialize(), code) for code in codes]
        for (key_a, text_a, a), (key_b, text_b, b) in itertools.combinations(keyed, 2):
            assert (key_a < key_b) == (text_a < text_b), (a, b)
            assert (key_a == key_b) == (text_a == text_b), (a, b)
            pairs += 1
            ties += _text_prefix_tie(a, b)
    # The order is decided by a label against a longer one it begins (1
    # against 10, 10 against 100) in enough pairs to matter.
    assert pairs > 10000 and ties > 100, (pairs, ties)


_SEARCH_GRID = list(
    itertools.product((None, 1, 3), (True, False), (True, False), (1, 2), (1, 2, 3))
)


@pytest.mark.parametrize("index", range(8))
def test_search_matches_string_keyed_search(corpora, index):
    code = corpora.search[index]
    for beam, rii, strict, min_len, depth in _SEARCH_GRID:
        if code.n > 5 and beam is None and depth == 3:
            continue  # slow; exhaustive depth 3 is covered on the smaller codes
        if code.n > 10 and (beam is None or depth == 3):
            continue
        config = SearchConfig(
            max_depth=depth,
            beam_width=beam,
            min_bridge_len=min_len,
            apply_rii=rii,
            only_strict=strict,
        )
        assert search(code, config) == reference_search(code, config), (code, config)


@pytest.mark.parametrize(
    "beam, rii, strict, min_len, depth",
    [
        (None, True, False, 1, 2),
        (3, True, False, 1, 3),
        (1, False, False, 1, 3),
        (3, True, True, 2, 3),
    ],
)
def test_move_trace_replays_from_the_root(corpora, beam, rii, strict, min_len, depth):
    # Each step's bridge, replaced, RII-reduced where the config says so and
    # canonicalized, gives the step's fields and the next code on the path.
    config = SearchConfig(
        max_depth=depth, beam_width=beam, min_bridge_len=min_len, apply_rii=rii, only_strict=strict
    )
    steps = 0
    for code in corpora.search:
        result = search(code, config)
        current = canonical_form(code)
        for step in result.move_trace:
            (bridge,) = [
                b for b in enumerate_bridges(current, step.bridge_kind, min_len)
                if b.labels == step.bridge_labels
            ]
            outcome = bridge_replace(current, bridge)
            reduced = rii_reduce(outcome.result) if rii else outcome.result
            current = canonical_form(reduced)
            assert step.pattern_labels == outcome.pattern_labels, (code, config, step)
            assert step.rii_cancelled == (outcome.result.n - reduced.n) // 2, (code, config, step)
            assert (step.genus_after, step.crossings_after) == (genus(current), current.n)
            steps += 1
        assert current == result.best_code, (code, config)
        assert genus(current) == result.best_genus
    assert steps >= len(corpora.search), steps


def test_gives_back_matches_the_built_child(search_record):
    # On every bridge of every RII-free node, of any length, the predicate
    # read from the parent equals the comparison with the built child.
    moved = given_back = 0
    for node, bridge, built, genus_before_rii, n, cancelled in search_record.children:
        assert moves._gives_back(node, bridge) == (built == node), (node, bridge)
        # The record's counts before RII lead to the built child.
        assert n - 2 * cancelled == built.n and genus(built) <= genus_before_rii, (node, bridge)
        moved += 1
        given_back += built == node
    assert moved > 2000 and given_back > 250, (moved, given_back)


def test_search_without_the_prediction_is_identical(corpora, search_record, monkeypatch):
    # Pruning a move that gives back its own node counts it as the duplicate
    # that building it would have found, so the results do not change.
    codes, beamed = corpora.tree, list(search_record.results)
    real = searching._gives_back
    predicted = 0

    def counted(code, bridge):
        nonlocal predicted
        predicted += real(code, bridge)
        return real(code, bridge)

    exhaustive = SearchConfig(max_depth=2)
    monkeypatch.setattr(searching, "_gives_back", counted)
    live = [search(code, exhaustive) for code in codes]
    assert predicted > 150, predicted
    monkeypatch.setattr(searching, "_gives_back", lambda code, bridge: False)
    assert [search(code, search_record.config) for code in codes] == beamed
    assert [search(code, exhaustive) for code in codes] == live
