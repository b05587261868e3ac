"""Differential tests: the linear-time kernels against the quadratic ones.

The reference implementations below are the scans that the orbit pass,
candidate elimination and the one-pass RII worklist replaced.  They are kept
here as oracles: every rotation scored in full, every phase of every circle
tried, the genus counted from the printable decomposition, and RII pairs
cancelled one round at a time from the canonical base point.
"""

import random

import pytest

from gaussgenus import (
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    GaussCode,
    Unit,
    canonical_form,
    chord_removal_drops_genus,
    cycles,
    enumerate_bridges,
    genus,
    parse_gauss,
    remove_chords,
    rii_reduce,
    strictly_decreases,
)
from gaussgenus.codes import _SIGN_RANK, canonical_rotation, unit_order_key
from gaussgenus.cycles import sigma_orbit
from helpers import (
    EIGHT_20,
    RII_PAIR,
    TREFOIL,
    braid_closure_code,
    braid_knot_code,
    random_code,
    torus_code,
)

# -- reference implementations ------------------------------------------------


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


# -- corpus ------------------------------------------------------------------


def _presented(rng, code):
    """The same diagram with shuffled labels, read from a random unit."""
    labels = sorted(code.labels)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(labels, shuffled))
    units = [u._replace(label=relabel[u.label]) for u in code.units]
    return GaussCode(units).rotated(rng.randrange(len(units)))


def _random_codes():
    rng = random.Random(8128)
    sizes = [rng.randint(0, 12) for _ in range(150)] + [rng.randint(13, 200) for _ in range(25)]
    fixtures = [parse_gauss(TREFOIL), parse_gauss(EIGHT_20)]
    return fixtures + [random_code(rng, n, signed=rng.random() < 0.8) for n in sizes]


def _braid_codes():
    rng = random.Random(6174)
    return [braid_knot_code(rng, max_strands=6, max_len=16) for _ in range(60)]


TORUS = [(3, q) for q in (2, 4, 5, 7, 8, 10, 11)] + [(5, q) for q in (2, 3, 4, 6, 7, 8, 9)]


def _torus_codes():
    rng = random.Random(1729)
    out = []
    for p, q in TORUS:
        code = torus_code(p, q)
        out += [code] + [_presented(rng, code) for _ in range(3)]
    return out


CORPORA = {"random": _random_codes, "braid": _braid_codes, "torus": _torus_codes}


def _padded_braid_codes():
    """Braid closures with cancelling s_j s_j^-1 pairs inserted in the word."""
    rng = random.Random(2718)
    out = []
    while len(out) < 80:
        strands = rng.randint(2, 6)
        word = [
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(rng.randint(2, 14))
        ]
        for _ in range(rng.randint(1, 8)):
            j, eps = rng.randint(1, strands - 1), rng.choice((1, -1))
            at = rng.randint(0, len(word))
            word[at:at] = [(j, eps), (j, -eps)]
        code = braid_closure_code(word)
        if code is not None:
            out.append(code.rotated(rng.randrange(len(code))))
    return out


def _chain_heavy_codes():
    """Random codes with alternating-sign chains inserted: an O run of 2-5
    passes and the matching U run, forward or reversed, anywhere in the code
    (inside other chains too), with the chain's pass letters optionally
    flipped; read from a random unit."""
    rng = random.Random(1618)
    out = []
    for _ in range(300):
        units = list(random_code(rng, rng.randint(0, 6)).units)
        label = len(units) // 2
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(2, 5)
            sign = rng.choice((POSITIVE, NEGATIVE))
            top, bottom = (UNDER, OVER) if rng.random() < 0.3 else (OVER, UNDER)
            chain = [(label + t, sign if t % 2 else -sign) for t in range(1, length + 1)]
            label += length
            first = [Unit(top, lab, sg) for lab, sg in chain]
            second = [Unit(bottom, lab, sg) for lab, sg in chain]
            if rng.random() < 0.5:
                second.reverse()
            at = rng.randint(0, len(units))
            units[at:at] = first
            at = rng.randint(0, len(units))
            units[at:at] = second
        code = GaussCode(units)
        out.append(code.rotated(rng.randrange(len(code))))
    return out


def _signed_random_codes():
    rng = random.Random(4096)
    fixtures = [parse_gauss(TREFOIL), parse_gauss(EIGHT_20), parse_gauss(RII_PAIR)]
    return fixtures + [random_code(rng, rng.randint(0, 14)) for _ in range(400)]


RII_CORPORA = {
    "random": _signed_random_codes,
    "padded_braid": _padded_braid_codes,
    "chain_heavy": _chain_heavy_codes,
}


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_canonical_rotation_matches_full_scan(corpus):
    rng = random.Random(len(corpus))
    for code in CORPORA[corpus]():
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
def test_genus_and_cycles_match_printed_decomposition(corpus):
    for code in CORPORA[corpus]():
        walks, arc_owner = reference_cycles(code)
        decomposition = cycles(code)
        assert tuple(c.serialize() for c in decomposition.cycles) == walks
        assert decomposition.arc_owner == arc_owner
        assert genus(code) == reference_genus(code)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_orbit_predicates_match_arc_owners(corpus):
    for code in CORPORA[corpus]():
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
def test_rii_reduce_matches_round_by_round(corpus):
    cancelled = 0
    for code in RII_CORPORA[corpus]():
        ours = rii_reduce(code)
        theirs = reference_rii_reduce(code)
        assert ours.n == theirs.n, code
        assert canonical_form(ours) == canonical_form(theirs), code
        assert not _cancellable_pairs(ours), code
        if not _cancellable_pairs(code):
            assert ours is code
        cancelled += code.n - ours.n
    assert cancelled > 0  # every corpus exercises cancellation
