"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import bisect
import random

from gaussgenus import (
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    UNSIGNED,
    GaussCode,
    Unit,
    parse_gauss,
)
from gaussgenus.circles import _circles

TREFOIL = "O1-U2-O3-U1-O2-U3-"
TREFOIL_CYCLES = ("O1-U1-O2-U2-O3-U3-", "U1-O1-U2-O2-U3-O3-")

EIGHT_20 = "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-"
EIGHT_20_TRIMMED_45 = "O1+U2-U3+U1+U6-O7-U8-O2-O6-U7-O3+O8-"
EIGHT_20_MOVED_45 = "O1+U12+U2-U3+U9-O9-O10+O11-O12+U1+U6-O7-U8-O2-U11-O6-U7-U10+O3+O8-"
EIGHT_20_GUIDE_45 = "U3+U1+O1+U2-O2-O6-U6-O7-U7-O3+"

RII_PAIR = "O1+U2-U1+O2-"

DT_GENUS3 = "-12 26 22 -14 28 -2 -20 30 -24 8 -32 -16 4 10 18 -6"
DT_GENUS5_MISPRINT = "4 10 -26 -22 -18 2 20 -26 -32 -28 14 30 -6 -12 -8 24"
DT_GENUS5 = "4 10 -26 -22 -18 2 20 -16 -32 -28 14 30 -6 -12 -8 24"


def assert_as_validated(derived):
    """A code built without checks equals the validated build of its units."""
    validated = GaussCode(derived.units)
    assert type(derived.units) is tuple, derived
    assert type(derived.packed) is tuple, derived
    assert derived.packed == validated.packed, derived
    assert derived.partner == validated.partner, derived
    assert derived.labels == validated.labels, derived
    for label in validated.labels:
        assert derived.positions_of(label) == validated.positions_of(label), derived
    assert derived.signed is validated.signed, derived
    # A circle cache carried over from another code would show here.
    assert _circles(derived) == _circles(validated), derived


def random_code(rng, n, signed=True) -> GaussCode:
    """Uniform random chord diagram with random passes and signs."""
    pos = list(range(2 * n))
    rng.shuffle(pos)
    units = [None] * (2 * n)
    for lab in range(1, n + 1):
        a, b = pos[2 * lab - 2], pos[2 * lab - 1]
        if rng.random() < 0.5:
            a, b = b, a
        sign = rng.choice((POSITIVE, NEGATIVE)) if signed else UNSIGNED
        units[a] = Unit(OVER, lab, sign)
        units[b] = Unit(UNDER, lab, sign)
    return GaussCode(units)


def braid_closure_code(word) -> GaussCode | None:
    """Gauss code of the closure of a braid word, or None for a link.

    ``word`` lists letters (j, eps): generator sigma_j, eps = 1 for a
    positive crossing and -1 for a negative one.
    """
    passes = []
    slot, t = 1, 0
    start = (slot, t)
    while True:
        j, eps = word[t]
        if slot in (j, j + 1):
            left = slot == j
            over = (eps == 1) == left  # positive letter: left strand on top
            passes.append((t, OVER if over else UNDER, POSITIVE if eps == 1 else NEGATIVE))
            slot = j + 1 if left else j
        t += 1
        if t == len(word):
            t = 0
        if (slot, t) == start:
            break
    if len(passes) != 2 * len(word):
        return None  # closure has several components
    relabel: dict[int, int] = {}
    units = [
        Unit(kind, relabel.setdefault(letter, len(relabel) + 1), sign)
        for letter, kind, sign in passes
    ]
    return GaussCode(units)


def braid_knot_code(rng, max_strands=5, max_len=12) -> GaussCode:
    """Gauss code of a random braid closure with one component.

    Unlike :func:`random_code`, the output is always planar-realizable, so
    knot invariants must survive the moves applied to it.
    """
    while True:
        strands = rng.randint(2, max_strands)
        length = rng.randint(2, max_len)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)]
        code = braid_closure_code(word)
        if code is not None:
            return code


def torus_code(p, q) -> GaussCode:
    """T(p, q) as the closure of (sigma_1 ... sigma_{p-1})^q, gcd(p, q) = 1.

    The code is invariant under a rotation by 2(p - 1) units up to relabeling,
    so it has q tied canonical rotations.
    """
    code = braid_closure_code([(j, 1) for j in range(1, p)] * q)
    assert code is not None, f"T({p},{q}) is a link"
    return code


# -- corpora of the kernel tests ----------------------------------------------
#
# Each generator is run once per session by the ``corpora`` fixture of
# conftest.py; the kernel tests read its tuples.


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


# -- realizability oracle ------------------------------------------------------


def supporting_genus(code: GaussCode) -> int:
    """Genus of the closed surface the diagram embeds in, by tracing faces.

    Each crossing is a 4-valent vertex whose half-edges, counterclockwise,
    are over-out, under-out, over-in, under-in for a '+' crossing, with the
    two under half-edges swapped for a '-' crossing.  Half-edge 2i enters
    position i and 2i + 1 leaves it; the edge from position i to i + 1 joins
    2i + 1 to 2(i + 1).  Faces are the orbits of "cross the edge, then turn
    to the next half-edge"; with n vertices and 2n edges, Euler's formula
    gives g = (2 + n - faces) / 2.  A planar-realizable code gives 0.
    """
    m = len(code.units)
    if m == 0:
        return 0
    rot = [0] * (2 * m)
    for o in range(m):
        if code.units[o].kind != OVER:
            continue
        u = code.partner[o]
        if code.units[o].sign == POSITIVE:
            ring = (2 * o + 1, 2 * u + 1, 2 * o, 2 * u)
        else:
            ring = (2 * o + 1, 2 * u, 2 * o, 2 * u + 1)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            rot[a] = b

    def across(h):
        i = h // 2
        return 2 * ((i + 1) % m) if h % 2 else 2 * ((i - 1) % m) + 1

    seen = [False] * (2 * m)
    faces = 0
    for h in range(2 * m):
        if seen[h]:
            continue
        faces += 1
        while not seen[h]:
            seen[h] = True
            h = rot[across(h)]
    doubled = 2 + code.n - faces
    assert doubled % 2 == 0 and doubled >= 0, (code, faces)
    return doubled // 2


# -- knot-group fingerprint --------------------------------------------------
#
# Alexander polynomial of the Wirtinger presentation, evaluated over GF(p)
# at a root of unity and canonicalized up to the unit group {+-t^k}.  Equal
# knots give equal fingerprints, so any knot-type-preserving operation on a
# realizable code must keep it fixed.

_FIELDS = ((20011, 78), (30013, 9686))
_UNIT_SETS = []
for _p, _t in _FIELDS:
    units, v = set(), 1
    while v not in units:
        units.update((v, _p - v))
        v = v * _t % _p
    _UNIT_SETS.append(sorted(units))


def _det_mod(matrix, p):
    m = [row[:] for row in matrix]
    det = 1
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, len(m)):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, len(m)):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def _alexander_eval(code: GaussCode, t: int, p: int) -> int:
    if code.n == 0:
        return 1 % p
    unders = sorted(i for i, u in enumerate(code.units) if u.kind == UNDER)
    narcs = len(unders)

    def arc_of(pos):
        return bisect.bisect_left(unders, pos) % narcs

    rows = [[0] * narcs for _ in range(narcs)]
    for r, label in enumerate(sorted(code.labels)):
        a, b = code.positions_of(label)
        over_pos, under_pos = (a, b) if code.units[a].kind == OVER else (b, a)
        j = unders.index(under_pos)
        arc_in, arc_out, arc_over = j, (j + 1) % narcs, arc_of(over_pos)
        if code.units[a].sign == POSITIVE:
            rows[r][arc_over] += 1 - t
            rows[r][arc_in] += t
            rows[r][arc_out] -= 1
        else:
            rows[r][arc_over] += t - 1
            rows[r][arc_in] += 1
            rows[r][arc_out] -= t
    return _det_mod([row[1:] for row in rows[1:]], p)


def knot_fingerprint(code: GaussCode) -> tuple[int, ...]:
    """The Alexander polynomial of a realizable code's knot at a few points
    over GF(p), each up to a unit of the field.

    Only a knot invariant on realizable codes: on a virtual code the first
    elementary ideal of the Alexander module need not be principal, so the
    one minor read here can change under RII.
    """
    out = []
    for (p, t), units in zip(_FIELDS, _UNIT_SETS):
        d = _alexander_eval(code, t, p)
        out.append(0 if d == 0 else min(d * u % p for u in units))
    return tuple(out)


# The field of :func:`alexander_span`, large enough that no coefficient of a
# test knot's Alexander polynomial is a multiple of it.
_SPAN_PRIME = 2**31 - 1


def _interpolate(xs, ys, p):
    """Coefficients, lowest degree first, of the polynomial of degree below
    len(xs) through the points (xs, ys) over GF(p) (Lagrange)."""
    k = len(xs)
    master = [1]  # the product of (t - x) over xs
    for x in xs:
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    coeffs = [0] * k
    for xi, yi in zip(xs, ys):
        basis, carry = [0] * k, 0  # master / (t - xi), by synthetic division
        for d in range(k, 0, -1):
            carry = (master[d] + carry * xi) % p
            basis[d - 1] = carry
        at_xi = sum(c * pow(xi, d, p) for d, c in enumerate(basis)) % p
        scale = yi * pow(at_xi, p - 2, p) % p
        coeffs = [(a + scale * b) % p for a, b in zip(coeffs, basis)]
    return coeffs


def alexander_span(code: GaussCode) -> int:
    """The span of the Alexander polynomial of a realizable code's knot:
    its highest less its lowest degree.

    The Alexander minor of :func:`_alexander_eval` has degree at most n - 1
    in t, so n + 1 evaluations over GF(p) and a Lagrange interpolation give
    its coefficients.  span(Delta) <= 2 * (knot genus) <= 2 * genus(code).
    """
    xs = list(range(1, code.n + 2))
    ys = [_alexander_eval(code, x, _SPAN_PRIME) for x in xs]
    degrees = [d for d, c in enumerate(_interpolate(xs, ys, _SPAN_PRIME)) if c]
    return degrees[-1] - degrees[0]


# -- virtual invariants ------------------------------------------------------


def odd_writhe(code: GaussCode) -> int:
    """Kauffman's odd writhe: the sum of the signs of the odd chords.

    A chord is odd when an odd number of units lie between its two passes
    (on either side: the other units are even in number).  It is an
    invariant of virtual knots, and 0 on realizable codes, whose chords are
    all even.
    """
    total = 0
    for label in code.labels:
        a, b = code.positions_of(label)
        if (b - a) % 2 == 0:
            total += 1 if code.units[a].sign == POSITIVE else -1
    return total


def writhe_polynomial(code: GaussCode) -> tuple[tuple[int, int], ...]:
    """The writhe (affine index) polynomial, sum of sign(c) (t^ind(c) - 1)
    over the chords c, as (exponent, coefficient) pairs with nonzero
    coefficients, by exponent.

    In the Gauss diagram each chord is an arrow from its O pass to its U
    pass.  The index of chord c sums, over the chords d that cross it, the
    sign of d, counted + when d's U pass lies on the arc that runs forward
    from c's O pass to c's U pass and - when its O pass does.  It is an
    invariant of virtual knots; on a realizable code every index is 0, so
    the polynomial is 0 (the empty tuple).
    """
    m = len(code.units)
    arrows = []  # (O position, U position, sign) of each chord
    for i, u in enumerate(code.units):
        if u.kind == OVER:
            arrows.append((i, code.partner[i], 1 if u.sign == POSITIVE else -1))
    terms: dict[int, int] = {}
    for a, b, sign in arrows:
        index = 0
        for oa, ub, other in arrows:
            head = (ub - a) % m < (b - a) % m  # on the arc a -> b
            tail = (oa - a) % m < (b - a) % m
            if head != tail and (oa, ub) != (a, b):
                index += other if head else -other
        terms[index] = terms.get(index, 0) + sign
        terms[0] = terms.get(0, 0) - sign
    return tuple(sorted((e, c) for e, c in terms.items() if c))
