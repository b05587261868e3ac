"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check here is exact; the subject is purely combinatorial.
"""

import random
from concurrent.futures import ThreadPoolExecutor

from gaussgenus import (
    DtCodeError,
    GaussCode,
    SearchConfig,
    boundary_components,
    bridge_replace,
    chord_removal_drops_genus,
    cycles,
    dt_to_gauss,
    enumerate_bridges,
    find_bridge,
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
from helpers import (
    DT_GENUS3,
    DT_GENUS5,
    DT_GENUS5_MISPRINT,
    EIGHT_20,
    EIGHT_20_MOVED_45,
    EIGHT_20_TRIMMED_45,
    RII_PAIR,
    TREFOIL,
    TREFOIL_CYCLES,
    random_code,
)


def _report(number, title, ok):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_trefoil_fixture():
    code = parse_gauss(TREFOIL)
    decomposition = cycles(code)
    ok = (
        decomposition.s == 2
        and tuple(c.serialize() for c in decomposition.cycles) == TREFOIL_CYCLES
        and genus(code) == 1
    )
    _report(1, "trefoil cycles and genus", ok)


def test_criterion_2_eight_20_fixture():
    code = parse_gauss(EIGHT_20)
    bridges = enumerate_bridges(code, "over", min_len=2)
    ok = (
        genus(code) == 3
        and genus_oracle(code) == 3
        and [set(b.labels) for b in bridges] == [{8, 1}, {4, 5}, {2, 6}]
    )
    _report(2, "8_20 genus and over-bridges", ok)


def test_criterion_3_move_byte_exactness():
    code = parse_gauss(EIGHT_20)
    outcome = bridge_replace(code, find_bridge(code, (4, 5)))
    expected = parse_gauss(EIGHT_20_MOVED_45)
    rotations = {expected.serialize(r) for r in range(len(expected))}
    ok = (
        outcome.result.serialize() in rotations
        and str(outcome.anchor) == "U3+"
        and outcome.pattern_labels == (3, 2)
        and remove_chords(code, (4, 5)).serialize() == EIGHT_20_TRIMMED_45
    )
    _report(3, "bridge replacement output", ok)


def test_criterion_4_genus_claims_around_move():
    code = parse_gauss(EIGHT_20)
    bridge = find_bridge(code, (4, 5))
    outcome = bridge_replace(code, bridge)
    ok = genus(outcome.result) == 2 and strictly_decreases(code, bridge) is True
    _report(4, "move detects genus 2", ok)


def test_criterion_5_property_suite():
    rng = random.Random(20260810)
    codes = 0
    violations = []

    def check(name, condition):
        if not condition:
            violations.append(name)

    while codes < 1000:
        code = random_code(rng, rng.randint(0, 12))
        codes += 1
        s = cycles(code).s
        check("(a) parity", (code.n + s) % 2 == 1)
        check("(b) oracle genus", genus(code) == genus_oracle(code))
        check("(b) oracle boundary", boundary_components(code) == s + 1)
        for label in sorted(code.labels):
            drop = genus(code) - genus(remove_chords(code, {label}))
            check("(c) removal step", drop in (0, 1))
            check(
                "(c) removal prediction",
                drop == (1 if chord_removal_drops_genus(code, label) else 0),
            )
        for bridge in enumerate_bridges(code, "both", min_len=1):
            outcome = bridge_replace(code, bridge)
            open_genus = genus(remove_chords(code, bridge.labels))
            check("(d) replacement genus", genus(outcome.result) == open_genus)
            check("(d) never increases", genus(outcome.result) <= genus(code))
            check(
                "(e) strictness predicate",
                strictly_decreases(code, bridge) == (genus(code) > knotoid_genus(code, bridge)),
            )
            check("(f) result validity", isinstance(GaussCode(outcome.result.units), GaussCode))
        check("(g) rii monotone", genus(rii_reduce(code)) <= genus(code))
    ok = codes >= 1000 and not violations
    if violations:
        print("violations:", sorted(set(violations)))
    _report(5, f"property suite over {codes} random codes", ok)


def test_criterion_6_dt_fixtures():
    sixteen = dt_to_gauss(parse_dt(DT_GENUS3))
    rejected = False
    diagnostic = ""
    try:
        parse_dt(DT_GENUS5_MISPRINT)
    except DtCodeError as err:
        rejected = True
        diagnostic = str(err)
    corrected = dt_to_gauss(parse_dt(DT_GENUS5))
    ok = (
        sixteen.n == 16
        and genus(sixteen) == 3
        and rejected
        and "duplicate 26" in diagnostic
        and "missing 16" in diagnostic
        and genus(corrected) == 5
    )
    _report(6, "DT import fixtures", ok)


def test_criterion_7_search():
    code = parse_gauss(EIGHT_20)
    config = SearchConfig(max_depth=1)
    first = search(code, config)
    repeat = search(code, config)
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda _: search(code, config), range(8)))
    ok = (
        first.best_genus == 2
        and repeat == first
        and all(r == first for r in concurrent)
    )
    _report(7, "greedy search determinism", ok)


def test_criterion_8_rii():
    pair = parse_gauss(RII_PAIR)
    reduced = rii_reduce(pair)
    trefoil = parse_gauss(TREFOIL)
    ok = (
        genus(pair) == 1
        and reduced.n == 0
        and genus(reduced) == 0
        and rii_reduce(trefoil) == trefoil
    )
    _report(8, "RII reduction fixtures", ok)
