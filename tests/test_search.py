"""Move-sequence search: fixtures, determinism, monotonicity."""

import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from gaussgenus import (
    GaussCodeError,
    SearchConfig,
    canonical_form,
    genus,
    parse_gauss,
    search,
    strictly_decreases,
)
from helpers import (
    EIGHT_20,
    TREFOIL,
    alexander_span,
    braid_knot_code,
    knot_fingerprint,
    random_code,
    torus_code,
)

EIGHT = parse_gauss(EIGHT_20)


def test_eight_20_greedy_depth_one():
    result = search(EIGHT, SearchConfig(max_depth=1))
    assert result.best_genus == 2
    assert result.nodes_expanded == 1
    assert len(result.move_trace) == 1
    assert result.move_trace[0].genus_after == 2


def test_unbounded_beam_is_exhaustive():
    # No beam keeps every new node, as a beam wider than any frontier does.
    rng = random.Random(8)
    for code in [EIGHT, *(random_code(rng, rng.randint(3, 8)) for _ in range(6))]:
        for depth in (1, 2, 3):
            wide = search(code, SearchConfig(max_depth=depth, beam_width=10**6))
            assert search(code, SearchConfig(max_depth=depth)) == wide


def test_trefoil_is_already_optimal():
    trefoil = parse_gauss(TREFOIL)
    result = search(trefoil, SearchConfig(max_depth=4))
    assert result.best_genus == 1
    assert result.best_code == canonical_form(trefoil)
    assert result.move_trace == ()


def test_empty_code():
    assert search(parse_gauss("")).best_genus == 0


def test_requires_signed_code():
    with pytest.raises(GaussCodeError, match="signed"):
        search(parse_gauss("O1?U1?"))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)
    with pytest.raises(ValueError):
        SearchConfig(beam_width=0)
    with pytest.raises(TypeError):  # one beam search; there is no strategy to pick
        SearchConfig(strategy="greedy")


@pytest.mark.parametrize(
    "field, value",
    [
        ("beam_width", 2.5),
        ("beam_width", "3"),
        ("beam_width", True),
        ("max_depth", 2.5),
        ("min_bridge_len", 2.0),
    ],
)
def test_config_rejects_values_that_are_not_ints(field, value):
    # Before the check, a float beam or depth failed only inside search.
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        SearchConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("apply_rii", "no"), ("apply_rii", 0), ("only_strict", None)]
)
def test_config_rejects_flags_that_are_not_bools(field, value):
    # Any truthy value would otherwise switch RII on, and None would be stored.
    with pytest.raises(GaussCodeError, match=f"{field} must be a bool, not {value!r}"):
        SearchConfig(**{field: value})


def test_trace_genus_is_non_increasing():
    result = search(EIGHT, SearchConfig(max_depth=3))
    genera = [genus(EIGHT)] + [step.genus_after for step in result.move_trace]
    assert all(a >= b for a, b in zip(genera, genera[1:]))
    assert result.best_genus == genera[-1]


def test_deterministic_across_runs_and_threads():
    config = SearchConfig(max_depth=2)
    baseline = search(EIGHT, config)
    assert search(EIGHT, config) == baseline
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda _: search(EIGHT, config), range(12)))
    assert all(r == baseline for r in results)


def test_monotone_in_depth_and_beam():
    by_depth = [search(EIGHT, SearchConfig(max_depth=d)).best_genus for d in (1, 2, 3)]
    assert by_depth == sorted(by_depth, reverse=True)
    by_beam = [
        search(EIGHT, SearchConfig(max_depth=2, beam_width=w)).best_genus
        for w in (1, 2, 4)
    ] + [search(EIGHT, SearchConfig(max_depth=2)).best_genus]
    assert by_beam == sorted(by_beam, reverse=True)


def test_only_strict_expands_only_strict_moves():
    result = search(EIGHT, SearchConfig(max_depth=2, only_strict=True))
    assert result.best_genus == 2
    # replay the trace and check each chosen bridge predicted a strict drop
    code = canonical_form(EIGHT)
    for step in result.move_trace:
        from gaussgenus import bridge_replace, find_bridge, rii_reduce

        bridge = find_bridge(code, step.bridge_labels)
        assert bridge.kind == step.bridge_kind
        assert strictly_decreases(code, bridge)
        code = canonical_form(rii_reduce(bridge_replace(code, bridge).result))
    assert genus(code) == result.best_genus


def test_fixed_point_idempotence():
    config = SearchConfig(max_depth=2)
    code = EIGHT
    seen = set()
    while True:
        result = search(code, config)
        key = result.best_code.serialize()
        if key in seen:
            break
        seen.add(key)
        code = result.best_code
    again = search(result.best_code, config)
    assert again.best_genus == result.best_genus


def test_search_never_worsens_random_codes():
    rng = random.Random(55)
    for _ in range(25):
        code = random_code(rng, rng.randint(1, 8))
        result = search(code, SearchConfig(max_depth=2))
        assert result.best_genus <= genus(code)
        assert genus(result.best_code) == result.best_genus


def test_without_rii_each_step_keeps_every_crossing():
    rng = random.Random(64)
    steps = 0
    for code in [EIGHT, *(random_code(rng, rng.randint(2, 9)) for _ in range(40))]:
        result = search(code, SearchConfig(max_depth=3, beam_width=3, apply_rii=False))
        n = code.n
        for step in result.move_trace:
            assert step.rii_cancelled == 0
            assert step.crossings_after == n - len(step.bridge_labels) + 2 * len(step.pattern_labels)
            n = step.crossings_after
            steps += 1
    assert steps > 40


def test_search_stops_at_the_first_empty_depth():
    # Every child of this code is the code again, so depth 1 adds no node and
    # a depth bound far past any reachable depth must not be walked out.
    code = parse_gauss("O1+U2+O2+U1+")
    result = search(code, SearchConfig(max_depth=10**12))
    assert result == search(code, SearchConfig(max_depth=1))
    assert result.nodes_expanded == 1


def test_result_converts_to_dict():
    result = search(EIGHT, SearchConfig(max_depth=2))
    as_dict = dataclasses.asdict(result)
    assert as_dict["best_code"] == result.best_code
    assert as_dict["move_trace"][0]["genus_after"] == result.move_trace[0].genus_after


def test_search_keeps_the_knot_type_of_braid_closures():
    # Each move and RII cancellation keeps the knot type of a realizable
    # code, so the best code a search returns has its root's knot type.
    rng = random.Random(2011)
    moved = 0
    for _ in range(20):
        code = braid_knot_code(rng)
        result = search(code, SearchConfig(max_depth=2, beam_width=4))
        assert knot_fingerprint(result.best_code) == knot_fingerprint(code), code
        moved += bool(result.move_trace)
    assert moved >= 15, moved


def test_alexander_span_fixtures():
    assert alexander_span(parse_gauss("")) == 0
    assert alexander_span(parse_gauss(TREFOIL)) == 2
    assert alexander_span(EIGHT) == 4
    assert alexander_span(torus_code(3, 5)) == 8
    assert alexander_span(torus_code(3, 7)) == 12


def test_search_never_goes_below_the_alexander_bound():
    # span(Delta) <= 2 * (knot genus) <= 2 * (Seifert genus of any diagram of
    # the knot), and moves keep the knot type of a realizable code.
    rng = random.Random(2011)
    certified = 0
    for _ in range(20):
        code = braid_knot_code(rng)
        span = alexander_span(code)
        best = search(code, SearchConfig(max_depth=2, beam_width=4)).best_genus
        assert 2 * best >= span, code
        certified += 2 * best == span
    assert certified >= 15, certified


@pytest.mark.parametrize("p, q", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5)])
def test_search_meets_the_alexander_bound_on_torus_closures(p, q):
    code = torus_code(p, q)
    result = search(code, SearchConfig(max_depth=2, beam_width=4))
    assert 2 * result.best_genus == alexander_span(code) == (p - 1) * (q - 1)
