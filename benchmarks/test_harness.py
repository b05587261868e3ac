"""Fast self-test of the benchmark harness (not part of the tier-1 suite).

    python -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gaussgenus as gg  # noqa: E402
import gaussgenus.cli  # noqa: E402,F401
import pytest  # noqa: E402

import corpus  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _small_search_load():
    config = gg.SearchConfig(max_depth=2)

    def build(gg_, rng):
        texts = [corpus.braid_knot(rng, 3, 6), corpus.EIGHT_20, corpus.random_diagram(rng, 7)]
        items = [workloads._oracle_item(gg_, t, i, config) for i, t in enumerate(texts)]
        items.append(dataclasses.replace(items[1], text=corpus.rotate(items[1].text, 5)))
        return items

    return workloads.SearchWorkload(gg, random.Random(1), build)


def test_corpus_is_a_function_of_the_seed():
    a = workloads.make("knots", gg, 3, "")
    b = workloads.make("knots", gg, 3, "")
    c = workloads.make("knots", gg, 4, "")
    assert [it.text for it in a.items] == [it.text for it in b.items]
    assert [it.text for it in a.items] != [it.text for it in c.items]


def test_braid_closures_are_knots_of_the_requested_size():
    rng = random.Random(5)
    for strands in range(2, 9):
        for letters in (4, 9, 14):
            code = gg.parse_gauss(corpus.braid_knot(rng, strands, letters, pairs=1))
            assert strands - 1 <= code.n - 2 <= max(letters, strands - 1)
    torus = gg.parse_gauss(corpus.closure_code(corpus.torus_word(3, 4), 3))
    assert (torus.n, gg.genus(torus)) == (8, 3)


def test_self_times_sum_to_root_spans_and_counts_match_results():
    load = _small_search_load()
    tracer = tracing.Tracer()
    plain, traced = workloads.traced_pass(load, tracer)
    assert plain.tally.failed == traced.tally.failed == 0
    spans = tracer.spans
    assert None not in spans
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    selfs = tracing.self_times(spans)
    assert sum(s for _, s in selfs.values()) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert all(s > -1e-9 for _, s in selfs.values())
    assert {code_id for *_, code_id in spans} == set(range(load.size))

    results = [gg.search(gg.parse_gauss(it.text), it.config) for it in load.items]
    counts = tracer.counts
    assert counts["search.nodes_expanded"] == sum(r.nodes_expanded for r in results)
    assert counts["search.duplicates_pruned"] == sum(r.duplicates_pruned for r in results)
    assert selfs["search.search"][0] == len(results)
    assert counts["search.children"] == selfs["moves.bridge_replace"][0] > 0
    assert counts["codes.units_parsed"] == sum(len(corpus.split_units(it.text)) for it in load.items)


def test_bindings_are_restored_after_a_traced_pass():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.BINDINGS}
    workloads.traced_pass(_small_search_load(), tracing.Tracer())
    assert before == {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.BINDINGS}


def test_closed_loop_ends_on_time_and_samples_cheap_entries_every_round():
    class Load:
        size = 2 * workloads.ROUNDS

        def op(self, k, run, tracer=None):
            start = time.perf_counter()
            time.sleep(0.001 if k == 0 else 2 * workloads.CHEAP_SECONDS)
            run.ops.append((k, start, start, time.perf_counter(), 1))

    probes = []
    began = time.perf_counter()
    run = workloads.closed_loop(Load(), 1.0, lambda: probes.append(time.perf_counter()))
    elapsed = time.perf_counter() - began
    made = [op[0] for op in run.ops]
    assert made[: Load.size] == list(range(Load.size))
    later = made[Load.size :]
    assert later[:5] == [0, 4, 0, 1, 5]  # rounds 0 and 1; entry 0 is cheap
    assert 1.0 <= elapsed < 1.0 + 3 * workloads.CHEAP_SECONDS
    assert probes[0] < run.ops[0][1]
    assert all(b - a >= workloads.PROBE_SECONDS for a, b in zip(probes, probes[1:]))
    run = workloads.closed_loop(Load(), 0.0, lambda: None)
    assert len(run.ops) == Load.size


def test_every_entry_weighs_the_same_in_the_pooled_figures():
    run = workloads.Run()
    run.ops = [(0, 0.0, 0.0, 1.0, 1), (1, 0.0, 0.0, 3.0, 1), (1, 0.0, 0.0, 3.0, 1)]
    assert run.weights() == [1.0, 0.5, 0.5]
    lat, w = run.latencies, run.weights()
    assert bench.band_quantile(lat, w, 0.5) == pytest.approx(2.0)
    assert bench.band_quantile(lat, w, 0.9) == pytest.approx(3.0)
    assert bench.band_quantile([1.0, 3.0], [1.0, 1.0], 0.5) == pytest.approx(2.0)


def test_search_checks_fire_on_wrong_results():
    item = workloads._oracle_item(gg, corpus.EIGHT_20, 0, gg.SearchConfig(max_depth=1))
    good = gg.search(gg.parse_gauss(item.text), item.config)
    assert workloads.check_search(gg, item, good, {}) == []

    lied = dataclasses.replace(good, best_genus=good.best_genus - 1)
    assert any("oracle" in p for p in workloads.check_search(gg, item, lied, {}))

    worse = gg.parse_gauss(corpus.random_diagram(random.Random(2), 12))
    grown = dataclasses.replace(good, best_code=worse, best_genus=gg.genus_oracle(worse))
    assert gg.genus_oracle(worse) > item.genus
    assert any("above input" in p for p in workloads.check_search(gg, item, grown, {}))

    first = {}
    assert workloads.check_search(gg, item, good, first) == []
    drifted = dataclasses.replace(good, nodes_expanded=good.nodes_expanded + 1)
    assert any("repeated" in p for p in workloads.check_search(gg, item, drifted, first))


def test_survey_checks_fire_on_wrong_lines():
    lines = [
        workloads._oracle_item(gg, corpus.TREFOIL, 0),
        workloads.Item("O1+U1+O2+", 1, None, 1),
    ]
    good = [
        {"op": "genus", "input": corpus.TREFOIL, "n": 3, "s": 2, "genus": 1},
        {"op": "genus", "input": "O1+U1+O2+", "error": "label 2 appears 1 time(s)"},
    ]

    def check(reports, status=1, err=""):
        out = "".join(json.dumps(r) + "\n" for r in reports)
        problems, _ = workloads.check_survey(lines, status, out, err)
        return [p for ps in problems for p in ps]

    assert check(good) == []
    assert check(good, status=0)
    assert check(good, err="gaussgenus: boom")
    assert check(good[:1])
    assert check([{**good[0], "genus": 2}, good[1]])
    assert check([{**good[0], "s": 3}, good[1]])
    assert check([good[0], {"op": "genus", "input": "O1+U1+O2+", "n": 1, "s": 2, "genus": 0}])
    assert check([{**good[0], "error": "surprise"}, good[1]])
    assert check([good[1], good[0]])
    problems, _ = workloads.check_survey(lines, RuntimeError("crash"), "", "")
    assert all(problems)


def test_planted_malformed_lines_are_rejected_by_the_parser():
    rng = random.Random(9)
    code = corpus.random_diagram(rng, 10)
    for variant in range(4):
        with pytest.raises(gg.GaussCodeError):
            gg.parse_gauss(corpus.malformed(rng, code, variant))
