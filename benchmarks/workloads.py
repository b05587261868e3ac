"""The three benchmark workloads: corpus, closed loop and output checks.

The load is a closed loop with one caller in one process: the next
operation starts when the previous one has returned.

- ``survey``: ``gaussgenus --format json batch <file> --op genus`` through
  ``cli.main``, one batch file per call.  It exercises parsing, circle
  orbits and CLI rendering, and never reaches ``canonical_form``, ``moves``
  or ``search``: it is the workload that bypasses the search layers.
- ``reduce``: ``search`` with a beam of 4 to depth 3 on verbose diagrams
  (braid closures padded with cancelling pairs, random virtual codes).  Most
  of its time goes to ``canonical_rotation`` calls made by ``rii_reduce``.
- ``knots``: exhaustive ``search`` to depth 3 on small realizable braid
  closures, rotation-symmetric torus closures and 8_20 at depth 4.  Its wide,
  duplicate-heavy frontiers load bridge enumeration, bridge replacement and
  deduplication; symmetric codes are the worst case for canonicalization.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import corpus

SURVEY_RANDOM = 1200  # random virtual diagrams, n log-uniform on [8, 160]
SURVEY_BRAIDS = 120  # braid closures, 3-8 strands, 8-40 letters
SURVEY_MALFORMED = 12  # about 1% of the lines
SURVEY_CHUNK = 20  # at most this many lines per batch file, one cli.main call each

# The search workloads run a fixed table of diagrams, and the seed picks only
# their presentation (labels, starting unit) and order.  Search costs per
# code are heavy-tailed (0.001-3 s), so a fresh draw per seed moved the
# knots timings by 20-36% between seeds, more than the regressions the
# benchmark has to resolve.
TABLE_SEED = 2011
REDUCE_PADDED = 30  # braid closures with cancelling pairs, n 12-20
REDUCE_RANDOM = 30  # random signed virtual codes, n 10-16
KNOTS_STRANDS = (3, 4, 5, 6)
KNOTS_LETTERS = (4, 5, 6, 7, 8) * 2 + tuple(range(9, 13))  # cheap sizes twice
REPEATS = 4  # table entries searched twice per pass, in two presentations
PROBE_SECONDS = 1.0  # a timed run calls its probe about this often
ROUNDS = 4  # rounds per pass after the first
CHEAP_SECONDS = 0.05  # an entry faster than this runs in every round


@dataclass
class Item:
    """One corpus entry with what its output is checked against."""

    text: str
    n: int
    genus: int | None  # oracle genus of the input; None for a planted error
    group: int  # entries of one group must give identical search results
    config: object = None  # SearchConfig for the search workloads


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems))


def _oracle_item(gg, text: str, group: int, config=None) -> Item:
    code = gg.parse_gauss(text)
    return Item(text, code.n, gg.genus_oracle(code), group, config)


# -- corpora -----------------------------------------------------------------


def survey_corpus(gg, rng) -> list[list[Item]]:
    """Batch files of the survey, as lists of lines with expected results."""
    texts = [corpus.random_diagram(rng, n) for n in corpus.log_schedule(SURVEY_RANDOM, 8, 160)]
    letters = corpus.log_schedule(SURVEY_BRAIDS, 8, 40)
    texts += [corpus.braid_knot(rng, 3 + i % 6, length) for i, length in enumerate(letters)]
    texts += [gg.dt_to_gauss(gg.parse_dt(dt)).serialize() for dt in corpus.DT_FIXTURES]
    texts += [corpus.TREFOIL, corpus.EIGHT_20]
    items = [_oracle_item(gg, text, i) for i, text in enumerate(texts)]
    for i, victim in enumerate(rng.sample(items, SURVEY_MALFORMED)):
        bad = corpus.malformed(rng, victim.text, i % 4)
        items.append(Item(bad, len(corpus.split_units(bad)) // 2, None, len(items)))
    # Deal the lines round-robin in generated order, which runs through each
    # size schedule in turn.  Every batch file then holds the same mix of
    # sizes, so the batch latency does not depend on how a seed's diagrams of
    # one size happened to fall.
    files = -(-len(items) // SURVEY_CHUNK)
    return [items[i::files] for i in range(files)]


def _present(rng, gg, table: list[str], config) -> list[Item]:
    # The seed picks each entry's presentation and the order.  The first
    # REPEATS entries come again at the end in a new presentation: search
    # canonicalizes its root, so they must reproduce the first result.
    order = list(range(len(table)))
    rng.shuffle(order)
    return [
        _oracle_item(gg, corpus.present(rng, table[k]), k, config)
        for k in order + list(range(REPEATS))
    ]


def reduce_corpus(gg, rng) -> list[Item]:
    table = random.Random(f"reduce-table:{TABLE_SEED}")
    texts = []
    for i in range(REDUCE_PADDED):
        strands = 3 + i % 3
        letters = 8 + (i * 5 // REDUCE_PADDED)  # 8-12
        pairs = 2 + (i * 7 // REDUCE_PADDED) % 3  # 2-4
        texts.append(corpus.braid_knot(table, strands, letters, pairs))
    for i in range(REDUCE_RANDOM):
        texts.append(corpus.random_diagram(table, 10 + (i * 7 // REDUCE_RANDOM)))  # 10-16
    return _present(rng, gg, texts, gg.SearchConfig(max_depth=3, beam_width=4))


def knots_corpus(gg, rng) -> list[Item]:
    table = random.Random(f"knots-table:{TABLE_SEED}")
    texts = [
        corpus.braid_knot(table, strands, letters)
        for strands in KNOTS_STRANDS
        for letters in KNOTS_LETTERS
    ]
    texts += [corpus.closure_code(corpus.torus_word(p, q), p) for p, q in corpus.TORUS]
    items = _present(rng, gg, texts, gg.SearchConfig(max_depth=3, beam_width=None))
    eight_20 = corpus.present(rng, corpus.EIGHT_20)
    items.append(_oracle_item(gg, eight_20, len(items), gg.SearchConfig(max_depth=4)))
    return items


# -- checks ------------------------------------------------------------------


def check_survey(lines: list[Item], status, out: str, err: str) -> tuple[list[list[str]], list[dict]]:
    """Problems per input line of one batch call, and the report parsed for
    each line (None where there is none)."""
    problems: list[list[str]] = [[] for _ in lines]
    reports: list[dict | None] = [None] * len(lines)
    if not isinstance(status, int):
        return [[f"batch raised {status!r}"] for _ in lines], reports
    if err:
        problems[0].append(f"unexpected stderr {err[:80]!r}")
    expected_status = 1 if any(it.genus is None for it in lines) else 0
    if status != expected_status:
        problems[0].append(f"exit status {status}, expected {expected_status}")
    out_lines = out.splitlines()
    if len(out_lines) != len(lines):
        problems[0].append(f"{len(out_lines)} output lines for {len(lines)} inputs")
    for i, item in enumerate(lines):
        if i >= len(out_lines):
            problems[i].append("no output line")
            continue
        try:
            rep = json.loads(out_lines[i])
        except ValueError:
            problems[i].append(f"unparsable output {out_lines[i][:80]!r}")
            continue
        reports[i] = rep
        if rep.get("input") != item.text:
            problems[i].append("output out of order")
        elif item.genus is None:
            if "error" not in rep:
                problems[i].append("malformed line accepted")
        elif "error" in rep:
            problems[i].append(f"unexpected error {rep['error']!r}")
        else:
            n, s, g = rep.get("n"), rep.get("s"), rep.get("genus")
            if n != item.n:
                problems[i].append(f"n={n}, expected {item.n}")
            if not isinstance(s, int) or (item.n + s) % 2 == 0:
                problems[i].append(f"n + s is even (s={s})")
            if g != item.genus:
                problems[i].append(f"genus {g}, oracle says {item.genus}")
    return problems, reports


def check_search(gg, item: Item, result, first: dict) -> list[str]:
    """Problems with one search result; ``first`` maps group to first result.

    A result identical to its group's first one is not checked again: the
    checks below are deterministic, and skipping them leaves more of a run
    for the operations.
    """
    best = result.best_code
    text = best.serialize()
    summary = (text, result.best_genus, result.nodes_expanded, result.duplicates_pruned, result.move_trace)
    if item.group in first:
        return [] if first[item.group] == summary else ["repeated code gave a different result"]
    first[item.group] = summary
    problems = []
    oracle = gg.genus_oracle(best)
    if result.best_genus != oracle:
        problems.append(f"best_genus {result.best_genus}, oracle says {oracle}")
    if result.best_genus > item.genus:
        problems.append(f"best_genus {result.best_genus} above input genus {item.genus}")
    if gg.parse_gauss(text) != best:
        problems.append("best_code does not round-trip through serialize/parse_gauss")
    return problems


# -- closed loops ------------------------------------------------------------


@dataclass
class Run:
    """What a sequence of operations measured."""

    tally: Tally = field(default_factory=Tally)
    # One entry per completed operation: (corpus entry, start, start of the
    # measured call, end, codes done).  Search latency excludes parsing the
    # input.
    ops: list[tuple[int, float, float, float, int]] = field(default_factory=list)
    genus_in: list[int] = field(default_factory=list)  # one per group
    genus_out: list[int] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # group -> its first result

    @property
    def codes(self) -> int:
        return sum(op[4] for op in self.ops)

    @property
    def op_seconds(self) -> float:
        return sum(end - start for _, start, _, end, _ in self.ops)

    @property
    def latencies(self) -> list[float]:
        return [end - call for _, _, call, end, _ in self.ops]

    def weights(self) -> list[float]:
        """Per operation, one over the number of operations made on its
        corpus entry, so that every entry weighs the same however often the
        run sampled it."""
        made = Counter(op[0] for op in self.ops)
        return [1 / made[op[0]] for op in self.ops]


def closed_loop(load, seconds: float, probe) -> Run:
    """One pass over the corpus, then passes in ROUNDS rounds, back to back,
    until ``seconds`` have gone by.  ``probe`` is called before the first
    operation and then before the first operation that starts PROBE_SECONDS
    or more after the previous probe.

    The machine has fast and slow spells of 10-45 s, in which every
    operation runs up to 25% faster or slower.  Figures pooled over a whole
    run average over them, and so do the probes, which are spread over it.
    The run ends on time rather than on a pass boundary, because a pass
    takes 8-11 s and a run shortened to whole passes averaged over less.
    In the later passes, entry k runs in round k % ROUNDS, and an entry
    that took less than CHEAP_SECONDS in the first pass runs in every
    round: a cheap entry is over in a moment, so it needs more samples to
    see as many moments of the machine as an expensive one.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    probed = -PROBE_SECONDS

    def op(k: int) -> None:
        nonlocal probed
        if time.perf_counter() - probed >= PROBE_SECONDS:
            probe()
            probed = time.perf_counter()
        load.op(k, run)

    for k in range(load.size):
        op(k)
    cheap = {k for k, _, call, end, _ in run.ops if end - call < CHEAP_SECONDS}
    schedule = [k for r in range(ROUNDS) for k in range(load.size) if k % ROUNDS == r or k in cheap]
    for k in itertools.cycle(schedule):
        if time.perf_counter() >= deadline:
            return run
        op(k)


def traced_pass(load, tracer) -> tuple[Run, Run]:
    """Every operation once untraced and then once traced, alternating so
    that both sides see the same machine state.  Both must agree."""
    plain, traced = Run(), Run()
    traced.first = plain.first
    for k in range(load.size):
        load.op(k, plain)
        with tracer.installed():
            load.op(k, traced, tracer)
    return plain, traced


class Survey:
    def __init__(self, gg, rng, workdir: str):
        import gaussgenus.cli

        self.main = gaussgenus.cli.main
        self.files = survey_corpus(gg, rng)
        self.size = len(self.files)
        self.paths = []
        for i, lines in enumerate(self.files):
            path = os.path.join(workdir, f"survey-{i:03d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(it.text + "\n" for it in lines))
            self.paths.append(path)

    @property
    def items(self) -> list[Item]:
        return [it for lines in self.files for it in lines]

    def op(self, k: int, run: Run, tracer=None) -> None:
        """One ``batch --op genus`` call on file ``k``."""
        lines = self.files[k]
        argv = ["--format", "json", "batch", self.paths[k], "--op", "genus"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    status = self.main(argv)
                else:
                    with tracer.span("cli.main", k):
                        status = self.main(argv)
            except Exception as exc:  # a crash fails every line of the file
                status = exc
        run.ops.append((k, t0, t0, time.perf_counter(), len(lines)))
        problems, reports = check_survey(lines, status, out.getvalue(), err.getvalue())
        for p in problems:
            run.tally.record(p)
        if tracer is not None:
            emitted = [rep for rep in reports if rep is not None]
            tracer.counts["cli.lines"] += len(emitted)
            tracer.counts["cli.error_lines"] += sum("error" in rep for rep in emitted)
        for item, rep in zip(lines, reports):
            if item.genus is not None and item.group not in run.first and rep and "genus" in rep:
                run.first[item.group] = rep["genus"]
                run.genus_in.append(item.genus)
                run.genus_out.append(rep["genus"])


class SearchWorkload:
    def __init__(self, gg, rng, build):
        self.gg = gg
        self.items = build(gg, rng)
        self.size = len(self.items)

    def op(self, k: int, run: Run, tracer=None) -> None:
        """Parse entry ``k`` and search from it; latency is the search alone."""
        item = self.items[k]
        parse, search = self.gg.parse_gauss, self.gg.search
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = parse(item.text)
                t1 = time.perf_counter()
                result = search(code, item.config)
            else:
                with tracer.span("op", k):
                    code = tracer.wrap("codes.parse_gauss", parse)(item.text)
                    t1 = time.perf_counter()
                    result = tracer.wrap("search.search", search)(code, item.config)
        except Exception as exc:  # counted as a failed operation
            run.tally.record([f"search raised {exc!r}"])
            return
        run.ops.append((k, t0, t1, time.perf_counter(), 1))
        new = item.group not in run.first
        run.tally.record(check_search(self.gg, item, result, run.first))
        if new:
            run.genus_in.append(item.genus)
            run.genus_out.append(result.best_genus)


def make(name: str, gg, seed: int, workdir: str):
    rng = random.Random(f"{name}:{seed}")
    if name == "survey":
        return Survey(gg, rng, workdir)
    if name == "reduce":
        return SearchWorkload(gg, rng, reduce_corpus)
    if name == "knots":
        return SearchWorkload(gg, rng, knots_corpus)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("survey", "reduce", "knots")


def describe(items: list[Item]) -> str:
    """Crossing-count and unit-count distribution of a corpus."""
    ns = sorted(it.n for it in items)
    q = statistics.quantiles(ns, n=4) if len(ns) > 1 else [ns[0]] * 3
    return (
        f"{len(ns)} codes, n min {ns[0]} q1 {q[0]:g} median {q[1]:g} q3 {q[2]:g} max {ns[-1]},"
        f" {2 * sum(ns)} units"
    )
