"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload survey|reduce|knots --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` of
the same checkout and refuses to run without it.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs the corpus once untraced and once
traced and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "benchmarks", "out")
QUANTILE_BAND = 0.05  # half-width of the rank band a percentile averages

sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import gaussgenus, gaussgenus.cli; print(time.perf_counter() - t)"
)


def import_package():
    """Import ``gaussgenus`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import gaussgenus
        import gaussgenus.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import gaussgenus from {SRC}: {exc}")
    where = os.path.realpath(gaussgenus.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"benchmark: gaussgenus came from {where}, not from {SRC}")
    return gaussgenus


def import_seconds() -> float:
    """Time for a fresh interpreter to import the package and its CLI."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: fresh import failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


class SetupProbes:
    """``setup_s``: the median of fresh imports spread over the timed phase
    (see ``workloads.closed_loop``), so that one slow moment of the machine
    cannot move them all."""

    def __init__(self):
        import_seconds()  # the first import may write bytecode caches
        self.times: list[float] = []

    def probe(self) -> None:
        self.times.append(import_seconds())

    def median(self) -> float:
        return statistics.median(self.times)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def band_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The q-quantile of weighted values, estimated as the mean of the values
    whose weight lies within QUANTILE_BAND of it.

    A run measures a fixed corpus whose latencies are sparse in places, so a
    single order statistic jumps between neighbouring codes with a little
    noise; the band mean moves smoothly instead.
    """
    total = sum(weights)
    lo, hi = (q - QUANTILE_BAND) * total, (q + QUANTILE_BAND) * total
    below = banded = 0.0
    for value, weight in sorted(zip(values, weights)):
        banded += value * max(0.0, min(hi, below + weight) - max(lo, below))
        below += weight
    return banded / (hi - lo)


def end_to_end(run: workloads.Run, setup_s: float, probes: int) -> tuple[dict, list[str]]:
    lat, weights = run.latencies, run.weights()
    p90 = band_quantile(lat, weights, 0.9)
    codes = sum(w * op[4] for w, op in zip(weights, run.ops))
    seconds = sum(w * (end - start) for w, (_, start, _, end, _) in zip(weights, run.ops))
    drop = statistics.mean(a - b for a, b in zip(run.genus_in, run.genus_out))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "codes_per_s": _metric(codes / seconds, "1/s"),
        "latency_p50_s": _metric(band_quantile(lat, weights, 0.5), "s"),
        "latency_p90_s": _metric(p90, "s"),
        "genus_out_mean": _metric(statistics.mean(run.genus_out), "genus"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency samples {len(lat)} of {round(sum(weights))} corpus entries,"
        f" {sum(x > p90 for x in lat)} beyond p90",
        f"codes completed {run.codes} in {run.op_seconds:.3f} s of operations",
        f"setup_s probes {probes}",
        f"failed_ratio {run.tally.failed / run.tally.attempted:.6f}"
        f" ({run.tally.failed} of {run.tally.attempted})",
        f"genus_drop {drop:.6f} (mean input genus {statistics.mean(run.genus_in):.4f}"
        f" over {len(run.genus_in)} distinct codes)",
    ]
    return metrics, notes


def per_layer(tracer: tracing.Tracer, plain: workloads.Run, traced: workloads.Run) -> dict:
    selfs = tracing.self_times(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for layer in tracing.LAYERS:
        calls, self_s = selfs.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = _metric(calls, "count")
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
    metrics["cli.main.self_s"] = _metric(selfs.get("cli.main", (0, 0.0))[1], "s")
    for name in tracing.COUNTS:
        metrics[name] = _metric(counts[name], "count")
    replacements = selfs.get("moves.bridge_replace", (0, 0.0))[0]
    strict = counts["moves.strict_replacements"]
    children = counts["search.children"]
    new_nodes = children - counts["search.duplicates_pruned"]
    metrics["moves.strict_ratio"] = _metric(strict / replacements if replacements else 0.0, "ratio")
    metrics["search.new_node_ratio"] = _metric(new_nodes / children if children else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(traced.op_seconds - plain.op_seconds, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gg = import_package()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        load = workloads.make(args.workload, gg, args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed}: {workloads.describe(load.items)}")
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = workloads.traced_pass(load, tracer)
            metrics = per_layer(tracer, plain, traced)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(trace_path)
            print(f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
            tallies = (plain.tally, traced.tally)
        else:
            probes = SetupProbes()
            began = time.perf_counter()
            run = workloads.closed_loop(load, args.seconds, probes.probe)
            print(f"timed phase {time.perf_counter() - began:.3f} s")
            metrics, notes = end_to_end(run, probes.median(), len(probes.times))
            for line in notes:
                print(line)
            tallies = (run.tally,)
    for tally in tallies:
        for reason in tally.reasons:
            print(f"FAILED: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
