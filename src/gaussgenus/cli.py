"""Command-line front end: single codes, DT import, batch files, JSON reports.

Exit status: 0 on success, 1 on invalid input (diagnostic names the violated
invariant), 2 on an internal invariant violation (a bug, never expected).

One path serves every subcommand, and each subcommand (each ``--op`` of a
batch) has one entry in the table ``_OPS``.  :func:`main` reads each input (a
batch file gives one per line) and :func:`_report` parses it once, with
:func:`parse_gauss` or the reader its entry names (the DT import for
``import-dt``).  The entry's ``fields`` take the code and return only its own
report fields; :func:`_report` puts ``op`` and ``input`` in front of them, or
of the error that stopped it.  :func:`_emit` prints a report as JSON, or as
the entry's ``lines``.  The argument parser is built by the first
:func:`main` call and kept.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import moves, searching
from .codes import GaussCode, GaussCodeError, InternalInvariantError, _read_int, parse_gauss
from .circles import _circles, cycles, genus


class _Parser(argparse.ArgumentParser):
    # bad usage exits 1 here; argparse's default of 2 is reserved for bugs
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_source(path: str) -> str:
    # Stdin for "-", else a file; bytes that are not UTF-8 fail only their
    # line, and a leading byte-order mark is dropped.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8-sig", "surrogateescape")


def _read_text(value: str) -> str:
    return _read_source(value) if value == "-" else value


def _labels(value: str) -> tuple[int, ...]:
    labels = tuple([_read_int(x.strip(), "label") for x in value.split(",") if x.strip()])
    if not labels:
        raise GaussCodeError("empty label list")
    return labels


def _count(value: str) -> int:
    # A count below 1 is a usage error, as a malformed one is, so it is
    # refused before any input is read.
    count = _read_int(value, "count", error=argparse.ArgumentTypeError)
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return count


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


# -- operations --------------------------------------------------------------
# Each reads the package's functions by their names in this module at call
# time, so a name rebound here (by a test, or a tracer) is the one called.


def _stats(code: GaussCode) -> dict:
    return {"n": code.n, "s": _circles(code)[1], "genus": genus(code)}


def _stats_line(rep: dict) -> str:
    return f"n={rep['n']} s={rep['s']} g={rep['genus']}"


def _side(kind: str) -> str:
    # a bridge's pass letter as reports spell it
    return "over" if kind == "O" else "under"


def _cmd_bridges(code: GaussCode, args) -> dict:
    found = [
        {
            "kind": _side(b.kind),
            "labels": list(b.labels),
            "start": b.positions[0],
            "length": len(b),
            "strict": moves.strictly_decreases(code, b),
        }
        for b in moves.enumerate_bridges(code, args.kind, args.min_len)
    ]
    return {"n": code.n, "bridges": found}


def _cmd_move(code: GaussCode, args) -> dict:
    bridge = moves.find_bridge(code, _labels(args.bridge))
    outcome = moves.bridge_replace(code, bridge)
    return {
        "code": outcome.result.serialize(),
        **_stats(outcome.result),
        "genus_before": genus(code),
        "anchor": str(outcome.anchor) if outcome.anchor else None,
        "guide": outcome.guide_text(),
        "patterns": list(outcome.pattern_labels),
        "inserted": list(outcome.inserted_labels),
        "removed": list(outcome.removed_labels),
        "strict": outcome.strict_decrease_predicted,
    }


def _move_lines(rep: dict, batch: bool) -> list[str]:
    return [
        rep["code"],
        f"anchor={rep['anchor']} patterns={_ints(rep['patterns'])}"
        f" inserted={_ints(rep['inserted'])} removed={_ints(rep['removed'])}"
        f" genus {rep['genus_before']} -> {rep['genus']} strict={_yes(rep['strict'])}",
        f"guide={rep['guide']}",
    ]


def _cmd_reduce(code: GaussCode, args) -> dict:
    reduced = moves.rii_reduce(code)
    return {"code": reduced.serialize(), **_stats(reduced), "cancelled": (code.n - reduced.n) // 2}


def _cmd_knotoid_genus(code: GaussCode, args) -> dict:
    bridge = moves.find_bridge(code, _labels(args.bridge))
    return {"genus": moves.knotoid_genus(code, bridge), "removed": sorted(bridge.labels)}


def _read_dt(text: str) -> GaussCode:
    from . import dt  # only import-dt needs it

    return dt.dt_to_gauss(dt.parse_dt(text))


def _run_search(code: GaussCode, config) -> searching.SearchResult:
    # a name of this module, so a tracer can rebind it; ``searching`` runs here first
    return searching.search(code, config)


def _search_report(code: GaussCode, args) -> dict:
    config = searching.SearchConfig(  # _count has refused every count below 1
        max_depth=args.depth,
        beam_width=args.beam,
        min_bridge_len=args.min_len,
        apply_rii=not args.no_rii,
        only_strict=args.strict_only,
    )
    result = _run_search(code, config)
    return {
        "code": result.best_code.serialize(),
        **_stats(result.best_code),
        "nodes_expanded": result.nodes_expanded,
        "duplicates_pruned": result.duplicates_pruned,
        "trace": [
            {
                "kind": _side(step.bridge_kind),
                "bridge": list(step.bridge_labels),
                "patterns": list(step.pattern_labels),
                "rii_cancelled": step.rii_cancelled,
                "genus": step.genus_after,
                "crossings": step.crossings_after,
            }
            for step in result.move_trace
        ],
    }


def _search_lines(rep: dict, batch: bool) -> list[str]:
    if batch:
        return [f"g={rep['genus']} {rep['code']}"]
    lines = [
        rep["code"],
        f"g={rep['genus']} crossings={rep['n']} nodes={rep['nodes_expanded']}"
        f" pruned={rep['duplicates_pruned']} steps={len(rep['trace'])}",
    ]
    for step in rep["trace"]:
        lines.append(
            f"  {step['kind']} bridge={_ints(step['bridge'])}"
            f" patterns={_ints(step['patterns'])} rii={step['rii_cancelled']}"
            f" -> g={step['genus']} n={step['crossings']}"
        )
    return lines


class _Op(NamedTuple):
    fields: Callable  # (code, args) -> the op's own report fields
    lines: Callable  # (report, batch) -> its text lines
    read: Callable | None = None  # text -> code, in place of parse_gauss


_OPS = {
    "validate": _Op(
        lambda code, args: {"valid": True, "n": code.n, "signed": code.signed},
        lambda rep, batch: [f"valid n={rep['n']} signed={_yes(rep['signed'])}"],
    ),
    "genus": _Op(lambda code, args: _stats(code), lambda rep, batch: [_stats_line(rep)]),
    "cycles": _Op(
        lambda code, args: {**_stats(code), "cycles": [c.serialize() for c in cycles(code).cycles]},
        lambda rep, batch: [_stats_line(rep), *rep["cycles"]],
    ),
    "bridges": _Op(
        _cmd_bridges,
        lambda rep, batch: [
            f"{b['kind']} labels={_ints(b['labels'])} start={b['start']}"
            f" len={b['length']} strict={_yes(b['strict'])}"
            for b in rep["bridges"]
        ],
    ),
    "move": _Op(_cmd_move, _move_lines),
    "reduce": _Op(
        _cmd_reduce,
        lambda rep, batch: [
            rep["code"], f"cancelled={rep['cancelled']} n={rep['n']} g={rep['genus']}"
        ],
    ),
    "knotoid-genus": _Op(_cmd_knotoid_genus, lambda rep, batch: [f"g={rep['genus']}"]),
    "import-dt": _Op(
        lambda code, args: {"code": code.serialize(), **_stats(code)},
        lambda rep, batch: [rep["code"], _stats_line(rep)],
        read=_read_dt,
    ),
    "search": _Op(_search_report, _search_lines),
}


def _report(op: str, label: str, text: str, args) -> dict:
    """The report on one input: ``op``, ``input`` (``label``), then the
    entry's fields or the error that stopped it."""
    entry = _OPS[op]
    try:
        code = parse_gauss(text) if entry.read is None else entry.read(text)
        fields = entry.fields(code, args)
    except GaussCodeError as exc:
        fields = {"error": str(exc)}
    except InternalInvariantError as exc:  # a bug; in a batch the other lines still run
        fields = {"_status": 2, "error": f"internal invariant violation: {exc}"}
    return {"op": op, "input": label, **fields}


def _batch_lines(path: str) -> list[str]:
    try:
        text = _read_source(path)
    except OSError as exc:
        raise GaussCodeError(f"cannot read batch file: {exc}") from None
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _emit(rep: dict, fmt: str, batch: bool = False) -> None:
    if fmt == "json":
        import json  # only JSON reports need it

        print(json.dumps({k: v for k, v in rep.items() if not k.startswith("_")}))
    elif "error" in rep:
        print(f"error: {rep['error']}")
    else:
        for line in _OPS[rep["op"]].lines(rep, batch):
            print(line)


def _fail(rep: dict, fmt: str) -> int:
    # A failed command: the diagnostic on stderr, and in JSON the report too.
    print(f"gaussgenus: {rep['error']}", file=sys.stderr)
    if fmt == "json":
        _emit(rep, fmt)
    return rep.get("_status", 1)


# -- argument plumbing -------------------------------------------------------


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=_count, default=5)
    p.add_argument("--beam", type=_count, default=None)
    p.add_argument("--min-len", dest="min_len", type=_count, default=2)
    p.add_argument("--no-rii", dest="no_rii", action="store_true")
    p.add_argument("--strict-only", dest="strict_only", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    # The help shows the docstring up to the op table's contract (none under -OO).
    about = __doc__ and __doc__.split("\n\nOne path")[0]
    parser = _Parser(prog="gaussgenus", description=about)
    parser.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="op_name", parser_class=_Parser, metavar="command")

    def add(name, help_text, metavar="code", input_help="Gauss code text, or - for stdin"):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("input", metavar=metavar, help=input_help)
        return p

    add("validate", "check a code against the Gauss-code invariants")
    add("genus", "crossing count, Seifert circles and genus")
    add("cycles", "print every Seifert circle as a unit walk")
    p = add("bridges", "list maximal bridges")
    p.add_argument("--kind", choices=("over", "under", "both"), default="both")
    p.add_argument("--min-len", dest="min_len", type=_count, default=1)
    p = add("move", "replace one maximal bridge")
    p.add_argument("--bridge", required=True, help="comma-separated crossing labels")
    add("reduce", "cancel RII pairs until none remains")
    p = add("knotoid-genus", "genus after removing a bridge strand")
    p.add_argument("--bridge", required=True, help="comma-separated crossing labels")
    add("import-dt", "convert a DT code to an unsigned Gauss code",
        "dt", "whitespace-separated signed even integers, or -")
    _add_search_flags(add("search", "minimize genus over move sequences"))
    p = add("batch", "process a file of codes, one per line", "file", "input path, or - for stdin")
    p.add_argument("--op", dest="batch_op", choices=("genus", "search"), required=True)
    _add_search_flags(p)
    return parser


_PARSER = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if args.op_name is None:
        _PARSER.print_usage(sys.stderr)
        return 1
    fmt = getattr(args, "format", "text")
    batch = args.op_name == "batch"
    op = args.batch_op if batch else args.op_name
    try:
        if batch:
            inputs = [(line, line) for line in _batch_lines(args.input)]
        else:
            inputs = [(args.input, _read_text(args.input))]
    except GaussCodeError as exc:
        return _fail({"op": op, "input": args.input, "error": str(exc)}, fmt)
    status = 0
    for label, text in inputs:
        rep = _report(op, label, text, args)
        if "error" in rep:
            if not batch:
                return _fail(rep, fmt)
            status = max(status, rep.get("_status", 1))
        _emit(rep, fmt, batch)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
