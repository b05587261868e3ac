"""Command-line front end: single codes, DT import, batch files, JSON reports.

Exit status: 0 on success, 1 on invalid input (diagnostic names the violated
invariant), 2 on an internal invariant violation (a bug, never expected).

One path serves every subcommand.  :func:`main` reads each input (a batch
file gives one per line) and :func:`_report` parses it once, with
:func:`parse_gauss` or, for ``import-dt``, the DT import.  The handler of the
subcommand (of ``--op`` in a batch) takes the code and returns only its own
report fields; :func:`_report` puts ``op`` and ``input`` in front of them, or
of the error that stopped it.  The argument parser is built by the first
:func:`main` call and kept.
"""

from __future__ import annotations

import argparse
import sys

from . import moves
from .codes import GaussCode, GaussCodeError, InternalInvariantError, _read_int, parse_gauss
from .circles import _circles, cycles, genus
from .searching import SearchConfig, search as _run_search


class _Parser(argparse.ArgumentParser):
    # bad usage exits 1 here; argparse's default of 2 is reserved for bugs
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_source(path: str) -> str:
    # Stdin for "-", else a file; bytes that are not UTF-8 fail only their line.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8", "surrogateescape")


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


# -- handlers (each takes a parsed code and returns its own report fields) --


def _stats(code: GaussCode) -> dict:
    return {"n": code.n, "s": _circles(code)[1], "genus": genus(code)}


def _cmd_validate(code: GaussCode, args) -> dict:
    return {"valid": True, "n": code.n, "signed": code.signed}


def _cmd_genus(code: GaussCode, args) -> dict:
    return _stats(code)


def _cmd_cycles(code: GaussCode, args) -> dict:
    return {**_stats(code), "cycles": [c.serialize() for c in cycles(code).cycles]}


def _cmd_bridges(code: GaussCode, args) -> dict:
    found = [
        {
            "kind": "over" if b.kind == "O" else "under",
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


def _cmd_reduce(code: GaussCode, args) -> dict:
    reduced = moves.rii_reduce(code)
    return {"code": reduced.serialize(), **_stats(reduced), "cancelled": (code.n - reduced.n) // 2}


def _cmd_knotoid_genus(code: GaussCode, args) -> dict:
    bridge = moves.find_bridge(code, _labels(args.bridge))
    return {"genus": moves.knotoid_genus(code, bridge), "removed": sorted(bridge.labels)}


def _cmd_import_dt(code: GaussCode, args) -> dict:
    # the DT code arrives already converted
    return {"code": code.serialize(), **_stats(code)}


def _search_report(code: GaussCode, args) -> dict:
    result = _run_search(code, args.config)
    return {
        "code": result.best_code.serialize(),
        **_stats(result.best_code),
        "nodes_expanded": result.nodes_expanded,
        "duplicates_pruned": result.duplicates_pruned,
        "trace": [
            {
                "kind": "over" if step.bridge_kind == "O" else "under",
                "bridge": list(step.bridge_labels),
                "patterns": list(step.pattern_labels),
                "rii_cancelled": step.rii_cancelled,
                "genus": step.genus_after,
                "crossings": step.crossings_after,
            }
            for step in result.move_trace
        ],
    }


_HANDLERS = {
    "validate": _cmd_validate,
    "genus": _cmd_genus,
    "cycles": _cmd_cycles,
    "bridges": _cmd_bridges,
    "move": _cmd_move,
    "reduce": _cmd_reduce,
    "knotoid-genus": _cmd_knotoid_genus,
    "import-dt": _cmd_import_dt,
    "search": _search_report,
}


def _input_errors() -> tuple:
    """The errors that mean bad input: GaussCodeError, and DtCodeError once
    the DT import has loaded, as no input can raise it before."""
    dt = sys.modules.get(f"{__package__}.dt")
    return (GaussCodeError, dt.DtCodeError) if dt else (GaussCodeError,)


def _report(op: str, label: str, text: str, args) -> dict:
    """The report on one input: ``op``, ``input`` (``label``), then the
    handler's fields or the error that stopped it."""
    try:
        if op == "import-dt":
            from . import dt

            code = dt.dt_to_gauss(dt.parse_dt(text))
        else:
            code = parse_gauss(text)
        fields = _HANDLERS[op](code, args)
    except _input_errors() as exc:
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


# -- rendering --------------------------------------------------------------


def _text_lines(rep: dict, batch: bool) -> list[str]:
    if "error" in rep:
        return [f"error: {rep['error']}"]
    op = rep["op"]
    if op == "validate":
        return [f"valid n={rep['n']} signed={_yes(rep['signed'])}"]
    if op == "genus":
        return [f"n={rep['n']} s={rep['s']} g={rep['genus']}"]
    if op == "cycles":
        return [f"n={rep['n']} s={rep['s']} g={rep['genus']}"] + rep["cycles"]
    if op == "bridges":
        return [
            f"{b['kind']} labels={_ints(b['labels'])} start={b['start']}"
            f" len={b['length']} strict={_yes(b['strict'])}"
            for b in rep["bridges"]
        ]
    if op == "move":
        return [
            rep["code"],
            f"anchor={rep['anchor']} patterns={_ints(rep['patterns'])}"
            f" inserted={_ints(rep['inserted'])} removed={_ints(rep['removed'])}"
            f" genus {rep['genus_before']} -> {rep['genus']} strict={_yes(rep['strict'])}",
            f"guide={rep['guide']}",
        ]
    if op == "reduce":
        return [rep["code"], f"cancelled={rep['cancelled']} n={rep['n']} g={rep['genus']}"]
    if op == "knotoid-genus":
        return [f"g={rep['genus']}"]
    if op == "import-dt":
        return [rep["code"], f"n={rep['n']} s={rep['s']} g={rep['genus']}"]
    if op == "search":
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
    raise InternalInvariantError(f"no renderer for op {op!r}")


def _emit(rep: dict, fmt: str, batch: bool = False) -> None:
    if fmt == "json":
        import json  # only JSON reports need it

        print(json.dumps({k: v for k, v in rep.items() if not k.startswith("_")}))
    else:
        for line in _text_lines(rep, batch):
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
    # The help shows the docstring up to the handler contract (none under -OO).
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
    if op == "search":  # _count has refused every count below 1
        args.config = SearchConfig(
            max_depth=args.depth,
            beam_width=args.beam,
            min_bridge_len=args.min_len,
            apply_rii=not args.no_rii,
            only_strict=args.strict_only,
        )
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
