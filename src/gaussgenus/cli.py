"""Command-line front end: single codes, DT import, batch files, JSON reports.

Exit status: 0 on success, 1 on invalid input (diagnostic names the violated
invariant), 2 on an internal invariant violation (a bug, never expected).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dt as dt_mod
from . import moves
from .codes import GaussCode, GaussCodeError, InternalInvariantError, parse_gauss
from .cycles import _circles, cycles, genus
from .dt import DtCodeError
from .search import SearchConfig, search as _run_search


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


def _read_code(value: str) -> GaussCode:
    return parse_gauss(_read_text(value))


def _labels(value: str) -> tuple[int, ...]:
    try:
        labels = tuple(int(x) for x in value.split(",") if x.strip())
    except ValueError:
        raise GaussCodeError(f"bad label list {value!r}") from None
    if not labels:
        raise GaussCodeError("empty label list")
    return labels


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


# -- handlers (each returns a list of report dicts) ------------------------


def _stats(code: GaussCode) -> dict:
    return {"n": code.n, "s": _circles(code)[1], "genus": genus(code)}


def _cmd_validate(args) -> list[dict]:
    code = _read_code(args.code)
    return [{"op": "validate", "input": args.code, "valid": True, "n": code.n, "signed": code.signed}]


def _cmd_genus(args) -> list[dict]:
    code = _read_code(args.code)
    return [{"op": "genus", "input": args.code, **_stats(code)}]


def _cmd_cycles(args) -> list[dict]:
    code = _read_code(args.code)
    decomposition = cycles(code)
    return [
        {
            "op": "cycles",
            "input": args.code,
            **_stats(code),
            "cycles": [c.serialize() for c in decomposition.cycles],
        }
    ]


def _cmd_bridges(args) -> list[dict]:
    code = _read_code(args.code)
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
    return [{"op": "bridges", "input": args.code, "n": code.n, "bridges": found}]


def _cmd_move(args) -> list[dict]:
    code = _read_code(args.code)
    bridge = moves.find_bridge(code, _labels(args.bridge))
    outcome = moves.bridge_replace(code, bridge)
    return [
        {
            "op": "move",
            "input": args.code,
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
    ]


def _cmd_reduce(args) -> list[dict]:
    code = _read_code(args.code)
    reduced = moves.rii_reduce(code)
    return [
        {
            "op": "reduce",
            "input": args.code,
            "code": reduced.serialize(),
            **_stats(reduced),
            "cancelled": (code.n - reduced.n) // 2,
        }
    ]


def _cmd_knotoid_genus(args) -> list[dict]:
    code = _read_code(args.code)
    bridge = moves.find_bridge(code, _labels(args.bridge))
    return [
        {
            "op": "knotoid-genus",
            "input": args.code,
            "genus": moves.knotoid_genus(code, bridge),
            "removed": sorted(bridge.labels),
        }
    ]


def _cmd_import_dt(args) -> list[dict]:
    code = dt_mod.dt_to_gauss(dt_mod.parse_dt(_read_text(args.dt)))
    return [{"op": "import-dt", "input": args.dt, "code": code.serialize(), **_stats(code)}]


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(
            max_depth=args.depth,
            beam_width=args.beam,
            min_bridge_len=args.min_len,
            apply_rii=not args.no_rii,
            only_strict=args.strict_only,
        )
    except ValueError as exc:  # an out-of-range flag is invalid input
        raise GaussCodeError(str(exc)) from None


def _search_report(input_text: str, code: GaussCode, config) -> dict:
    result = _run_search(code, config)
    return {
        "op": "search",
        "input": input_text,
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


def _cmd_search(args) -> list[dict]:
    return [_search_report(args.code, _read_code(args.code), _search_config(args))]


def _cmd_batch(args) -> list[dict]:
    try:
        text = _read_source(args.file)
    except OSError as exc:
        raise GaussCodeError(f"cannot read batch file: {exc}") from None
    config = _search_config(args) if args.op_name == "search" else None
    reports = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            code = parse_gauss(line)
            if args.op_name == "genus":
                rep = {"op": "genus", "input": line, **_stats(code)}
            else:
                rep = _search_report(line, code, config)
        except (GaussCodeError, DtCodeError) as exc:
            rep = {"op": args.op_name, "input": line, "error": str(exc)}
        except InternalInvariantError as exc:
            # A bug shown by one line; the other lines still get reports.
            rep = {"op": args.op_name, "input": line, "_status": 2,
                   "error": f"internal invariant violation: {exc}"}
        rep["_compact"] = True
        reports.append(rep)
    return reports


# -- rendering --------------------------------------------------------------


def _text_lines(rep: dict) -> list[str]:
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
        if rep.get("_compact"):
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


def _emit(rep: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({k: v for k, v in rep.items() if not k.startswith("_")}))
    else:
        for line in _text_lines(rep):
            print(line)


# -- argument plumbing -------------------------------------------------------


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--min-len", dest="min_len", type=int, default=2)
    p.add_argument("--no-rii", dest="no_rii", action="store_true")
    p.add_argument("--strict-only", dest="strict_only", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    parser = _Parser(prog="gaussgenus", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="op_name", parser_class=_Parser, metavar="command")

    def add(name, handler, help_text, code_arg=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if code_arg:
            p.add_argument("code", help="Gauss code text, or - for stdin")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "check a code against the Gauss-code invariants")
    add("genus", _cmd_genus, "crossing count, Seifert circles and genus")
    add("cycles", _cmd_cycles, "print every Seifert circle as a unit walk")
    p = add("bridges", _cmd_bridges, "list maximal bridges")
    p.add_argument("--kind", choices=("over", "under", "both"), default="both")
    p.add_argument("--min-len", dest="min_len", type=int, default=1)
    p = add("move", _cmd_move, "replace one maximal bridge")
    p.add_argument("--bridge", required=True, help="comma-separated crossing labels")
    add("reduce", _cmd_reduce, "cancel RII pairs until none remains")
    p = add("knotoid-genus", _cmd_knotoid_genus, "genus after removing a bridge strand")
    p.add_argument("--bridge", required=True, help="comma-separated crossing labels")
    p = add("import-dt", _cmd_import_dt, "convert a DT code to an unsigned Gauss code", code_arg=False)
    p.add_argument("dt", help="whitespace-separated signed even integers, or -")
    p = add("search", _cmd_search, "minimize genus over move sequences")
    _add_search_flags(p)
    p = add("batch", _cmd_batch, "process a file of codes, one per line", code_arg=False)
    p.add_argument("file", help="input path, or - for stdin")
    p.add_argument("--op", dest="op_name_batch", choices=("genus", "search"), required=True)
    _add_search_flags(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "op_name_batch", None):
        args.op_name = args.op_name_batch
    try:
        reports = handler(args)
    except (GaussCodeError, DtCodeError) as exc:
        print(f"gaussgenus: {exc}", file=sys.stderr)
        if fmt == "json":
            source = getattr(args, "code", None) or getattr(args, "dt", None)
            _emit({"op": args.op_name, "input": source, "error": str(exc)}, fmt)
        return 1
    except InternalInvariantError as exc:
        print(f"gaussgenus: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    status = 0
    for rep in reports:
        if "error" in rep:
            status = max(status, rep.get("_status", 1))
        _emit(rep, fmt)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
