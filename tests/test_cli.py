"""Command-line interface: formats, exit codes, batch processing."""

import codecs
import io
import json
import os
import random
import subprocess
import sys

import pytest

from gaussgenus import (
    InternalInvariantError,
    SearchConfig,
    canonical_form,
    enumerate_bridges,
    parse_gauss,
    search,
    strictly_decreases,
)
from gaussgenus import circles, cli, moves
from gaussgenus.cli import main
from helpers import (
    DT_GENUS3,
    DT_GENUS5_MISPRINT,
    EIGHT_20,
    EIGHT_20_MOVED_45,
    RII_PAIR,
    TREFOIL,
    random_code,
)


def run(capsys, *argv):
    try:
        status = main(list(argv))
    except SystemExit as exc:  # a usage error, as a process would see it
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def bytes_stdin(data: bytes):
    """A stdin double over raw bytes whose text layer decodes strictly."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")


def test_genus_text(capsys):
    status, out, _ = run(capsys, "genus", TREFOIL)
    assert status == 0
    assert out == "n=3 s=2 g=1\n"


def test_genus_json_round_trips(capsys):
    status, out, _ = run(capsys, "--format", "json", "genus", TREFOIL)
    assert status == 0
    report = json.loads(out)
    assert report == {"op": "genus", "input": TREFOIL, "n": 3, "s": 2, "genus": 1}
    reparsed = parse_gauss(report["input"])
    assert canonical_form(reparsed) == canonical_form(parse_gauss(TREFOIL))


def test_format_flag_after_subcommand(capsys):
    status, out, _ = run(capsys, "genus", TREFOIL, "--format", "json")
    assert status == 0
    assert json.loads(out)["genus"] == 1


def test_validate_ok(capsys):
    status, out, _ = run(capsys, "validate", TREFOIL)
    assert status == 0
    assert out == "valid n=3 signed=yes\n"


def test_validate_rejects_and_names_label(capsys):
    status, _, err = run(capsys, "validate", "O1-U1+")
    assert status == 1
    assert "label 1" in err


def test_cycles_text(capsys):
    status, out, _ = run(capsys, "cycles", TREFOIL)
    assert status == 0
    assert out.splitlines() == ["n=3 s=2 g=1", "O1-U1-O2-U2-O3-U3-", "U1-O1-U2-O2-U3-O3-"]


def test_bridges_text(capsys):
    status, out, _ = run(capsys, "bridges", EIGHT_20, "--kind", "over", "--min-len", "2")
    assert status == 0
    assert out.splitlines() == [
        "over labels=8,1 start=15 len=2 strict=yes",
        "over labels=4,5 start=3 len=2 strict=yes",
        "over labels=2,6 start=10 len=2 strict=no",
    ]


def test_bridges_make_one_circle_pass_per_code(capsys, monkeypatch):
    real = circles._circles
    passes = []

    def counted(code):
        if code._orbits is None:  # this call makes the pass
            passes.append(code)
        return real(code)

    for module in (cli, circles, moves):
        monkeypatch.setattr(module, "_circles", counted)
    rng = random.Random(99)
    for code in [parse_gauss(EIGHT_20)] + [random_code(rng, n) for n in (0, 1, 5, 20, 60)]:
        passes.clear()
        status, out, _ = run(capsys, "--format", "json", "bridges", code.serialize())
        assert status == 0
        assert len(passes) == (1 if code.n else 0)  # no bridges, no pass
        found = json.loads(out)["bridges"]
        expected = [strictly_decreases(code, b) for b in enumerate_bridges(code)]
        assert [b["strict"] for b in found] == expected


def test_move_prints_replacement(capsys):
    status, out, _ = run(capsys, "move", EIGHT_20, "--bridge", "4,5")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == EIGHT_20_MOVED_45
    assert "patterns=3,2" in lines[1]
    assert "genus 3 -> 2" in lines[1]


def test_move_rejects_nonmaximal_labels(capsys):
    status, _, err = run(capsys, "move", EIGHT_20, "--bridge", "4,1")
    assert status == 1
    assert "maximal bridge" in err


def test_move_rejects_unsigned_code(capsys):
    status, _, err = run(capsys, "move", "O1?O2?U1?U2?", "--bridge", "1,2")
    assert status == 1
    assert "signed" in err


def test_reduce_text(capsys):
    status, out, _ = run(capsys, "reduce", RII_PAIR)
    assert status == 0
    assert out.splitlines() == ["", "cancelled=1 n=0 g=0"]


def test_knotoid_genus(capsys):
    status, out, _ = run(capsys, "knotoid-genus", EIGHT_20, "--bridge", "4,5")
    assert status == 0
    assert out == "g=2\n"


def test_import_dt(capsys):
    status, out, _ = run(capsys, "import-dt", DT_GENUS3)
    assert status == 0
    code_line, stats = out.splitlines()
    assert stats.endswith("g=3")
    reparsed = parse_gauss(code_line)
    assert reparsed.n == 16
    assert not reparsed.signed


def test_import_dt_rejects_misprint(capsys):
    status, _, err = run(capsys, "import-dt", DT_GENUS5_MISPRINT)
    assert status == 1
    assert "duplicate 26" in err
    assert "missing 16" in err


def test_search_text(capsys):
    status, out, _ = run(capsys, "search", EIGHT_20, "--depth", "1")
    assert status == 0
    lines = out.splitlines()
    assert parse_gauss(lines[0]).n == 10
    assert lines[1].startswith("g=2 ")


def test_search_json_round_trips(capsys):
    status, out, _ = run(capsys, "search", EIGHT_20, "--depth", "1", "--format", "json")
    assert status == 0
    report = json.loads(out)
    assert report["genus"] == 2
    assert (report["n"] - report["s"] + 1) // 2 == report["genus"]
    assert parse_gauss(report["code"]).n == report["n"]


def test_search_beam_one_expands_one_node_per_depth(capsys):
    status, out, _ = run(capsys, "search", EIGHT_20, "--beam", "1", "--depth", "2")
    assert status == 0
    assert " nodes=2 " in out.splitlines()[1]


def test_search_strategy_flag_is_gone(capsys):
    status, _, err = run(capsys, "search", EIGHT_20, "--strategy", "bfs")
    assert status == 1 and "unrecognized arguments: --strategy" in err


def _json_search(capsys, *flags) -> dict:
    status, out, _ = run(capsys, "search", EIGHT_20, "--depth", "2", "--format", "json", *flags)
    assert status == 0
    return json.loads(out)


def test_search_no_rii_keeps_every_crossing(capsys):
    report = _json_search(capsys, "--no-rii")
    n = parse_gauss(EIGHT_20).n
    assert report["trace"]
    for step in report["trace"]:
        assert step["rii_cancelled"] == 0
        assert step["crossings"] == n - len(step["bridge"]) + 2 * len(step["patterns"])
        n = step["crossings"]


def test_search_strict_only_takes_strict_moves(capsys):
    report = _json_search(capsys, "--strict-only")
    expected = search(parse_gauss(EIGHT_20), SearchConfig(max_depth=2, only_strict=True))
    assert report["nodes_expanded"] == expected.nodes_expanded
    assert report["nodes_expanded"] != _json_search(capsys)["nodes_expanded"]
    genera = [3] + [step["genus"] for step in report["trace"]]
    assert all(a > b for a, b in zip(genera, genera[1:]))


def test_batch_genus(tmp_path, capsys):
    batch = tmp_path / "codes.txt"
    batch.write_text(f"# header\n{TREFOIL}\n\n{RII_PAIR}\nNONSENSE\n", encoding="utf-8")
    status, out, _ = run(capsys, "batch", str(batch), "--op", "genus")
    assert status == 1  # one line failed
    lines = out.splitlines()
    assert lines == ["n=3 s=2 g=1", "n=2 s=1 g=1", "error: malformed unit at offset 0: 'NONSENSE'"]


def test_batch_file_with_bytes_that_are_not_utf8(tmp_path, capsys):
    # The file is decoded as stdin is: the bad line fails, the others run.
    batch = tmp_path / "codes.txt"
    batch.write_bytes(b"O1-U1-\n\xff\xfe\n")
    status, out, _ = run(capsys, "batch", str(batch), "--op", "genus")
    assert status == 1
    lines = out.splitlines()
    assert lines[0] == "n=1 s=2 g=0"
    assert lines[1].startswith("error: malformed unit at offset 0: ")
    assert len(lines) == 2


BOM = codecs.BOM_UTF8  # some editors write it first


def test_batch_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # The one leading mark is dropped; another is text, and fails its line.
    batch = tmp_path / "codes.txt"
    batch.write_bytes(BOM + TREFOIL.encode() + b"\n" + BOM + b"O1-U1-\n")
    status, out, _ = run(capsys, "batch", str(batch), "--op", "genus")
    assert status == 1
    assert out.splitlines() == ["n=3 s=2 g=1", r"error: malformed unit at offset 0: '\ufeffO1-U1-'"]


def test_stdin_that_starts_with_a_byte_order_mark(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", bytes_stdin(BOM + TREFOIL.encode() + b"\n"))
    assert run(capsys, "genus", "-") == (0, "n=3 s=2 g=1\n", "")
    monkeypatch.setattr("sys.stdin", bytes_stdin(BOM + TREFOIL.encode() + b"\n"))
    assert run(capsys, "batch", "-", "--op", "genus") == (0, "n=3 s=2 g=1\n", "")


def test_stdin_with_bytes_that_are_not_utf8(capsys, monkeypatch):
    # Stdin is read as bytes and decoded as batch files are, whatever the
    # error handler of its text layer.
    monkeypatch.setattr("sys.stdin", bytes_stdin(b"O1-U1-\n\xff\xfe\n"))
    status, out, _ = run(capsys, "batch", "-", "--op", "genus")
    assert status == 1
    lines = out.splitlines()
    assert lines[0] == "n=1 s=2 g=0"
    assert lines[1].startswith("error: malformed unit at offset 0: ")
    assert len(lines) == 2
    monkeypatch.setattr("sys.stdin", bytes_stdin(b"O1-U1-\xff\n"))
    status, out, err = run(capsys, "genus", "-")
    assert status == 1
    assert out == ""
    assert err.startswith("gaussgenus: malformed unit at offset 6: ")


def test_batch_json_reports_per_line(tmp_path, capsys):
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{TREFOIL}\n{EIGHT_20}\n", encoding="utf-8")
    status, out, _ = run(capsys, "--format", "json", "batch", str(batch), "--op", "genus")
    assert status == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["genus"] for r in reports] == [1, 3]
    assert [r["input"] for r in reports] == [TREFOIL, EIGHT_20]
    assert all(not key.startswith("_") for r in reports for key in r)


def test_batch_search_one_line_per_input(tmp_path, capsys):
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{EIGHT_20}\n{TREFOIL}\n", encoding="utf-8")
    status, out, _ = run(capsys, "batch", str(batch), "--op", "search", "--depth", "1")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("g=2 ")
    assert lines[1].startswith("g=1 ")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
def test_overlong_label_is_invalid_input(tmp_path, capsys):
    long = "9" * 5000
    overlong = f"O{long}+U{long}+"
    status, out, err = run(capsys, "genus", overlong)
    assert status == 1
    assert out == ""
    assert err == "gaussgenus: label at offset 0 is too long (5000 digits)\n"
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{TREFOIL}\n{overlong}\n{RII_PAIR}\n", encoding="utf-8")
    status, out, _ = run(capsys, "batch", str(batch), "--op", "genus")
    assert status == 1  # one line failed, the others were still read
    lines = out.splitlines()
    assert lines == [
        "n=3 s=2 g=1",
        "error: label at offset 0 is too long (5000 digits)",
        "n=2 s=1 g=1",
    ]


def test_batch_report_keeps_its_whole_line_and_a_short_error(tmp_path, capsys):
    # "input" is the whole line, so a report can be matched to its line; the
    # error echoes the 4,000-digit label by its first 20 digits.
    long_line = "O1+U1+O" + "9" * 4000 + "+"
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{TREFOIL}\n{long_line}\n", encoding="utf-8")
    status, out, _ = run(capsys, "--format", "json", "batch", str(batch), "--op", "genus")
    assert status == 1
    first, second = [json.loads(line) for line in out.splitlines()]
    assert first["genus"] == 1
    assert second["input"] == long_line
    assert len(second["error"]) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("search", TREFOIL, "--depth", "0"),
        ("search", TREFOIL, "--beam", "0"),
        ("batch", "-", "--op", "search", "--beam", "0"),
        ("search", "-", "--depth", "-1"),
        ("bridges", "-", "--min-len", "0"),
    ],
)
def test_out_of_range_search_flags_exit_one(capsys, monkeypatch, argv):
    # A count below 1, 0 as -1, is a usage error refused before any input is
    # read: nothing on stdout, in JSON too.
    monkeypatch.setattr("sys.stdin", bytes_stdin(TREFOIL.encode() + b"\n"))
    *_, flag, value = argv
    why = "count must be at least 1" if value == "0" else f"malformed count '{value}'"
    status, out, err = run(capsys, "--format", "json", *argv)
    assert (status, out, err) == (1, "", f"gaussgenus {argv[0]}: error: argument {flag}: {why}\n")
    assert sys.stdin.read() == TREFOIL + "\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ("\u0661", "malformed label '\u0661'"),  # an Arabic-Indic 1
        ("1_0", "malformed label '1_0'"),
        ("+1", "malformed label '+1'"),
        ("-1", "malformed label '-1'"),
        ("4,+5", "malformed label '+5'"),
    ],
    ids=["arabic-indic", "underscore", "plus", "minus", "plus-second"],
)
def test_bridge_labels_are_ascii_digits(capsys, value, message):
    for op in ("move", "knotoid-genus"):
        status, out, err = run(capsys, op, EIGHT_20, "--bridge", value)
        assert (status, out, err) == (1, "", f"gaussgenus: {message}\n")


def test_bridge_labels_may_be_spaced():
    assert cli._labels(" 4, 5,") == (4, 5)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--depth", "\u0663"), "argument --depth: malformed count '\u0663'"),
        (("--depth", "1_0"), "argument --depth: malformed count '1_0'"),
        (("--beam", "+1"), "argument --beam: malformed count '+1'"),
        (("--min-len", "+2"), "argument --min-len: malformed count '+2'"),
        (("--depth", "-1"), "argument --depth: malformed count '-1'"),
    ],
    ids=["arabic-indic", "underscore", "plus-beam", "plus-min-len", "minus"],
)
def test_search_counts_are_ascii_digits(capsys, flags, message):
    for argv in (["search", EIGHT_20], ["batch", "-", "--op", "search"]):
        status, out, err = run(capsys, *argv, *flags)
        assert (status, out, err) == (1, "", f"gaussgenus {argv[0]}: error: {message}\n")


def test_bridges_min_len_is_ascii_digits(capsys):
    status, out, err = run(capsys, "bridges", EIGHT_20, "--min-len", "\u0662")
    assert (status, out, err) == (
        1, "", "gaussgenus bridges: error: argument --min-len: malformed count '\u0662'\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
def test_overlong_numbers_get_short_messages(capsys):
    long = "9" * 5000
    status, out, err = run(capsys, "move", EIGHT_20, "--bridge", f"4,{long}")
    assert (status, out, err) == (1, "", "gaussgenus: label is too long (5000 digits)\n")
    status, out, err = run(capsys, "import-dt", f"2 {long}")
    assert (status, out, err) == (1, "", "gaussgenus: entry is too long (5000 digits)\n")
    assert run(capsys, "search", EIGHT_20, "--depth", long) == (
        1, "", "gaussgenus search: error: argument --depth: count is too long (5000 digits)\n"
    )


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", bytes_stdin(TREFOIL.encode() + b"\n"))
    status, out, _ = run(capsys, "genus", "-")
    assert status == 0
    assert out == "n=3 s=2 g=1\n"


def test_unknown_flag_exits_one(capsys):
    assert run(capsys, "genus", "--bogus", TREFOIL)[0] == 1


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_internal_invariant_maps_to_exit_two(capsys, monkeypatch):
    from gaussgenus import InternalInvariantError
    from gaussgenus import cli as cli_module

    def boom(code, bridge):
        raise InternalInvariantError("forced for the test")

    monkeypatch.setattr(cli_module.moves, "bridge_replace", boom)
    status, _, err = run(capsys, "move", EIGHT_20, "--bridge", "4,5")
    assert status == 2
    assert "internal invariant" in err


def test_batch_internal_invariant_reports_its_line(tmp_path, capsys, monkeypatch):
    from gaussgenus import InternalInvariantError
    from gaussgenus import cli as cli_module

    real_search = cli_module._run_search

    def boom_on_trefoil(code, config):
        if code.n == 3:
            raise InternalInvariantError("forced for the test")
        return real_search(code, config)

    monkeypatch.setattr(cli_module, "_run_search", boom_on_trefoil)
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{TREFOIL}\nNONSENSE\n{EIGHT_20}\n", encoding="utf-8")
    argv = ("--format", "json", "batch", str(batch), "--op", "search", "--depth", "1")
    status, out, _ = run(capsys, *argv)
    assert status == 2  # an internal error outranks a malformed line
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["input"] for r in reports] == [TREFOIL, "NONSENSE", EIGHT_20]
    assert reports[0]["error"] == "internal invariant violation: forced for the test"
    assert reports[1]["error"].startswith("malformed unit")
    assert reports[2]["genus"] == 2
    assert all(not key.startswith("_") for r in reports for key in r)


def test_internal_invariant_in_json_emits_the_error_report(capsys, monkeypatch):
    def boom(code, bridge):
        raise InternalInvariantError("forced for the test")

    monkeypatch.setattr(cli.moves, "bridge_replace", boom)
    status, out, err = run(capsys, "--format", "json", "move", EIGHT_20, "--bridge", "4,5")
    assert status == 2
    assert json.loads(out) == {
        "op": "move",
        "input": EIGHT_20,
        "error": "internal invariant violation: forced for the test",
    }
    assert err == "gaussgenus: internal invariant violation: forced for the test\n"


def test_batch_read_failure_names_the_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    status, out, err = run(capsys, "--format", "json", "batch", missing, "--op", "search")
    assert status == 1
    report = json.loads(out)
    assert report["op"] == "search"
    assert report["input"] == missing
    assert report["error"].startswith("cannot read batch file: ")
    assert err == f"gaussgenus: {report['error']}\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in (["genus", TREFOIL], ["--format", "json", "validate", TREFOIL], ["reduce", RII_PAIR]):
        assert main(argv) == 0
    assert len(built) == 1
    assert build() is not build()  # the public builder still returns a fresh parser


def test_parser_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    check = "import gaussgenus.cli as cli; raise SystemExit(cli._PARSER is not None)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


# Every subcommand once, byte for byte:
# name -> (argv, exit status, text stdout, JSON stdout, stderr).  BATCH stands
# for a file holding the trefoil, 8_20 and a malformed line.
BATCH = "<batch file>"
TRANSCRIPT = {
    "validate": (
        ("validate", TREFOIL),
        0,
        "valid n=3 signed=yes\n",
        (
            '{"op": "validate", "input": "O1-U2-O3-U1-O2-U3-", "valid": true, '
            '"n": 3, "signed": true}\n'
        ),
        "",
    ),
    "validate-invalid": (
        ("validate", "O1-U1+"),
        1,
        "",
        (
            '{"op": "validate", "input": "O1-U1+", '
            '"error": "label 1 carries two different signs"}\n'
        ),
        "gaussgenus: label 1 carries two different signs\n",
    ),
    "genus": (
        ("genus", TREFOIL),
        0,
        "n=3 s=2 g=1\n",
        (
            '{"op": "genus", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, '
            '"genus": 1}\n'
        ),
        "",
    ),
    "cycles": (
        ("cycles", TREFOIL),
        0,
        "n=3 s=2 g=1\nO1-U1-O2-U2-O3-U3-\nU1-O1-U2-O2-U3-O3-\n",
        (
            '{"op": "cycles", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, '
            '"genus": 1, "cycles": ["O1-U1-O2-U2-O3-U3-", '
            '"U1-O1-U2-O2-U3-O3-"]}\n'
        ),
        "",
    ),
    "bridges": (
        ("bridges", EIGHT_20),
        0,
        (
            "over labels=8,1 start=15 len=2 strict=yes\n"
            "under labels=2,3 start=1 len=2 strict=yes\n"
            "over labels=4,5 start=3 len=2 strict=yes\n"
            "under labels=1,6 start=5 len=2 strict=yes\n"
            "over labels=7 start=7 len=1 strict=no\n"
            "under labels=8,5 start=8 len=2 strict=no\n"
            "over labels=2,6 start=10 len=2 strict=no\n"
            "under labels=7 start=12 len=1 strict=no\n"
            "over labels=3 start=13 len=1 strict=no\n"
            "under labels=4 start=14 len=1 strict=no\n"
        ),
        (
            '{"op": "bridges", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"n": 8, "bridges": [{"kind": "over", "labels": [8, 1], "start": 15, '
            '"length": 2, "strict": true}, {"kind": "under", "labels": [2, 3], '
            '"start": 1, "length": 2, "strict": true}, {"kind": "over", '
            '"labels": [4, 5], "start": 3, "length": 2, "strict": true}, '
            '{"kind": "under", "labels": [1, 6], "start": 5, "length": 2, '
            '"strict": true}, {"kind": "over", "labels": [7], "start": 7, '
            '"length": 1, "strict": false}, {"kind": "under", "labels": [8, 5], '
            '"start": 8, "length": 2, "strict": false}, {"kind": "over", '
            '"labels": [2, 6], "start": 10, "length": 2, "strict": false}, '
            '{"kind": "under", "labels": [7], "start": 12, "length": 1, '
            '"strict": false}, {"kind": "over", "labels": [3], "start": 13, '
            '"length": 1, "strict": false}, {"kind": "under", "labels": [4], '
            '"start": 14, "length": 1, "strict": false}]}\n'
        ),
        "",
    ),
    "move": (
        ("move", EIGHT_20, "--bridge", "4,5"),
        0,
        (
            "O1+U12+U2-U3+U9-O9-O10+O11-O12+U1+U6-O7-U8-O2-U11-O6-U7-U10+O3+O8-\n"
            "anchor=U3+ patterns=3,2 inserted=9,10,11,12 removed=4,5 genus 3 -> 2 strict=yes\n"
            "guide=U3+U1+O1+U2-O2-O6-U6-O7-U7-O3+\n"
        ),
        (
            '{"op": "move", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"code": "O1+U12+U2-U3+U9-O9-O10+O11-O12+U1+U6-O7-U8-O2-U11-O6-U7-U10+O3+O8-", '
            '"n": 10, "s": 7, "genus": 2, "genus_before": 3, "anchor": "U3+", '
            '"guide": "U3+U1+O1+U2-O2-O6-U6-O7-U7-O3+", "patterns": [3, 2], '
            '"inserted": [9, 10, 11, 12], "removed": [4, 5], "strict": true}\n'
        ),
        "",
    ),
    "reduce": (
        ("reduce", RII_PAIR),
        0,
        "\ncancelled=1 n=0 g=0\n",
        (
            '{"op": "reduce", "input": "O1+U2-U1+O2-", "code": "", "n": 0, '
            '"s": 1, "genus": 0, "cancelled": 1}\n'
        ),
        "",
    ),
    "knotoid-genus": (
        ("knotoid-genus", EIGHT_20, "--bridge", "4,5"),
        0,
        "g=2\n",
        (
            '{"op": "knotoid-genus", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"genus": 2, "removed": [4, 5]}\n'
        ),
        "",
    ),
    "import-dt": (
        ("import-dt", DT_GENUS3),
        0,
        (
            "U1?O6?O2?U13?O3?O16?U4?U10?O5?U14?U6?O1?U7?O4?O8?O12?U9?U15?O10?O7?U11?U3?U12?O9?O13?U2?O14?U5?O15?U8?U16?O11?\n"
            "n=16 s=11 g=3\n"
        ),
        (
            '{"op": "import-dt", '
            '"input": "-12 26 22 -14 28 -2 -20 30 -24 8 -32 -16 4 10 18 -6", '
            '"code": "U1?O6?O2?U13?O3?O16?U4?U10?O5?U14?U6?O1?U7?O4?O8?O12?U9?U15?O10?O7?U11?U3?U12?O9?O13?U2?O14?U5?O15?U8?U16?O11?", '
            '"n": 16, "s": 11, "genus": 3}\n'
        ),
        "",
    ),
    "search": (
        ("search", EIGHT_20, "--depth", "2"),
        0,
        (
            "O1+O2-U3-O4-U2-O5-U6-O3-U4-U7+O8+U1+U9-O9-O7+O6-U5-U8+\n"
            "g=2 crossings=9 nodes=7 pruned=15 steps=2\n"
            "  over bridge=6,3 patterns=1,8,7 rii=1 -> g=2 n=10\n"
            "  under bridge=3,4,5 patterns=7,6 rii=1 -> g=2 n=9\n"
        ),
        (
            '{"op": "search", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"code": "O1+O2-U3-O4-U2-O5-U6-O3-U4-U7+O8+U1+U9-O9-O7+O6-U5-U8+", '
            '"n": 9, "s": 6, "genus": 2, "nodes_expanded": 7, '
            '"duplicates_pruned": 15, "trace": [{"kind": "over", "bridge": [6, '
            '3], "patterns": [1, 8, 7], "rii_cancelled": 1, "genus": 2, '
            '"crossings": 10}, {"kind": "under", "bridge": [3, 4, 5], '
            '"patterns": [7, 6], "rii_cancelled": 1, "genus": 2, '
            '"crossings": 9}]}\n'
        ),
        "",
    ),
    "bridges-none": (
        ("bridges", TREFOIL, "--min-len", "2"),
        0,
        "",
        '{"op": "bridges", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "bridges": []}\n',
        "",
    ),
    "batch-genus": (
        ("batch", BATCH, "--op", "genus"),
        1,
        (
            "n=3 s=2 g=1\nn=8 s=3 g=3\n"
            "error: malformed unit at offset 0: 'NONSENSE'\n"
        ),
        (
            '{"op": "genus", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, '
            '"genus": 1}\n{"op": "genus", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"n": 8, "s": 3, "genus": 3}\n{"op": "genus", "input": "NONSENSE", '
            '"error": "malformed unit at offset 0: \'NONSENSE\'"}\n'
        ),
        "",
    ),
    "batch-search": (
        ("batch", BATCH, "--op", "search", "--depth", "1"),
        1,
        (
            "g=1 O1-U2-O3-U1-O2-U3-\n"
            "g=2 O1+O2-O3+O4-U4-U5+U6-U1+O7+O8-O5+U3+U9-O10-U2-O6-U8-O9-U10-U7+\n"
            "error: malformed unit at offset 0: 'NONSENSE'\n"
        ),
        (
            '{"op": "search", "input": "O1-U2-O3-U1-O2-U3-", '
            '"code": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, "genus": 1, '
            '"nodes_expanded": 1, "duplicates_pruned": 0, "trace": []}\n'
            '{"op": "search", '
            '"input": "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-", '
            '"code": "O1+O2-O3+O4-U4-U5+U6-U1+O7+O8-O5+U3+U9-O10-U2-O6-U8-O9-U10-U7+", '
            '"n": 10, "s": 7, "genus": 2, "nodes_expanded": 1, '
            '"duplicates_pruned": 0, "trace": [{"kind": "under", "bridge": [7, '
            '8], "patterns": [3, 6], "rii_cancelled": 0, "genus": 2, '
            '"crossings": 10}]}\n{"op": "search", "input": "NONSENSE", '
            '"error": "malformed unit at offset 0: \'NONSENSE\'"}\n'
        ),
        "",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(TRANSCRIPT))
def test_transcript_is_unchanged(tmp_path, capsys, name, fmt):
    argv, status, text_out, json_out, err = TRANSCRIPT[name]
    batch = tmp_path / "codes.txt"
    batch.write_text(f"{TREFOIL}\n{EIGHT_20}\nNONSENSE\n", encoding="utf-8")
    argv = [str(batch) if arg == BATCH else arg for arg in argv]
    out = text_out if fmt == "text" else json_out
    assert run(capsys, "--format", fmt, *argv) == (status, out, err)
