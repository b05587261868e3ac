"""Command-line interface: formats, exit codes, batch processing."""

import importlib
import io
import json
import random
import sys

import pytest

from gaussgenus import (
    SearchConfig,
    canonical_form,
    enumerate_bridges,
    parse_gauss,
    search,
    strictly_decreases,
)
from gaussgenus import cli, moves
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
    status = main(list(argv))
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
    cycles_module = importlib.import_module("gaussgenus.cycles")  # not the function
    circles = cycles_module._circles
    passes = []

    def counted(code):
        if code._orbits is None:  # this call makes the pass
            passes.append(code)
        return circles(code)

    for module in (cli, cycles_module, moves):
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
    with pytest.raises(SystemExit) as exc:
        main(["search", EIGHT_20, "--strategy", "bfs"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("search", TREFOIL, "--depth", "0"),
        ("search", TREFOIL, "--beam", "0"),
        ("batch", "-", "--op", "search", "--beam", "0"),
    ],
)
def test_out_of_range_search_flags_exit_one(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", bytes_stdin(TREFOIL.encode() + b"\n"))
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.startswith("gaussgenus: ") and "must be at least 1" in err


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", bytes_stdin(TREFOIL.encode() + b"\n"))
    status, out, _ = run(capsys, "genus", "-")
    assert status == 0
    assert out == "n=3 s=2 g=1\n"


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--bogus", TREFOIL])
    assert exc.value.code == 1


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
