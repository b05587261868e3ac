"""The package's deferred names: ``bands``, ``dt``, ``moves`` and
``searching`` run (and ``json`` and ``dataclasses`` load) only when a call
uses them, a first read from many threads at once sees whole modules, and
every public name is still the one object.  The renamed modules ``circles``
and ``searching``, reached by plain attribute and by their old dotted paths.
The command line run as a process, with and without docstrings (``-OO``)."""

import importlib
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import gaussgenus
from helpers import EIGHT_20, TREFOIL

SRC = os.path.dirname(os.path.dirname(gaussgenus.__file__))
# The package's modules that must not have run, and the others that must not have loaded.
UNRUN = ("gaussgenus.bands", "gaussgenus.dt", "gaussgenus.moves", "gaussgenus.searching")
UNLOADED = ("json", "dataclasses", "inspect")


def isolated(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh ``python -I`` that finds the package in ``src``,
    as the benchmark's import probe runs."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {code}"
    return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)


def test_every_public_name_is_its_submodules_object():
    for name in gaussgenus.__all__:
        value = getattr(gaussgenus, name)
        home = getattr(value, "__module__", "")  # constants have none
        if home.startswith("gaussgenus."):
            assert value is getattr(sys.modules[home], name), name
    assert gaussgenus.search is gaussgenus.searching.search
    assert gaussgenus.cycles is gaussgenus.circles.cycles


def test_renamed_modules_are_reached_by_dotted_path(monkeypatch):
    # A patch through the dotted path sees every child a search builds: each
    # enumerated move but those predicted to give back their own node.
    enumerated, given_back, built = [], [], []
    real_enumerate = gaussgenus.searching.enumerate_bridges
    real_gives_back = gaussgenus.searching._gives_back
    real_replace = gaussgenus.searching.bridge_replace

    def spy_enumerate(code, *args):
        bridges = real_enumerate(code, *args)
        enumerated.extend([(code, bridge) for bridge in bridges])
        return bridges

    def spy_gives_back(code, bridge):
        if real_gives_back(code, bridge):
            given_back.append((code, bridge))
            return True
        return False

    def spy_replace(code, bridge):
        built.append((code, bridge))
        return real_replace(code, bridge)

    monkeypatch.setattr("gaussgenus.searching.enumerate_bridges", spy_enumerate)
    monkeypatch.setattr("gaussgenus.searching._gives_back", spy_gives_back)
    monkeypatch.setattr("gaussgenus.searching.bridge_replace", spy_replace)
    gaussgenus.search(gaussgenus.parse_gauss(EIGHT_20), gaussgenus.SearchConfig(max_depth=2))
    assert len(built) > 20 and given_back
    assert built == [move for move in enumerated if move not in given_back]

    walked = []
    real_circles = gaussgenus.circles._circles
    monkeypatch.setattr("gaussgenus.circles._circles", lambda c: walked.append(c) or real_circles(c))
    code = gaussgenus.parse_gauss(TREFOIL)
    assert gaussgenus.genus(code) == 1 and walked == [code]

    # The old dotted paths are aliases of the renamed modules, for imports
    # and for pickles that name them.
    for old, module in (
        ("gaussgenus.search", gaussgenus.searching),
        ("gaussgenus.cycles", gaussgenus.circles),
    ):
        assert importlib.import_module(old) is module
    from gaussgenus.search import SearchConfig

    assert SearchConfig is gaussgenus.SearchConfig
    old_pickle = pickle.dumps(SearchConfig(), 0).replace(b".searching\n", b".search\n")
    assert b"gaussgenus.search\n" in old_pickle and pickle.loads(old_pickle) == SearchConfig()
    # and the package's attributes are still the functions
    assert callable(gaussgenus.search) and gaussgenus.search is gaussgenus.searching.search
    assert callable(gaussgenus.cycles) and gaussgenus.cycles is gaussgenus.circles.cycles

    # Nothing else reaches a module of the package by its dotted path.
    reach = re.compile(r"""(import_module\(|sys\.modules\[)f?["']gaussgenus\.""")
    found = [
        f"{path}:{number}"
        for folder in (pathlib.Path(gaussgenus.__file__).parent, pathlib.Path(__file__).parent)
        for path in sorted(folder.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if reach.search(line)
    ]
    assert found == []


def test_deferred_names_come_from_their_submodules():
    assert gaussgenus.genus_oracle is gaussgenus.bands.genus_oracle
    assert gaussgenus.BandSurface is gaussgenus.bands.BandSurface
    assert gaussgenus.DtCodeError is gaussgenus.dt.DtCodeError
    assert gaussgenus.parse_dt is gaussgenus.dt.parse_dt


def test_dir_and_star_import_cover_all():
    assert set(gaussgenus.__all__) <= set(dir(gaussgenus))
    assert set(gaussgenus._HOME) <= set(gaussgenus.__all__)  # a deferred name is public
    names = {}
    exec("from gaussgenus import *", names)
    assert set(gaussgenus.__all__) <= set(names)
    assert all(names[name] is getattr(gaussgenus, name) for name in gaussgenus.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gaussgenus.no_such_name  # noqa: B018
    assert not hasattr(gaussgenus, "json")


def test_cold_import_loads_no_deferred_module():
    # The package's four are in sys.modules from the start, so each is checked
    # by whether its code ran.  Of the others only what the import adds counts:
    # a site hook may have loaded some before.
    probe = (
        "import types; before = set(sys.modules); import gaussgenus, gaussgenus.cli;"
        f" print(','.join([m for m in {UNRUN!r} if type(sys.modules[m]) is types.ModuleType]"
        f" + [m for m in {UNLOADED!r} if m in set(sys.modules) - before]))"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_lazy_modules_run_on_first_read_and_load_pickles():
    # The records of a search, a move, a decomposition, a DT code and a band
    # surface, pickled here, are loaded by a fresh process in which only the
    # unpickler reaches the four deferred modules.
    code = gaussgenus.parse_gauss(EIGHT_20)
    records = (
        gaussgenus.search(code, gaussgenus.SearchConfig(max_depth=1)),
        gaussgenus.enumerate_bridges(code)[0],
        gaussgenus.cycles(code),
        gaussgenus.parse_dt("4 6 2"),
        gaussgenus.band_surface(code),
    )
    probe = (
        "import pickle, gaussgenus; g = gaussgenus;"
        " ran = lambda: [type(m) is type(sys) for m in (g.moves, g.searching, g.dt, g.bands)];"
        f" before = ran(); records = pickle.loads({pickle.dumps(records)!r});"
        " print(before, ran(), repr(records))"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[False] * 4} {[True] * 4} {records!r}\n"


def test_first_read_from_many_threads_sees_whole_modules():
    # Eight threads make the first read of a deferred name at once, switching
    # often; each call returns, none meets a half-run module.
    probe = (
        "import threading, gaussgenus; sys.setswitchinterval(1e-5)\n"
        "barrier = threading.Barrier(8); out = []\n"
        "def first_read():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        config = gaussgenus.SearchConfig(max_depth=1)\n"
        f"        best = gaussgenus.search(gaussgenus.parse_gauss({TREFOIL!r}), config).best_code\n"
        "        out.append((best.n, gaussgenus.parse_dt('4 6 2').entries))\n"
        "    except Exception as exc:\n"
        "        out.append(repr(exc))\n"
        "threads = [threading.Thread(target=first_read, daemon=True) for _ in range(8)]\n"
        "[t.start() for t in threads]; [t.join(60) for t in threads]\n"
        "print(sum(t.is_alive() for t in threads), len(out), sorted(set(map(str, out))))"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 8 ['(3, (4, 6, 2))']\n"


def test_name_set_before_the_first_read_outlives_the_load():
    probe = (
        "import gaussgenus; gaussgenus.moves.find_bridge = None;"
        " print(gaussgenus.moves.find_bridge, type(gaussgenus.moves) is type(sys))"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None True\n"


def test_submodule_imported_first_then_read_from_the_package():
    probe = (
        "import gaussgenus.dt; import gaussgenus;"
        " assert gaussgenus.parse_dt is gaussgenus.dt.parse_dt;"
        " print(gaussgenus.dt_to_gauss(gaussgenus.parse_dt('4 6 2')).serialize())"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "O1?U3?O2?U1?O3?U2?\n"


@pytest.mark.parametrize(
    "flags, argv, stdin, expected",
    [
        # ``searching`` and ``moves`` run on first use in the process
        (
            (),
            ("search", EIGHT_20, "--depth", "1"),
            None,
            (
                0,
                "O1+O2-O3+O4-U4-U5+U6-U1+O7+O8-O5+U3+U9-O10-U2-O6-U8-O9-U10-U7+\n"
                "g=2 crossings=10 nodes=1 pruned=0 steps=1\n"
                "  under bridge=7,8 patterns=3,6 rii=0 -> g=2 n=10\n",
                "",
            ),
        ),
        (
            (),
            ("bridges", EIGHT_20, "--min-len", "2"),
            None,
            (
                0,
                "over labels=8,1 start=15 len=2 strict=yes\n"
                "under labels=2,3 start=1 len=2 strict=yes\n"
                "over labels=4,5 start=3 len=2 strict=yes\n"
                "under labels=1,6 start=5 len=2 strict=yes\n"
                "under labels=8,5 start=8 len=2 strict=no\n"
                "over labels=2,6 start=10 len=2 strict=no\n",
                "",
            ),
        ),
        ((), ("import-dt", "4 6 2"), None, (0, "O1?U3?O2?U1?O3?U2?\nn=3 s=2 g=1\n", "")),
        # a DT error is still bad input, not a bug
        ((), ("import-dt", "4 6 3"), None, (1, "", "gaussgenus: odd entry 3\n")),
        (
            (),
            ("--format", "json", "genus", TREFOIL),
            None,
            (0, '{"op": "genus", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, "genus": 1}\n', ""),
        ),
        # Without docstrings the help has no description but still prints;
        # only its first line is compared, as argparse lays out the rest.
        (
            ("-OO",),
            ("--help",),
            None,
            (0, "usage: gaussgenus [-h] [--format {text,json}] command ...", ""),
        ),
        (("-OO",), ("genus", TREFOIL), None, (0, "n=3 s=2 g=1\n", "")),
        # A label in Arabic-Indic digits fails its own line only.
        (
            (),
            ("--format", "json", "batch", "-", "--op", "genus"),
            f"{TREFOIL}\nO\u0661-U\u0661-\n",
            (
                1,
                '{"op": "genus", "input": "O1-U2-O3-U1-O2-U3-", "n": 3, "s": 2, "genus": 1}\n'
                '{"op": "genus", "input": "O\\u0661-U\\u0661-",'
                ' "error": "malformed unit at offset 0: \'O\\u0661-U\\u0661-\'"}\n',
                "",
            ),
        ),
    ],
    ids=[
        "search-first-use",
        "bridges-first-use",
        "import-dt",
        "import-dt-invalid",
        "json-genus",
        "help-without-docstrings",
        "genus-without-docstrings",
        "batch-arabic-indic-digits",
    ],
)
def test_deferred_commands_as_processes(flags, argv, stdin, expected):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, *flags, "-m", "gaussgenus", *argv],
        input=stdin,
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    out = done.stdout.partition("\n")[0] if argv == ("--help",) else done.stdout
    assert (done.returncode, out, done.stderr) == expected
