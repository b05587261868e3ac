"""The package's deferred names: ``bands``, ``dt`` and ``json`` load only
when a call uses them, and every public name is still the one object.  The
command line run as a process, with and without docstrings (``-OO``)."""

import os
import subprocess
import sys

import pytest

import gaussgenus
from helpers import TREFOIL

SRC = os.path.dirname(os.path.dirname(gaussgenus.__file__))
DEFERRED = ("gaussgenus.bands", "gaussgenus.dt", "json")


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
    # the functions, not the submodules of the same names
    assert gaussgenus.search is sys.modules["gaussgenus.search"].search
    assert gaussgenus.cycles is sys.modules["gaussgenus.cycles"].cycles


def test_deferred_names_come_from_their_submodules():
    assert gaussgenus.genus_oracle is gaussgenus.bands.genus_oracle
    assert gaussgenus.BandSurface is gaussgenus.bands.BandSurface
    assert gaussgenus.DtCodeError is gaussgenus.dt.DtCodeError
    assert gaussgenus.parse_dt is gaussgenus.dt.parse_dt


def test_dir_and_star_import_cover_all():
    assert set(gaussgenus.__all__) <= set(dir(gaussgenus))
    names = {}
    exec("from gaussgenus import *", names)
    assert set(gaussgenus.__all__) <= set(names)
    assert all(names[name] is getattr(gaussgenus, name) for name in gaussgenus.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gaussgenus.no_such_name  # noqa: B018
    assert not hasattr(gaussgenus, "json")


def test_cold_import_loads_no_deferred_module():
    probe = (
        "import gaussgenus, gaussgenus.cli;"
        f" print(','.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    done = isolated(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


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
