"""Rules every module of the package keeps, read off its syntax trees, and
the examples of its docstrings and of README.md, run as doctests."""

import ast
import doctest
import pathlib
import sys

import pytest

import gaussgenus

PACKAGE = pathlib.Path(gaussgenus.__file__).parent
# Each module's syntax tree, parsed once, by its path from the source root.
TREES = {
    path.relative_to(PACKAGE.parent).as_posix(): ast.parse(
        path.read_text(encoding="utf-8"), str(path)
    )
    for path in sorted(PACKAGE.rglob("*.py"))
}
README = pathlib.Path(__file__).parents[1] / "README.md"


# Invariant checks must raise, since python -O strips assert statements.
def asserts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{node.lineno}"


# CPython builds such a tuple at a guessed size and resizes it; on the
# search path that grew memory pass by pass. Build the list first.
def tuples_of_generators_or_maps(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
            and (
                isinstance(node.args[0], ast.GeneratorExp)
                or isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "map"
            )
        ):
            yield f"{node.lineno}"


# The package has no runtime dependencies: each import is relative or
# names a module of sys.stdlib_module_names (Python 3.10 and later).
def imports_outside_the_stdlib(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield f"{node.lineno}: {name}"


# re's \d matches the digits of every script, so "O\u0661-" once read
# as label 1. Outside text spells ints in ASCII [0-9] only. Every
# string constant is checked, so a pattern kept in a name counts too.
def digit_classes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value:
            yield f"{node.lineno}: {node.value!r}"


RULES = {
    "raise-not-assert": asserts,
    "no-tuple-of-generator-or-map": tuples_of_generators_or_maps,
    "stdlib-imports-only": imports_outside_the_stdlib,
    "no-digit-class": digit_classes,
}


@pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))
def test_package_keeps_source_rule(rule):
    assert "gaussgenus/codes.py" in TREES, sorted(TREES)
    found = [f"{path}:{where}" for path, tree in TREES.items() for where in rule(tree)]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "rule, broken, clean",
    [
        (asserts, "assert x\nassert x, 'why'", "if not x:\n    raise ValueError('why')"),
        (
            tuples_of_generators_or_maps,
            "tuple(x for x in xs)\ntuple(map(str, xs))",
            "tuple([x for x in xs])\ntuple(xs)\ntuple()\nlist(x for x in xs)",
        ),
        (
            imports_outside_the_stdlib,
            "import numpy\nfrom scipy.sparse import csr_matrix\nimport os, hypothesis",
            "import re\nfrom collections.abc import Mapping\nfrom . import codes\nfrom .x import y",
        ),
        (digit_classes, "R = r'\\d+'\nD = '[\\\\d]'", "R = r'[0-9]+'\nD = '\\\\'"),
    ],
    ids=list(RULES),
)
def test_rule_flags_each_line_that_breaks_it(rule, broken, clean):
    flagged = [int(where.partition(":")[0]) for where in rule(ast.parse(broken))]
    assert flagged == list(range(1, broken.count("\n") + 2))
    assert list(rule(ast.parse(clean))) == []


# gaussgenus.circles keeps the id of its old dotted path, still an alias of it.
@pytest.mark.parametrize(
    "target",
    [gaussgenus.codes, gaussgenus.circles, README],
    ids=["gaussgenus.codes", "gaussgenus.cycles", "README.md"],
)
def test_doctests_pass(target):
    if target is README:
        result = doctest.testfile(str(README), module_relative=False)
    else:
        result = doctest.testmod(target)
    assert result.failed == 0, result
    assert result.attempted > 0, result
