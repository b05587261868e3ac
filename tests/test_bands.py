"""Band-surface boundary walks against the circle-count formula."""

import random

import pytest

from gaussgenus import (
    BandSurface,
    InternalInvariantError,
    band_surface,
    boundary_components,
    cycles,
    genus,
    genus_oracle,
    parse_gauss,
)
from helpers import EIGHT_20, TREFOIL, random_code


def test_trefoil_boundary_and_genus():
    code = parse_gauss(TREFOIL)
    assert boundary_components(code) == 3
    assert genus_oracle(code) == 1


def test_empty_code_is_bare_annulus():
    code = parse_gauss("")
    assert boundary_components(code) == 2
    assert genus_oracle(code) == 0


def test_eight_20():
    code = parse_gauss(EIGHT_20)
    assert boundary_components(code) == 4
    assert genus_oracle(code) == 3


def test_euler_characteristic_is_minus_n():
    rng = random.Random(8)
    for _ in range(30):
        code = random_code(rng, rng.randint(0, 10))
        assert band_surface(code).euler_characteristic == -code.n


def test_agrees_with_circle_count_on_random_codes():
    # The walk here never touches the jump-and-step orbit machinery, so this
    # comparison is a genuine two-route check.
    rng = random.Random(9)
    for _ in range(300):
        code = random_code(rng, rng.randint(0, 12))
        assert boundary_components(code) == cycles(code).s + 1
        assert genus_oracle(code) == genus(code)


def test_odd_euler_defect_names_the_code(monkeypatch):
    # One boundary walk too many breaks the parity of chi.
    walks = BandSurface.inner_boundary_walks
    monkeypatch.setattr(BandSurface, "inner_boundary_walks", lambda self: walks(self) + 1)
    with pytest.raises(InternalInvariantError, match="odd Euler defect") as err:
        genus_oracle(parse_gauss(EIGHT_20))
    assert str(err.value).endswith(f"for n=8 in code {EIGHT_20}")
