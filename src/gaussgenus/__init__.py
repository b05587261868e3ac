"""Genus of knot, knotoid and virtual-knot diagrams from Gauss codes.

Parse or import a diagram code, count its Seifert circles, and lower the
diagram genus with bridge replacement, RII cancellation, and search over
move sequences.

``gaussgenus.search`` and ``gaussgenus.cycles`` are the functions, not the
submodules of those names: patch a submodule through
``importlib.import_module("gaussgenus.search")``.
"""

from .bands import BandSurface, band_surface, boundary_components, genus_oracle
from .codes import (
    NEGATIVE,
    OVER,
    POSITIVE,
    UNDER,
    UNSIGNED,
    GaussCode,
    GaussCodeError,
    InternalInvariantError,
    Unit,
    attach_signs,
    canonical_form,
    flip_passes,
    parse_gauss,
)
from .cycles import (
    Cycle,
    CycleDecomposition,
    chord_removal_drops_genus,
    cycles,
    genus,
    remove_chords,
)
from .dt import DtCode, DtCodeError, dt_to_gauss, parse_dt
from .moves import (
    Bridge,
    MoveOutcome,
    bridge_at,
    bridge_replace,
    enumerate_bridges,
    find_bridge,
    knotoid_genus,
    rii_reduce,
    strictly_decreases,
)
from .search import SearchConfig, SearchResult, SearchStep, search

__version__ = "0.1.0"

__all__ = [
    "BandSurface",
    "Bridge",
    "Cycle",
    "CycleDecomposition",
    "DtCode",
    "DtCodeError",
    "GaussCode",
    "GaussCodeError",
    "InternalInvariantError",
    "MoveOutcome",
    "NEGATIVE",
    "OVER",
    "POSITIVE",
    "SearchConfig",
    "SearchResult",
    "SearchStep",
    "UNDER",
    "UNSIGNED",
    "Unit",
    "attach_signs",
    "band_surface",
    "boundary_components",
    "bridge_at",
    "bridge_replace",
    "canonical_form",
    "chord_removal_drops_genus",
    "cycles",
    "dt_to_gauss",
    "enumerate_bridges",
    "find_bridge",
    "flip_passes",
    "genus",
    "genus_oracle",
    "knotoid_genus",
    "parse_dt",
    "parse_gauss",
    "remove_chords",
    "rii_reduce",
    "search",
    "strictly_decreases",
]
