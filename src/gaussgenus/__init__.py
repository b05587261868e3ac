"""Genus of knot, knotoid and virtual-knot diagrams from Gauss codes.

Parse or import a diagram code, count its Seifert circles, and lower the
diagram genus with bridge replacement, RII cancellation, and search over
move sequences.

The search lives in the submodule ``gaussgenus.searching`` and the circle
orbits in ``gaussgenus.circles``.  As attributes of the package,
``gaussgenus.search`` and ``gaussgenus.cycles`` are the functions; as
dotted import paths they are aliases of those two modules.

The band-surface oracle (``bands``) and the DT import (``dt``) load on the
first read of one of their names, so a process that uses neither does not
pay for them.
"""

import importlib
import sys

from . import circles, searching
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
from .circles import (
    Cycle,
    CycleDecomposition,
    chord_removal_drops_genus,
    cycles,
    genus,
    remove_chords,
)
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
from .searching import SearchConfig, SearchResult, SearchStep, search

# The old dotted paths of the two modules: benchmarks/tracing.py rebinds names
# in "gaussgenus.search" and "gaussgenus.cycles", and old imports such as
# ``from gaussgenus.search import SearchConfig`` read them.  The aliases go
# once ROADMAP item 1 rebinds the tracer.
sys.modules[f"{__name__}.search"] = searching
sys.modules[f"{__name__}.cycles"] = circles

__version__ = "0.1.0"

# The names of the deferred submodules, and each submodule's public names.
_DEFERRED = {
    "bands": ("BandSurface", "band_surface", "boundary_components", "genus_oracle"),
    "dt": ("DtCode", "DtCodeError", "dt_to_gauss", "parse_dt"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

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


def __getattr__(name):
    # Called only for a name not yet in the globals (PEP 562).
    if name in _DEFERRED:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
