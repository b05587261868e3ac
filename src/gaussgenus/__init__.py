"""Genus of knot, knotoid and virtual-knot diagrams from Gauss codes.

Parse or import a diagram code, count its Seifert circles, and lower the
diagram genus with bridge replacement, RII cancellation, and search over
move sequences.

The search lives in the submodule ``gaussgenus.searching`` and the circle
orbits in ``gaussgenus.circles``.  As attributes of the package,
``gaussgenus.search`` and ``gaussgenus.cycles`` are the functions; as
dotted import paths they are aliases of those two modules.

Only parsing and the circle orbits load with the package.  The band-surface
oracle (``bands``) and the DT import (``dt``) are imported on the first read
of one of their names.  The moves (``moves``) and the search (``searching``)
are module objects from the start, in ``sys.modules`` and as attributes, but
their code runs on the first read of one of their attributes
(``importlib.util.LazyLoader``); so the old dotted path, names rebound in
them from outside, and ``from . import moves`` all hold the one object.  A
process that only counts genus loads none of the four, nor ``dataclasses``.
"""

import importlib
import importlib.util
import sys

from . import circles
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


def _lazy(name):
    # The standard library's lazy-import recipe: the module object is in
    # sys.modules at once, and its code runs on the first attribute read.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


moves = _lazy("moves")
searching = _lazy("searching")

# The old dotted paths of the two modules: benchmarks/tracing.py rebinds names
# in "gaussgenus.search" and "gaussgenus.cycles", and old imports such as
# ``from gaussgenus.search import SearchConfig`` read them.  The aliases go
# once ROADMAP item 1 rebinds the tracer.
sys.modules[f"{__name__}.search"] = searching
sys.modules[f"{__name__}.cycles"] = circles

__version__ = "0.1.0"

# The submodules whose public names are read on first use, and those names.
# ``bands`` and ``dt`` are imported then; ``moves`` and ``searching`` are
# bound above, so a read of the module itself never reaches __getattr__.
_DEFERRED = {
    "bands": ("BandSurface", "band_surface", "boundary_components", "genus_oracle"),
    "dt": ("DtCode", "DtCodeError", "dt_to_gauss", "parse_dt"),
    "moves": (
        "Bridge",
        "MoveOutcome",
        "bridge_at",
        "bridge_replace",
        "enumerate_bridges",
        "find_bridge",
        "knotoid_genus",
        "rii_reduce",
        "strictly_decreases",
    ),
    "searching": ("SearchConfig", "SearchResult", "SearchStep", "search"),
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
