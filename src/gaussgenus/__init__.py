"""Genus of knot, knotoid and virtual-knot diagrams from Gauss codes.

Parse or import a diagram code, count its Seifert circles, and lower the
diagram genus with bridge replacement, RII cancellation, and search over
move sequences.

The search lives in ``gaussgenus.searching`` and the circle orbits in
``gaussgenus.circles``; ``gaussgenus.search`` and ``gaussgenus.cycles`` are
the functions as attributes, and the two modules as dotted import paths.

Only parsing and the circle orbits run with the package.  The band-surface
oracle (``bands``), the DT import (``dt``), the moves (``moves``) and the
search (``searching``) are modules from the start, but the code of each runs
on its first read, from any thread, under one lock.  A process that only
counts genus runs none of the four, nor loads ``dataclasses``.
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

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

__version__ = "0.1.0"

# The submodules that run on first read, with the names __getattr__ binds from each.
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
_LOCK = RLock()  # one for the four, as one may read another while it runs
_RUNNING = set()  # the modules whose code runs now, on the thread that holds _LOCK


class _Deferred(ModuleType):
    # The first read runs the module under the lock and only then switches the
    # class back, so other threads wait for the whole module.  The loading
    # thread's own reads meanwhile (exec_module reads ``__name__``) load nothing.
    def __getattribute__(self, name):
        with _LOCK:
            if type(self) is _Deferred and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = ModuleType
                finally:
                    _RUNNING.discard(self)
        return ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        self.__dict__  # noqa: B018 (the read runs the module, so the name set here stays)
        ModuleType.__setattr__(self, name, value)


def _defer(spec):
    module = sys.modules[spec.name] = module_from_spec(spec)
    module.__class__ = _Deferred  # last: from here on a read runs it
    return module


globals().update({name: _defer(find_spec(f"{__name__}.{name}")) for name in _DEFERRED})

# The old dotted paths of the two modules, which benchmarks/tracing.py and old
# imports (``from gaussgenus.search import SearchConfig``) read.  The aliases
# go once ROADMAP item 1 rebinds the tracer.
sys.modules[f"{__name__}.search"] = searching
sys.modules[f"{__name__}.cycles"] = circles

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
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(globals()[_HOME[name]], name))


def __dir__():
    return sorted({*globals(), *__all__})
