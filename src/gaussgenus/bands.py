"""Brute-force genus check via the band surface of a chord diagram.

Take an annulus and, for each chord, glue a band to the inner boundary
circle at the chord's two endpoints, orientation-coherently.  Counting the
boundary circles of the result by explicitly walking boundary edges gives an
independent route to the genus: no use of the circle-orbit machinery in
:mod:`gaussgenus.circles`, which this module exists to cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import GaussCode, InternalInvariantError, _require_code


@dataclass(frozen=True)
class BandSurface:
    """Boundary 1-manifold of the annulus-with-bands, as a degree-2 graph.

    Each chord endpoint position i contributes two boundary nodes, one on
    each side of the band foot: node 2i sits before the foot (toward
    position i-1), node 2i+1 after it.  Every node meets exactly one free
    arc of the inner circle and one lateral band edge.
    """

    chords: int
    arc_neighbor: tuple[int, ...]
    band_neighbor: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        # annulus 0, each band -1
        return -self.chords

    def inner_boundary_walks(self) -> int:
        """Count closed walks in the boundary graph along the inner circle."""
        if self.chords == 0:
            return 1
        total = 0
        seen = [False] * len(self.arc_neighbor)
        for start in range(len(self.arc_neighbor)):
            if seen[start]:
                continue
            total += 1
            node = start
            via_arc = True
            while not seen[node]:
                seen[node] = True
                node = self.arc_neighbor[node] if via_arc else self.band_neighbor[node]
                via_arc = not via_arc
        return total


def band_surface(code: GaussCode) -> BandSurface:
    """Build the boundary graph of the band surface of ``code``."""
    _require_code(code)
    m = len(code)
    arc = [0] * (2 * m)
    band = [0] * (2 * m)
    for i in range(m):
        # free inner-circle arc between foot i and foot i+1
        a, b = 2 * i + 1, 2 * ((i + 1) % m)
        arc[a], arc[b] = b, a
    for i in range(m):
        # orientation-coherent band: near side of one foot to far side of the other
        j = code.partner[i]
        band[2 * i + 1] = 2 * j
        band[2 * j] = 2 * i + 1
    return BandSurface(chords=code.n, arc_neighbor=tuple(arc), band_neighbor=tuple(band))


def boundary_components(code: GaussCode) -> int:
    """Boundary circles of the band surface, outer circle included."""
    return band_surface(code).inner_boundary_walks() + 1


def genus_oracle(code: GaussCode) -> int:
    """Genus via Euler characteristic of the capped-off band surface.

    All boundary circles except the outer one are filled with disks; the
    result has one boundary component and genus (1 - chi) / 2.
    """
    surface = band_surface(code)
    chi = surface.euler_characteristic + surface.inner_boundary_walks()
    if (1 - chi) % 2:
        raise InternalInvariantError(
            f"odd Euler defect: chi={chi} for n={code.n} in code {code.serialize()}"
        )
    return (1 - chi) // 2
