"""Weight zonotopes, facet data, and directed lattice-point windows.

The zonotope of a symplectic representation is the set of sums c_i beta_i
with every c_i in [-1, 1].  Its facets sit on translates of the hyperplanes
spanned by rank-(s-1) subsets of the half-weights, and the directed window
keeps the lattice points whose doubles stay inside even after an
infinitesimal push along a chosen tilt direction.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import DegenerateZonotopeError, DimensionError, NonGenericError
from .lattice import IntVec, as_int, dot, hyperplane_normals, vec_neg
from .reps import SymplecticRep, validate


class Facet(NamedTuple):
    normal: IntVec
    offset: int


class Zonotope(NamedTuple):
    """Full-dimensional weight zonotope with its facet description."""

    dimension: int
    half_generators: tuple[IntVec, ...]
    flat_normals: tuple[IntVec, ...]
    facets: tuple[Facet, ...]

    def window_ranges(self) -> list[range]:
        """The candidate values of each coordinate p_k of a window point.

        Doubled points lie in the bounding box sum |beta_ik|, so p_k is at
        most half that; enumerate_window tests the product of these ranges.
        """
        radii = (
            sum(abs(w[k]) for w in self.half_generators) // 2 for k in range(self.dimension)
        )
        return [range(-r, r + 1) for r in radii]

    def contains(self, x) -> bool:
        if len(x) != self.dimension:
            raise DimensionError(f"point has length {len(x)}, expected {self.dimension}")
        return all(dot(f.normal, x) <= f.offset for f in self.facets)

    def generic_witness(self, v: IntVec) -> IntVec | None:
        """A facet-hyperplane normal annihilating v, or None when v avoids them all."""
        if len(v) != self.dimension:
            raise DimensionError(f"vector has length {len(v)}, expected {self.dimension}")
        for n in self.flat_normals:
            if dot(n, v) == 0:
                return n
        return None

    def perturbed_contains(self, x, epsilon: IntVec) -> bool:
        """Membership after an infinitesimal shift of the body along epsilon.

        A point survives the shift when it is inside and every facet it
        touches moves away from it, i.e. the facet normal pairs positively
        with epsilon.  epsilon must avoid every facet hyperplane, as
        enumerate_window checks; otherwise the test is ambiguous.
        """
        for f in self.facets:
            height = dot(f.normal, x)
            if height > f.offset or (height == f.offset and dot(f.normal, epsilon) <= 0):
                return False
        return True


def build_zonotope(rep: SymplecticRep) -> Zonotope:
    """Facet description of the weight zonotope; requires full-dimensional weights."""
    report = validate(rep)
    s = rep.torus_rank
    if report.weight_rank < s:
        raise DegenerateZonotopeError(
            f"half-weights span rank {report.weight_rank} < {s}; "
            "the zonotope is not full-dimensional"
        )
    normals = tuple(hyperplane_normals(rep.half_weights, s))
    facets = []
    for n in normals:
        c = sum(abs(dot(n, w)) for w in rep.half_weights)
        facets.append(Facet(n, c))
        facets.append(Facet(vec_neg(n), c))
    facets.sort(key=lambda f: f.normal)
    return Zonotope(s, rep.half_weights, normals, tuple(facets))


class CharacterWindow(NamedTuple):
    """Lattice points p with 2p inside the tilted zonotope, in lex order."""

    points: tuple[IntVec, ...]


def enumerate_window(zono: Zonotope, epsilon: IntVec) -> CharacterWindow:
    """All lattice points p with 2p in the epsilon-tilted zonotope.

    The tilt direction must avoid every facet hyperplane; otherwise the
    membership test is ambiguous and NonGenericError is raised.
    """
    epsilon = tuple(as_int(x) for x in epsilon)
    witness = zono.generic_witness(epsilon)
    if witness is not None:
        raise NonGenericError("tilt direction", witness)
    points = []
    for p in product(*zono.window_ranges()):
        doubled = tuple(2 * c for c in p)
        if zono.perturbed_contains(doubled, epsilon):
            points.append(p)
    return CharacterWindow(points=tuple(points))


def find_generic_direction(zono: Zonotope) -> IntVec:
    """Deterministic generic tilt: smallest max-norm, then lexicographic.

    The zero vector, at max-norm 0, is generic only when there are no flats.
    """
    radius = 0
    while True:
        for v in product(range(-radius, radius + 1), repeat=zono.dimension):
            if max(map(abs, v), default=0) != radius:
                continue
            if zono.generic_witness(v) is None:
                return v
        radius += 1
