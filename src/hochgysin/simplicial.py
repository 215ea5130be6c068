"""Finite ordered simplicial complexes and the fixture builders.

A complex is stored by its facets over a fixed global vertex order; the
face closure is always recomputed, never stored.  Products use the
staircase (shuffle) triangulation, which respects the lexicographic
vertex order and is strictly associative on the nose, so tori are built
as iterated products of the 3-vertex circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactlin import int_from_json


class MalformedComplexError(Exception):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    facets: tuple

    def __post_init__(self):
        seen = set()
        for f in self.facets:
            if not f:
                raise MalformedComplexError("empty facet")
            if any(a >= b for a, b in zip(f, f[1:])):
                raise MalformedComplexError(f"facet {list(f)} is not strictly increasing")
            if f[-1] >= self.vertex_count or f[0] < 0:
                raise MalformedComplexError(
                    f"facet {list(f)} references a vertex outside 0..{self.vertex_count - 1}")
            if f in seen:
                raise MalformedComplexError(f"duplicate facet {list(f)}")
            seen.add(f)

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def simplices(self) -> list[list[tuple]]:
        """All simplices by dimension, each list lex-sorted (the face closure)."""
        by_dim = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            for k in range(1, len(f) + 1):
                for sub in combinations(f, k):
                    by_dim[k - 1].add(sub)
        return [sorted(s) for s in by_dim]

    def f_vector(self) -> list[int]:
        return [len(s) for s in self.simplices()]


def make_complex(vertex_count: int, facets) -> SimplicialComplex:
    return SimplicialComplex(vertex_count, tuple(tuple(f) for f in facets))


def build_circle() -> SimplicialComplex:
    """The 3-vertex triangulation of the circle."""
    return make_complex(3, [(0, 1), (0, 2), (1, 2)])


def build_sphere(m: int) -> SimplicialComplex:
    """Boundary of the (m+1)-simplex: the minimal m-sphere."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    n = m + 2
    return make_complex(n, combinations(range(n), n - 1))


def _staircases(p: int, q: int):
    """Maximal monotone unit-step paths from (0,0) to (p,q)."""
    if p == 0 and q == 0:
        yield [(0, 0)]
        return
    if p > 0:
        for path in _staircases(p - 1, q):
            yield path + [(p, q)]
    if q > 0:
        for path in _staircases(p, q - 1):
            yield path + [(p, q)]


def product(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |k1| x |k2|, vertices ordered lexicographically."""
    n2 = k2.vertex_count
    facets = set()
    for f1 in k1.facets:
        for f2 in k2.facets:
            p, q = len(f1) - 1, len(f2) - 1
            for path in _staircases(p, q):
                facets.add(tuple(f1[i] * n2 + f2[j] for i, j in path))
    # drop any facet contained in another (only matters for non-pure inputs)
    facets = sorted(facets, key=len, reverse=True)
    maximal = []
    seen_sets = []
    for f in facets:
        fs = set(f)
        if not any(fs <= s for s in seen_sets):
            maximal.append(f)
            seen_sets.append(fs)
    return make_complex(k1.vertex_count * n2, sorted(maximal))


def build_torus(n: int) -> SimplicialComplex:
    """The n-torus as the n-fold staircase product of the 3-vertex circle."""
    if n < 1:
        raise ValueError("torus rank must be >= 1")
    t = build_circle()
    for _ in range(n - 1):
        t = product(t, build_circle())
    return t


def complex_from_json(payload) -> SimplicialComplex:
    if not isinstance(payload, dict) or "vertex_count" not in payload or "facets" not in payload:
        raise MalformedComplexError("expected {vertex_count, facets}")
    facets = payload["facets"]
    if not isinstance(facets, list):
        raise MalformedComplexError("bad field types in complex file")
    if not facets:
        raise MalformedComplexError("a complex needs at least one facet")
    try:
        vc = int_from_json(payload["vertex_count"])
        return make_complex(vc, [[int_from_json(v) for v in f] for f in facets])
    except (TypeError, ValueError) as exc:
        raise MalformedComplexError(f"bad complex data: {exc}") from exc


def complex_to_json(k: SimplicialComplex) -> dict:
    return {"vertex_count": k.vertex_count, "facets": [list(f) for f in k.facets]}
