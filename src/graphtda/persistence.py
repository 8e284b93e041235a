"""Persistence diagrams and persistent Betti number functions.

Diagrams come from the standard column reduction of the boundary matrix over
the two-element field, with the clearing optimization. The matrix is reduced
one dimension at a time: the rows of a d-column are the (d-1)-simplices in
filtration order, and each column is built only when the reduction reaches
it, so a column's size is set by one dimension, not the whole complex.
Conventions:

* simplices are ordered by (value, dimension, vertex labels), so ties break
  deterministically across runs and platforms;
* zero-persistence pairs (birth == death) are dropped;
* a class counts toward the rank at (u, v) iff birth <= u and death > v, which
  makes the function right-continuous in u and matches explicit sublevel
  ranks everywhere, critical values included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .filtrations import ExtendedPair, FilteredComplex


@dataclass(frozen=True, order=True)
class DiagramPoint:
    birth: float
    death: float
    multiplicity: int = 1


@dataclass(frozen=True, order=True)
class EssentialPoint:
    birth: float
    multiplicity: int = 1


class PersistenceDiagram:
    """Multiset of cornerpoints for one homology degree.

    Proper points satisfy birth < death; essential points are the classes that
    never die (cornerpoints at infinity). Coincident points are merged into a
    single entry with summed multiplicity.
    """

    def __init__(
        self,
        dimension: int,
        points: Iterable[tuple[float, float] | DiagramPoint] = (),
        essential: Iterable[float | EssentialPoint] = (),
    ):
        pts: Counter[tuple[float, float]] = Counter()
        for p in points:
            if isinstance(p, DiagramPoint):
                pts[(p.birth, p.death)] += p.multiplicity
            else:
                b, d = p
                pts[(float(b), float(d))] += 1
        for (b, d), _ in pts.items():
            if not b < d:
                raise ValueError(f"proper point needs birth < death, got ({b}, {d})")
        ess: Counter[float] = Counter()
        for e in essential:
            if isinstance(e, EssentialPoint):
                ess[e.birth] += e.multiplicity
            else:
                ess[float(e)] += 1
        self.dimension = int(dimension)
        self.points = tuple(
            DiagramPoint(b, d, m) for (b, d), m in sorted(pts.items())
        )
        self.essential = tuple(EssentialPoint(b, m) for b, m in sorted(ess.items()))

    def rank(self, u: float, v: float) -> int:
        """Classes born by u and still alive strictly after v."""
        alive = sum(p.multiplicity for p in self.points if p.birth <= u and p.death > v)
        alive += sum(e.multiplicity for e in self.essential if e.birth <= u)
        return alive

    @property
    def total_points(self) -> int:
        return sum(p.multiplicity for p in self.points)

    @property
    def total_essential(self) -> int:
        return sum(e.multiplicity for e in self.essential)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.points == other.points
            and self.essential == other.essential
        )

    def __repr__(self) -> str:
        return (
            f"PersistenceDiagram(dim={self.dimension}, "
            f"points={list(self.points)}, essential={list(self.essential)})"
        )


def reduce(fc: FilteredComplex, max_dim: int) -> list[PersistenceDiagram]:
    """Persistence diagrams of fc for degrees 0..max_dim.

    Column reduction with clearing over the two-element field, one dimension
    at a time from the top down. A d-column has a bit for each face at the
    face's rank among the (d-1)-simplices in filtration order, so its size
    grows with that dimension only, and it is built from the face table only
    when the loop reaches it. Simplices above dimension max_dim + 1 cannot
    affect the requested degrees and are skipped. Monotonicity of the input
    is guaranteed by FilteredComplex itself.

    Degree max_dim is only reliable when the complex genuinely contains its
    (max_dim + 1)-simplices: a complex built with a dimension cap at or below
    max_dim has no killers for that degree, so classes report as essential.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    simplices, faces, levels = fc.complex._order, fc.complex._faces, fc._levels
    top = max_dim + 1
    by_dim: list[list[int]] = [[] for _ in range(top + 1)]
    rank = [0] * len(simplices)  # position in the complex -> index in its by_dim list
    for p in fc._filtration:
        d = len(simplices[p]) - 1
        if d <= top:
            rank[p] = len(by_dim[d])
            by_dim[d].append(p)

    # pair_of[p] is the simplex that kills the class born at p, both as
    # positions in the complex; its values are the negative simplices.
    pair_of: dict[int, int] = {}
    for d in range(top, 0, -1):
        rows = by_dim[d - 1]
        pivots: dict[int, int] = {}  # low row -> reduced column owning it
        for p in by_dim[d]:
            if p in pair_of:
                continue  # cleared: p is paired as a birth, so its column reduces to zero
            col = 0
            for f in faces[p]:
                col |= 1 << rank[f]
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    pair_of[rows[low]] = p
                    break
                col ^= other

    deaths = set(pair_of.values())
    diagrams = []
    for r in range(max_dim + 1):
        points: list[tuple[float, float]] = []
        essential: list[float] = []
        for p in by_dim[r]:
            if p in deaths:
                continue  # negative simplex: kills an (r-1)-class
            birth = levels[p]
            if p in pair_of:
                death = levels[pair_of[p]]
                if death > birth:
                    points.append((birth, death))
            else:
                essential.append(birth)
        diagrams.append(PersistenceDiagram(r, points, essential))
    return diagrams


class ExtendedPersistence:
    """Precomputed diagrams of an extended pair, for repeated plane queries."""

    def __init__(self, pair: ExtendedPair, max_dim: int):
        self.max_dim = max_dim
        self.ascending = tuple(reduce(pair.ascending, max_dim))
        self.descending = tuple(reduce(pair.descending, max_dim))

    def pbn(self, r: int, u: float, v: float) -> int:
        """Extended persistent Betti number at any point of the plane.

        Upper half-plane queries read the ascending diagram, lower half-plane
        queries the descending one at (-u, -v). On the diagonal the ascending
        branch applies but its rank is undefined, so the sublevel Betti number
        at u is returned; it is the limit of the rank as v decreases to u.
        """
        if not 0 <= r <= self.max_dim:
            raise ValueError(f"degree {r} outside computed range 0..{self.max_dim}")
        if u < v:
            return self.ascending[r].rank(u, v)
        if u > v:
            return self.descending[r].rank(-u, -v)
        return self.ascending[r].rank(u, u)

