"""Persistence diagrams, Betti numbers and persistent Betti number functions.

Diagrams come from persistent cohomology: the coboundary matrix over the
two-element field is reduced one dimension at a time from degree 0 upward,
with clearing, and for a fixed total order its pairs are those of the
boundary matrix (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011). A pair joins a d-simplex to a
(d+1)-simplex, so the reduction reads the complex one dimension block at a
time, sorted by value, and emits each pair as it is found. A column whose
oldest coface no earlier column owns is paired at once, as every apparent
pair is (Bauer, "Ripser", 2021), and its bitmask is built only if another
column has to add it; on graph complexes that leaves few columns with any
algebra. The first such bitmasks of a degree are kept, up to a budget of
4 MB, and later ones are built anew at each use. A kept bitmask is the int
a rebuild gives, so the diagrams do not depend on the budget.
Conventions:

* simplices are ordered by (value, dimension, vertex labels), so ties break
  deterministically across runs and platforms;
* zero-persistence pairs (birth == death) are dropped;
* a class counts toward the rank at (u, v) iff birth <= u and death > v, which
  makes the function right-continuous in u and matches explicit sublevel
  ranks everywhere, critical values included.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .complexes import SimplicialComplex
from .filtrations import ExtendedPair, FilteredComplex, _edge_collapse, _negated_completion, filter_clique
from .graphs import WeightedGraph, _count, _real


@dataclass(frozen=True, order=True)
class DiagramPoint:
    birth: float
    death: float
    multiplicity: int = 1


@dataclass(frozen=True, order=True)
class EssentialPoint:
    birth: float
    multiplicity: int = 1


def _proper(points: Iterable[tuple[float, float]]) -> None:
    """Raise ValueError unless each (birth, death) of a proper point has
    birth < death. Both are read by `_real` first, which refuses NaN."""
    for b, d in points:
        if not b < d:
            raise ValueError(f"proper point needs birth < death, got ({b}, {d})")


class PersistenceDiagram:
    """Multiset of cornerpoints for one homology degree.

    The dimension is an int >= 0. Proper points satisfy birth < death;
    essential points are the classes that never die (cornerpoints at
    infinity). Coincident points merge into one entry; each given
    multiplicity and each total is an int >= 1 that converts to a float. No
    bool passes for an int. `_real` reads births and deaths (ints or floats in
    the float range, held as floats, the points sorted); NaN is refused as
    "birth is NaN", "death is NaN" or "essential birth is NaN".
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
                b, d, m = p.birth, p.death, _count(p.multiplicity, "multiplicity", 1)
            else:
                (b, d), m = p, 1
            pts[(_real(b, "birth"), _real(d, "death"))] += m
        _proper(pts)
        ess: Counter[float] = Counter()
        for e in essential:
            b, m = (e.birth, _count(e.multiplicity, "multiplicity", 1)) if isinstance(e, EssentialPoint) else (e, 1)
            ess[_real(b, "essential birth")] += m
        for totals in (pts.values(), ess.values()):
            _count(max(totals, default=1), "multiplicity", 1)  # the others are smaller
        self.dimension = _count(dimension, "dimension", 0)
        self.points = tuple(DiagramPoint(b, d, m) for (b, d), m in sorted(pts.items()))
        self.essential = tuple(EssentialPoint(b, m) for b, m in sorted(ess.items()))

    def rank(self, u: float, v: float) -> int:
        """Classes born by u and still alive strictly after v (`_real` reads both)."""
        u, v = _real(u, "u"), _real(v, "v")
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


# Bytes of rebuilt bitmasks `reduce` keeps per degree, first come, as Ripser keeps
# reduced columns under a bound. Keeping them all took over 1 GB more on a complex of
# 595k simplices; 4 MB keeps most of the gain on the benchmark's clique graphs.
_CACHE_BYTES = 4 << 20


def _bitmask(rows: list[int]) -> int:
    """Column with bit j set for each row j."""
    col = 0
    for j in rows:
        col |= 1 << j
    return col


def reduce(fc: FilteredComplex, max_dim: int) -> list[PersistenceDiagram]:
    """Persistence diagrams of fc for degrees 0..max_dim, a count that `_count` reads.

    Reduces the coboundary matrix over the two-element field in one loop
    over degrees from 0 upward; for a fixed total order its pairs are those
    of the boundary matrix. A pair joins a d-simplex to a (d+1)-simplex, so
    the order of dimension d is its block of the complex stably sorted by
    value: the (value, dimension, label) order restricted to d. Each block
    is sorted once, youngest first: it is degree d's rows, then degree
    (d+1)'s columns. A column's pivot, its oldest coface, is its top bit.
    Columns whose simplex died one degree down are skipped (clearing) and
    get no coface list; a byte per simplex marks those deaths. A column
    whose pivot no earlier column owns is already reduced: it is paired at
    once, and its bitmask is built only when a later column lands on that
    pivot. Such bitmasks are kept in the order they are built until the
    kept ones of the degree reach `_CACHE_BYTES`; later ones are built anew
    at each landing. A kept bitmask is the same int as a rebuilt one, so
    the budget changes neither the pairs nor their order. Every apparent pair
    is such a column (tau is sigma's oldest coface and sigma is tau's
    youngest face), and on graph complexes most columns are. A column that
    keeps a pivot adds its point to the diagram of degree d unless birth and
    death coincide; one with no cofaces, or that reduces to zero, adds an
    essential class. The (max_dim + 1)-simplices appear only as rows.
    Monotonicity of the input is guaranteed by FilteredComplex itself.

    Degree max_dim is only reliable when the complex genuinely contains its
    (max_dim + 1)-simplices: a complex built with a dimension cap at or below
    max_dim has no killers for that degree, so classes report as essential.
    """
    _count(max_dim, "max_dim", 0)
    k, faces, levels = fc.complex, fc.complex._faces, fc._levels
    dead = bytearray(len(levels))  # 1 for a simplex paired as a death
    cols = sorted(range(*k._block(0)), key=levels.__getitem__)[::-1]  # youngest first
    diagrams = []
    for d in range(max_dim + 1):
        rows = sorted(range(*k._block(d + 1)), key=levels.__getitem__)[::-1]
        lo, hi = k._block(d)
        # by offset in the block, rows ascending; a cleared column is never read
        cofaces: list[list[int] | None] = [None if dead[t] else [] for t in range(lo, hi)]
        for j, t in enumerate(rows):
            for f in faces[t]:
                if (c := cofaces[f - lo]) is not None:
                    c.append(j)
        # pivot row -> the column owning it: a reduced bitmask, or the coface list
        # of a column paired at once. When another column lands on such a list, its
        # bitmask is built and replaces it while the degree's budget has room, and
        # is built anew at each landing after that. It is the same int either way.
        pivots: dict[int, int | list[int]] = {}
        room = _CACHE_BYTES
        points: list[tuple[float, float]] = []
        essential: list[float] = []
        for p in cols:
            if dead[p]:
                continue  # cleared: a death one dimension down, its column reduces to zero
            col: int | list[int] = cofaces[p - lo]
            while col:
                j = col[-1] if col.__class__ is list else col.bit_length() - 1
                other = pivots.get(j)
                if other is None:
                    pivots[j] = col
                    t = rows[j]
                    dead[t] = 1
                    if levels[t] > levels[p]:
                        points.append((levels[p], levels[t]))
                    break
                if other.__class__ is list:
                    other = _bitmask(other)
                    if room > 0:
                        pivots[j] = other
                        room -= (j >> 3) + 32  # about the int's bytes: j bits and a header
                if col.__class__ is list:
                    col = _bitmask(col)
                col ^= other
            else:
                essential.append(levels[p])
        diagrams.append(PersistenceDiagram(d, points, essential))
        cols = rows
    return diagrams


def betti_numbers(k: SimplicialComplex, max_dim: int) -> tuple[int, ...]:
    """Betti numbers of k over the two-element field, degrees 0..max_dim.

    Filtered by one constant value, every pair has birth == death and is
    dropped, so the essential classes of degree r are exactly beta_r.
    """
    return tuple(d.total_essential for d in reduce(FilteredComplex(k, dict.fromkeys(k, 0.0)), max_dim))


def _rank_table(d: PersistenceDiagram) -> tuple[list[float], list[float], list[list[int]]]:
    """Sorted distinct births and deaths of d, and the table of its ranks on them.

    d.rank(u, v) == table[bisect_right(births, u)][bisect_right(deaths, v)]:
    row i counts the classes born at one of the first i births, column j
    those of them not dead by the j-th death. Each class is bucketed once,
    essential ones past the last death, and the table is its 2-D prefix sum.
    """
    births = sorted({p.birth for p in d.points} | {e.birth for e in d.essential})
    deaths = sorted({p.death for p in d.points})
    cells = [[0] * (len(deaths) + 1) for _ in births]
    for p in d.points:
        cells[bisect_left(births, p.birth)][bisect_left(deaths, p.death)] += p.multiplicity
    for e in d.essential:
        cells[bisect_left(births, e.birth)][-1] += e.multiplicity
    table = [[0] * (len(deaths) + 1)]
    for row in cells:
        alive = list(accumulate(reversed(row)))[::-1]  # born in this row, death index >= j
        table.append([a + b for a, b in zip(table[-1], alive)])
    return births, deaths, table


class ExtendedPersistence:
    """Precomputed diagrams of an extended pair, for repeated plane queries.

    Each diagram's ranks are tabulated once, so a query is two bisections.
    `serialize.extended_to_doc` samples its lattice from `critical_values`, the ascending
    side's: for a graph's pair they are its distinct finite edge weights, every value at which
    either side's ranks change. The descending side `of_graph` builds is edge-collapsed and
    holds only some of them, negated.
    """

    def __init__(self, pair: ExtendedPair, max_dim: int):
        self.max_dim = max_dim
        self.critical_values = pair.ascending.critical_values()
        self.ascending = tuple(reduce(pair.ascending, max_dim))
        self.descending = tuple(reduce(pair.descending, max_dim))
        self._tables = [(_rank_table(a), _rank_table(d)) for a, d in zip(self.ascending, self.descending)]

    @classmethod
    def of_graph(cls, g: WeightedGraph, max_dim: int) -> ExtendedPersistence:
        """Extended persistence of g in degrees 0..max_dim, a `_count`, as `persist --extended` runs it.

        Both sides are capped at max_dim + 1, which keeps every degree exact. The descending
        side is the clique filtration of the edge-collapsed negated completion: it has the
        diagrams of the full capped simplex that `extended_pair` builds, on fewer simplices.
        """
        cap = _count(max_dim, "max_dim", 0) + 1
        ascending = filter_clique(g, cap)
        return cls(ExtendedPair(ascending, filter_clique(_edge_collapse(_negated_completion(g)), cap)), max_dim)

    def _degree(self, r: int):
        """The (ascending, descending) rank tables of degree r, a `_count` up to max_dim."""
        if _count(r, "degree", 0) > self.max_dim:
            raise ValueError(f"degree {r} outside computed range 0..{self.max_dim}")
        return self._tables[r]

    def pbn(self, r: int, u: float, v: float) -> int:
        """Extended persistent Betti number at any point of the plane.

        Upper half-plane queries read the ascending diagram, lower half-plane
        queries the descending one at (-u, -v). On the diagonal the ascending
        branch applies but its rank is undefined, so the sublevel Betti number
        at u is returned; it is the limit of the rank as v decreases to u.
        `_real` reads u and v, so NaN is refused.
        """
        above, below = self._degree(r)
        u, v = _real(u, "u"), _real(v, "v")
        if u > v:
            births, deaths, table = below
            return table[bisect_right(births, -u)][bisect_right(deaths, -v)]
        births, deaths, table = above
        return table[bisect_right(births, u)][bisect_right(deaths, v)]

    def grid(self, r: int, coords: list[float]) -> list[list[int]]:
        """pbn(r, u, v) for u and v over coords, one row per u."""
        (up_births, up_deaths, up), (down_births, down_deaths, down) = self._degree(r)
        coords = [_real(c, "coordinate") for c in coords]
        up_cols = [bisect_right(up_deaths, v) for v in coords]
        down_cols = [bisect_right(down_deaths, -v) for v in coords]
        values = []
        for u in coords:
            above = up[bisect_right(up_births, u)]
            below = down[bisect_right(down_births, -u)]
            values.append([
                below[k] if u > v else above[j]
                for v, j, k in zip(coords, up_cols, down_cols)
            ])
        return values
