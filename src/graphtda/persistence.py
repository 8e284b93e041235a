"""Persistence diagrams and persistent Betti number functions.

Diagrams come from persistent cohomology: the coboundary matrix over the
two-element field is reduced one dimension at a time from degree 0 upward,
with clearing, and for a fixed total order its pairs are those of the
boundary matrix (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011). The rows of a d-column are the
(d+1)-simplices in filtration order. A column whose oldest coface no earlier
column owns is paired at once, as every apparent pair is (Bauer, "Ripser",
2021), and its bitmask is built only if another column has to add it; on
graph complexes that leaves few columns with any algebra. Conventions:

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


def _bitmask(rows: list[int], last: int) -> int:
    """Column with a bit at last - j for each row rank j, rows ascending."""
    lo = rows[-1]
    col = 0
    for j in rows:
        col |= 1 << (lo - j)
    return col << (last - lo)


def reduce(fc: FilteredComplex, max_dim: int) -> list[PersistenceDiagram]:
    """Persistence diagrams of fc for degrees 0..max_dim.

    Reduces the coboundary matrix over the two-element field, one dimension
    at a time from 0 upward; for a fixed total order its pairs are those of
    the boundary matrix. The d-columns are the d-simplices taken youngest
    first, skipping those already paired as deaths one dimension down
    (clearing). Their rows are the (d+1)-simplices, and a column's pivot is
    its oldest coface. A column whose pivot no earlier column owns is already
    reduced: its pair is recorded at once, and its bitmask is built only when
    a later column lands on that pivot. Every apparent pair is such a column
    (tau is sigma's oldest coface and sigma is tau's youngest face), and on
    graph complexes most columns are. The (max_dim + 1)-simplices appear
    only as rows; higher ones are skipped. Monotonicity of the input is
    guaranteed by FilteredComplex itself.

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
    # positions in the complex; deaths holds the killers.
    pair_of: dict[int, int] = {}
    deaths: set[int] = set()
    for d in range(top):
        rows = by_dim[d + 1]
        last = len(rows) - 1  # row rank j is bit last - j, so the pivot is the highest bit
        cofaces: list[list[int]] = [[] for _ in by_dim[d]]  # row ranks, oldest first
        for j, t in enumerate(rows):
            for f in faces[t]:
                cofaces[rank[f]].append(j)
        # pivot row -> the column owning it: a reduced bitmask, or the coface list
        # of a column paired at once. Such a list is turned into a bitmask anew
        # each time another column lands on it, and never stored: over many rows
        # those bitmasks would hold most of the memory.
        pivots: dict[int, int | list[int]] = {}
        for p in reversed(by_dim[d]):
            if p in deaths:
                continue  # cleared: its column reduces to zero
            col: int | list[int] = cofaces[rank[p]]
            if not col:
                continue
            j = col[0]
            while (other := pivots.get(j)) is not None:
                if other.__class__ is list:
                    other = _bitmask(other, last)
                if col.__class__ is list:
                    col = _bitmask(col, last)
                col ^= other
                if not col:
                    break
                j = last + 1 - col.bit_length()
            else:
                pivots[j] = col
                pair_of[p] = rows[j]
                deaths.add(rows[j])

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
    """

    def __init__(self, pair: ExtendedPair, max_dim: int):
        self.max_dim = max_dim
        self.ascending = tuple(reduce(pair.ascending, max_dim))
        self.descending = tuple(reduce(pair.descending, max_dim))
        self._above = {r: _rank_table(d) for r, d in enumerate(self.ascending)}
        self._below = {r: _rank_table(d) for r, d in enumerate(self.descending)}

    def _out_of_range(self, r: int) -> ValueError:
        return ValueError(f"degree {r} outside computed range 0..{self.max_dim}")

    def pbn(self, r: int, u: float, v: float) -> int:
        """Extended persistent Betti number at any point of the plane.

        Upper half-plane queries read the ascending diagram, lower half-plane
        queries the descending one at (-u, -v). On the diagonal the ascending
        branch applies but its rank is undefined, so the sublevel Betti number
        at u is returned; it is the limit of the rank as v decreases to u.
        """
        try:
            if u > v:
                births, deaths, table = self._below[r]
                return table[bisect_right(births, -u)][bisect_right(deaths, -v)]
            births, deaths, table = self._above[r]
        except KeyError:
            raise self._out_of_range(r) from None
        return table[bisect_right(births, u)][bisect_right(deaths, v)]

    def grid(self, r: int, coords: list[float]) -> list[list[int]]:
        """pbn(r, u, v) for u and v over coords, one row per u."""
        if r not in self._above:
            raise self._out_of_range(r)
        up_births, up_deaths, up = self._above[r]
        down_births, down_deaths, down = self._below[r]
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
