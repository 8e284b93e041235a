"""Filtering functions on the graph complexes, and the ascending/descending pair.

Conventions shared by all three filtrations:

* a 0-simplex gets the minimum weight over its incident edges, with a -inf
  sentinel for isolated vertices (no finite birth time is invented);
* higher simplices get the smallest threshold t at which they qualify in the
  subgraph of edges of weight <= t, evaluated through closed forms that the
  test suite cross-checks against the literal smallest-t definition.

Sentinels order totally: -inf < every finite value < +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .complexes import (
    Family,
    Simplex,
    SimplicialComplex,
    _clique_family,
    _enclaveless_family,
    _neighborhood_family,
)
from .graphs import WeightedGraph, _real, edge

INF = float("inf")


class FilteredComplex:
    """A simplicial complex with a monotone simplex-value map.

    Stores the complex and one list of values (extended reals) by position in
    its canonical order. The filtration order is those positions stably sorted
    by value, so ties break by dimension, then label; `sorted_simplices` sorts
    on demand and `reduce` sorts each dimension block. `value`, a read-only
    mapping, is built on first use and cached. The constructor checks that the
    mapping is total on the complex; `_filtered` hands over the enumerator's
    value list. A given value is an int or a float (no bool, no string) in
    the float range, held as a float. Both reject NaN and value(face) >
    value(simplex), so downstream reductions can trust their input.
    """

    def __init__(self, complex: SimplicialComplex, values: Mapping[Simplex, float]):
        levels: list[float] = []
        for s in complex._order:
            if s not in values:
                raise ValueError(f"no value assigned to simplex {s}")
            levels.append(_real(values[s], "value for simplex ", s))
        if len(values) != len(levels):
            extra = set(values) - complex.simplices
            raise ValueError(f"values given for simplices outside the complex: {sorted(extra, key=repr)[:3]}")
        self._build(complex, levels)

    def _build(self, complex: SimplicialComplex, levels: list[float]) -> None:
        order = complex._order
        if any(map(math.isnan, levels)):
            s = order[next(i for i, v in enumerate(levels) if math.isnan(v))]
            raise ValueError(f"value for simplex {s} is NaN")
        for i, faces in enumerate(complex._faces):
            for f in faces:
                if levels[f] > levels[i]:
                    raise ValueError(
                        f"not monotone: value({order[f]}) = {levels[f]} > "
                        f"value({order[i]}) = {levels[i]}"
                    )
        self._complex = complex
        self._levels = levels

    @property
    def complex(self) -> SimplicialComplex:
        return self._complex

    @cached_property
    def value(self) -> Mapping[Simplex, float]:
        return MappingProxyType(dict(zip(self._complex._order, self._levels)))

    def sorted_simplices(self) -> list[Simplex]:
        """Simplices in filtration order: by value, then dimension, then label."""
        order = self._complex._order
        return [order[i] for i in sorted(range(len(order)), key=self._levels.__getitem__)]

    def critical_values(self) -> tuple[float, ...]:
        """The distinct finite values, ascending; the sentinels are left out."""
        return tuple(sorted({v for v in self._levels if math.isfinite(v)}))

    def __len__(self) -> int:
        return len(self._levels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self._complex == other._complex and self._levels == other._levels

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self._levels)} simplices)"


def _require_weighted(g: WeightedGraph, what: str):
    if not g.is_weighted:
        raise ValueError(f"{what} requires a fully weighted graph")


def _filtered(family: Family) -> FilteredComplex:
    order, levels = family
    fc = FilteredComplex.__new__(FilteredComplex)
    fc._build(SimplicialComplex._from_ordered(order), levels)
    return fc


def filter_clique(g: WeightedGraph, max_dim: int | None = None) -> FilteredComplex:
    """Clique complex of g filtered by edge weights.

    A k-simplex (k >= 1) enters at the maximum weight over the edges of its
    clique; vertices follow the minimum-incident-weight rule.
    """
    _require_weighted(g, "filter_clique")
    return _filtered(_clique_family(g, max_dim))


def filter_neighborhood(g: WeightedGraph, max_dim: int | None = None) -> FilteredComplex:
    """Neighborhood complex of g filtered by earliest containment.

    For dim >= 1 the value is the smallest t at which the simplex fits inside
    a closed neighborhood of the threshold subgraph at t. Closed form: minimize
    over witnesses w adjacent to every other member (w may belong to the
    simplex) the largest weight among the edges from w.
    """
    _require_weighted(g, "filter_neighborhood")
    return _filtered(_neighborhood_family(g, max_dim))


def filter_enclaveless(g: WeightedGraph, max_dim: int | None = None) -> FilteredComplex:
    """Enclaveless complex of g filtered by earliest enclavelessness.

    Since subsets of enclaveless sets are enclaveless, a simplex qualifies at
    the smallest t at which each member keeps a threshold-subgraph neighbor
    outside it: the max over members of the min outgoing edge weight.
    """
    _require_weighted(g, "filter_enclaveless")
    return _filtered(_enclaveless_family(g, max_dim))


def extend_weights(g: WeightedGraph) -> WeightedGraph:
    """Complete graph on the vertices of g; missing edges weigh +inf."""
    _require_weighted(g, "extend_weights")
    vs = g.vertices
    weights: dict[tuple[str, str], float] = {}
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            e = edge(vs[i], vs[j])
            weights[e] = g.weight.get(e, INF)
    return WeightedGraph(vs, weights.keys(), weights)


@dataclass(frozen=True)
class ExtendedPair:
    """Ascending clique filtration of g, and descending clique filtration of
    the completed graph under negated extended weights."""

    ascending: FilteredComplex
    descending: FilteredComplex


def extended_pair(g: WeightedGraph, max_dim: int | None = None) -> ExtendedPair:
    """Build the two filtrations backing the extended persistence functions.

    The descending side filters the full simplex on the vertex set: edges of g
    enter at the negation of their weight, non-edges carry the -inf sentinel
    and are present from the start of the pass.
    """
    _require_weighted(g, "extended_pair")
    ascending = filter_clique(g, max_dim)
    gbar = extend_weights(g)
    negated = WeightedGraph(
        gbar.vertices, gbar.edges, {e: -w for e, w in gbar.weight.items()}
    )
    descending = filter_clique(negated, max_dim)
    return ExtendedPair(ascending, descending)
