"""Filtering functions on the graph complexes, and the ascending/descending pair.

Conventions shared by all three filtrations:

* a 0-simplex gets the minimum weight over its incident edges, with a -inf
  sentinel for isolated vertices (no finite birth time is invented); this
  rule lives in one place, `complexes._levelwise`, which grows all three;
* higher simplices get the smallest threshold t at which they qualify in the
  subgraph of edges of weight <= t, evaluated through closed forms that the
  test suite cross-checks against the literal smallest-t definition.

Sentinels order totally: -inf < every finite value < +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .complexes import (
    Family,
    Simplex,
    SimplicialComplex,
    _bits,
    _clique_family,
    _enclaveless_family,
    _neighborhood_family,
    _tables,
)
from .graphs import WeightedGraph, _real, _require_weighted, _signed

INF = float("inf")


class FilteredComplex:
    """A simplicial complex with a monotone simplex-value map.

    Stores the complex and one list of values (extended reals) by position in
    its canonical order. The filtration order is those positions stably sorted
    by value, so ties break by dimension, then label; `sorted_simplices` sorts
    on demand and `reduce` sorts each dimension block. `value`, a read-only
    mapping, is built on first use and cached. The constructor checks that the
    mapping is total on the complex; `_filtered` hands over the enumerator's
    value list. A given value is an int or a float (no bool, no string) in the
    float range, held as a float. Both reject NaN and value(face) > value(simplex),
    so downstream reductions can trust their input. Equality tells 0.0 from -0.0.
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
        same = self._complex == other._complex
        return same and list(map(_signed, self._levels)) == list(map(_signed, other._levels))

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self._levels)} simplices)"


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
    weights = {e: g.weight.get(e, INF) for e in combinations(g.vertices, 2)}
    return WeightedGraph(g.vertices, weights.keys(), weights)


@dataclass(frozen=True)
class ExtendedPair:
    """Ascending clique filtration of g, and descending clique filtration of
    the completed graph under negated extended weights."""

    ascending: FilteredComplex
    descending: FilteredComplex


def _negated_completion(g: WeightedGraph) -> WeightedGraph:
    """The completion of g under negated weights: edges of g weigh the negation
    of their weight, non-edges the -inf sentinel."""
    weights = {e: -g.weight.get(e, INF) for e in combinations(g.vertices, 2)}
    return WeightedGraph(g.vertices, weights.keys(), weights)


def extended_pair(g: WeightedGraph, max_dim: int | None = None) -> ExtendedPair:
    """Build the two filtrations backing the extended persistence functions.

    The descending side filters the full simplex on the vertex set: edges of g
    enter at the negation of their weight, non-edges carry the -inf sentinel
    and are present from the start of the pass.
    """
    _require_weighted(g, "extended_pair")
    return ExtendedPair(filter_clique(g, max_dim), filter_clique(_negated_completion(g), max_dim))


def _edge_collapse(g: WeightedGraph) -> WeightedGraph:
    """A subgraph of g, with g's weights, whose clique filtration has the
    diagrams of g's, once zero-persistence pairs are dropped.

    The filtered edge collapse of Boissonnat and Pritam ("Edge collapse and
    persistence of flag complexes", SoCG 2020), run backward to trim edges as
    by Glisse and Pritam ("Swap, shift and trim to edge collapse a
    filtration", SoCG 2022). The edges in (weight, label) order each have a
    slot, their position. They are taken from the last to the first. While
    edge uv at slot i is taken, the graph at slot s >= i holds the edges at
    slots up to i and the kept later edges at slots up to s. There uv is
    dominated when some vertex w other than u and v has N[u] & N[v] inside
    N[w] (closed neighbourhoods): the clique complex then collapses onto the
    one without uv. Only a new neighbour of u or v can end that, so uv is
    tested at slot i and then at the slots of the kept edges at u or v,
    ascending. It is dropped if it is dominated at each, and kept with its
    own weight otherwise. The first edge at a vertex is never dominated, so
    H0 and the vertex values stay as they were.

    A dropped edge can change which simplex a zero birth or death is read
    from, and so its sign, so a graph whose weights hold both 0.0 and -0.0
    is returned unchanged.
    """
    _require_weighted(g, "_edge_collapse")
    if len({math.copysign(1.0, w) for w in g.weight.values() if w == 0}) == 2:
        return g
    adj, w = _tables(g)
    order = sorted((t, a, b) for a, row in enumerate(w) for b, t in row.items() if a < b)
    base = [adj[i] | 1 << i for i in range(len(adj))]  # closed neighbourhoods over the untaken edges
    kept: list[tuple[float, int, int]] = []  # (weight, a, b), last slot first
    for t, a, b in reversed(order):
        ab = 1 << a | 1 << b
        nbhd = base[:]  # the graph at this edge's slot
        base[a] ^= 1 << b
        base[b] ^= 1 << a
        later = reversed(kept)
        while any(nbhd[a] & nbhd[b] & ~nbhd[w] == 0 for w in _bits(nbhd[a] & nbhd[b] & ~ab)):
            # Dominated: add the kept edges up to the next one at a or b.
            for _, x, y in later:
                nbhd[x] |= 1 << y
                nbhd[y] |= 1 << x
                if (1 << x | 1 << y) & ab:
                    break
            else:
                break  # dominated at every slot: dropped
        else:
            kept.append((t, a, b))
    labels = g.vertices
    weights = {(labels[a], labels[b]): t for t, a, b in kept}
    return WeightedGraph(labels, weights.keys(), weights)
