"""Simplicial complexes built from graphs.

Four constructions are provided: cliques, closed neighborhoods, enclaveless
sets and independent sets. Their homology is read in persistence.py.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations
from operator import itemgetter, le, lt
from typing import Iterable

from .graphs import WeightedGraph, _count, complement, edge

Simplex = tuple[str, ...]
NEG_INF = float("-inf")


def simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical simplex: the sorted tuple of its distinct vertices."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    for v in vs:
        if not isinstance(v, str):
            raise TypeError(f"vertex labels must be strings, got {v!r}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"simplex vertices must be distinct, got repeated {a!r}")
    return vs


class SimplicialComplex:
    """Finite abstract simplicial complex; the empty complex has dimension -1.

    Stores the simplices as vertex tuples in canonical (dimension, label)
    order, for each the positions of its codimension-1 faces, and the block
    starts: `_starts[r]` is the position of the first r-simplex, r = 0..dim+1,
    the one index of dimensions that every layer reads. The table is built one
    block at a time: a face of a k-vertex simplex lies in the block below, so
    each block looks its faces up in a position dict of that block alone, one
    column of faces per dropped vertex, by C-level `map` and `zip` passes.
    Finding every face checks downward closure. `simplices` (a frozenset) and
    `facets` are built on first use and cached. The constructor canonicalises
    each simplex with `simplex()` and sorts; `_from_ordered` takes tuples
    already canonical and in order, as the enumerator emits them. Either way
    the order is checked per block, and an error names the first simplex out
    of order or missing a face, as a pass over the whole order would.
    """

    def __init__(self, simplices: Iterable[Iterable[str]] = ()):
        self._build(sorted(sorted({simplex(s) for s in simplices}), key=len))

    @classmethod
    def _from_ordered(cls, order: list[Simplex]) -> "SimplicialComplex":
        """Complex of canonical tuples listed in strict (dimension, label) order."""
        k = cls.__new__(cls)
        k._build(order)
        return k

    def _build(self, order: list[Simplex]) -> None:
        lens = list(map(len, order))
        top = lens[-1] if lens else 0  # dim + 1
        starts = [bisect_left(lens, r + 1) for r in range(top + 1)]
        blocks = [order[lo:hi] for lo, hi in zip([0, *starts], starts)]  # blocks[k]: k vertices each
        if not (all(map(le, lens, lens[1:])) and all(all(map(lt, b, b[1:])) for b in blocks)):
            for a, b in zip(order, order[1:]):  # name the first pair out of order
                if not (len(a), a) < (len(b), b):
                    raise ValueError(f"simplex {b} repeated or out of (dimension, label) order after {a}")
        faces: list[tuple[int, ...]] = [()] * (starts[1] if top else len(order))
        for k in range(2, top + 1):
            # A face of a k-vertex simplex lies in the block below. One column
            # of face positions per dropped index, in the order combinations()
            # lists the faces: the last index first.
            position = dict(zip(blocks[k - 1], range(starts[k - 2], starts[k - 1])))
            coords = [list(map(itemgetter(i), blocks[k])) for i in range(k)]
            try:
                columns = [
                    list(map(position.__getitem__, zip(*coords[:drop], *coords[drop + 1 :])))
                    for drop in reversed(range(k))
                ]
            except KeyError:
                for s in blocks[k]:  # name the first missing face, simplex by simplex
                    for f in combinations(s, k - 1):
                        if f not in position:
                            raise ValueError(f"not closed under faces: {f} missing below {s}") from None
                raise
            faces.extend(zip(*columns))
        self._order = order
        self._faces = faces
        self._starts = starts

    def _block(self, r: int) -> tuple[int, int]:
        """Positions lo..hi-1 of the r-simplices; empty when r is outside 0..dim."""
        return (self._starts[r], self._starts[r + 1]) if 0 <= r <= self.dim else (0, 0)

    @classmethod
    def from_facets(
        cls, facets: Iterable[Iterable[str]], max_dim: int | None = None
    ) -> "SimplicialComplex":
        """Downward closure of the given simplices, capped at max_dim unless None (`_count` reads it)."""
        cap = None if max_dim is None else _count(max_dim, "max_dim", 0) + 1
        out: set[Simplex] = set()
        for f in facets:
            base = simplex(f)
            top = len(base) if cap is None else min(len(base), cap)
            for k in range(1, top + 1):
                out.update(combinations(base, k))
        return cls._from_ordered(sorted(sorted(out), key=len))

    @cached_property
    def simplices(self) -> frozenset[Simplex]:
        return frozenset(self._order)

    @property
    def vertices(self) -> tuple[str, ...]:
        """Labels of the 0-simplices, which lead the canonical order."""
        return tuple([s[0] for s in self._order[: self._block(0)[1]]])

    @property
    def dim(self) -> int:
        return len(self._starts) - 2

    @cached_property
    def facets(self) -> tuple[Simplex, ...]:
        """Inclusion-maximal simplices, lexicographically sorted: those that are nobody's face."""
        covered = {f for fs in self._faces for f in fs}
        return tuple(sorted(s for i, s in enumerate(self._order) if i not in covered))

    def simplices_of_dim(self, r: int) -> tuple[Simplex, ...]:
        return tuple(self._order[slice(*self._block(r))])

    def __contains__(self, s) -> bool:
        return tuple(sorted(s)) in self.simplices

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._order == other._order

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._order)} simplices, dim {self.dim})"


# Every construction is a family of vertex sets closed under subsets. One
# level-wise enumerator grows each of them one vertex at a time, together with
# its filtration values (the rules are stated in filtrations.py), and owns the
# rules they share; each family states only its grow rule. The *_complex
# builders drop the values, reading an edge without a weight as weight 0.

Family = tuple[list[Simplex], list[float]]  # simplices in canonical order, their values


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _tables(g: WeightedGraph) -> tuple[list[int], list[dict[int, float]]]:
    """Adjacency bitmasks and per-vertex {neighbor index: weight} over the sorted vertices."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    rows: list[dict[int, float]] = [{} for _ in g.vertices]
    for e in sorted(g.edges):  # not hash order: a min over a row keeps the first of 0.0, -0.0
        a, b = idx[e[0]], idx[e[1]]
        rows[a][b] = rows[b][a] = g.weight.get(e, 0.0)
    return [sum(1 << j for j in row) for row in rows], rows


def _levelwise(g: WeightedGraph, w: list[dict[int, float]], roots, grow, max_dim: int | None) -> Family:
    """Every simplex grown from the roots, with its value, in (dimension, label) order.

    roots lists (index, state) for the admitted vertices, and each enters at
    its lightest edge in the weight rows w, at -inf when isolated. For a
    simplex s with value x, grow(s, x, state, candidates) yields (v, value,
    state) for each v in the candidates mask whose addition keeps s in the
    family. Passed the vertices above s[-1], it grows each simplex once;
    passed every vertex outside s, it lists the cofaces of s. Only the states
    of the current level are held, and the last level keeps none. Labels are
    sorted, so index order is label order and every tuple comes out canonical.
    `_count` reads max_dim, unless None, for every construction and filtration.
    """
    labels = g.vertices
    above = [(1 << len(labels)) - (2 << i) for i in range(len(labels))]
    top = len(labels) if max_dim is None else _count(max_dim, "max_dim", 0) + 1  # vertices in the largest simplex
    level = [((i,), min(w[i].values(), default=NEG_INF), state) for i, state in roots]
    order: list[Simplex] = []
    values: list[float] = []
    for size in range(1, top + 1):
        if not level:
            break  # no simplex of this size, so none larger
        order.extend([tuple([labels[i] for i in s]) for s, _, _ in level])
        values.extend([x for _, x, _ in level])
        if size < top:
            level = [
                (s + (v,), y, child if size + 1 < top else None)
                for s, x, state in level
                for v, y, child in grow(s, x, state, above[s[-1]])
            ]
    return order, values


def _clique_family(g: WeightedGraph, max_dim: int | None = None) -> Family:
    """Cliques of g; a clique enters at the maximum weight over its edges.

    The state is the mask of common neighbors.
    """
    adj, w = _tables(g)

    def grow(s, x, common, candidates):
        for v in _bits(common & candidates):
            row = w[v]
            yield v, max(x, max([row[u] for u in s])), common & adj[v]

    return _levelwise(g, w, enumerate(adj), grow, max_dim)


def _neighborhood_family(g: WeightedGraph, max_dim: int | None = None) -> Family:
    """Subsets of closed neighborhoods of g, each entering at its earliest witness.

    The state maps each witness c, a vertex with s inside N[c], in ascending
    order, to the largest weight among the edges from c to the other members
    of s; the value is the least of those, the first on a tie. near[i] is
    vertex i's root state and its weight row, with i itself at -inf so that
    max() passes it over.
    """
    adj, w = _tables(g)
    closed = [adj[i] | 1 << i for i in range(len(adj))]
    near = [{c: w[i].get(c, NEG_INF) for c in _bits(closed[i])} for i in range(len(w))]

    def grow(s, x, witnesses, candidates):
        reach = 0
        for c in witnesses:
            reach |= closed[c]
        for v in _bits(reach & candidates):
            row = near[v]
            child = {}
            for c, y in witnesses.items():
                t = row.get(c)
                if t is not None:
                    child[c] = t if t > y else y  # max(y, t): the first on a tie
            yield v, min(child.values()), child

    return _levelwise(g, w, enumerate(near), grow, max_dim)


_ENCLAVELESS_VERTEX_GUARD = 20


def _enclaveless_family(g: WeightedGraph, max_dim: int | None = None) -> Family:
    """Enclaveless vertex sets of g, each entering once every member keeps an outside neighbor.

    The value is the maximum over members of the weight of their lightest edge
    leaving the set. The state is the member mask. Adding v can only take the
    last outside neighbor from v itself and from members adjacent to v, so
    only those are checked and re-valued.
    """
    n = len(g.vertices)
    if n > _ENCLAVELESS_VERTEX_GUARD:
        raise ValueError(
            f"enclaveless_complex refuses {n} vertices, beyond the guard of "
            f"{_ENCLAVELESS_VERTEX_GUARD}: without a dimension cap the complex of "
            f"the complete graph K_n already has 2^n - 2 simplices"
        )
    adj, w = _tables(g)
    by_weight = [sorted(row, key=row.__getitem__) for row in w]
    live = sum(1 << i for i in range(n) if adj[i])

    def lightest_out(x: int, mask: int) -> float:
        return next(w[x][u] for u in by_weight[x] if not mask >> u & 1)

    def grow(s, x, mask, candidates):
        for v in _bits(live & candidates):
            grown = mask | 1 << v
            touched = list(_bits((adj[v] & mask) | 1 << v))
            if all(adj[t] & ~grown for t in touched):
                yield v, max(x, max([lightest_out(t, grown) for t in touched])), grown

    return _levelwise(g, w, [(i, 1 << i) for i in _bits(live)], grow, max_dim)


def clique_complex(g: WeightedGraph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of all cliques of g, optionally capped at max_dim."""
    return SimplicialComplex._from_ordered(_clique_family(g, max_dim)[0])


def neighborhood_complex(g: WeightedGraph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of all nonempty subsets of closed neighborhoods of g.

    The neighborhood of v contains v itself, so every vertex appears even
    when isolated. Uncapped, the facets are the inclusion-maximal closed
    neighborhoods.
    """
    return SimplicialComplex._from_ordered(_neighborhood_family(g, max_dim)[0])


def enclaveless_complex(g: WeightedGraph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of enclaveless vertex sets of g.

    A set Y is enclaveless when every member keeps a neighbor outside Y,
    equivalently when the complement of Y is dominating; the facets are the
    complements of the minimal dominating sets. Simplices are grown one vertex
    at a time, so the work is proportional to the output. Graphs beyond 20
    vertices are refused whatever max_dim: uncapped, the complex of K_n has
    2^n - 2 simplices.
    """
    return SimplicialComplex._from_ordered(_enclaveless_family(g, max_dim)[0])


def independent_complex(g: WeightedGraph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of independent sets of g: the clique complex of the complement."""
    return clique_complex(complement(g), max_dim)


def _chain_label(s: Simplex) -> str:
    # Escaped join so distinct simplices never collide as barycenter labels.
    return "|".join(v.replace("\\", "\\\\").replace("|", "\\|") for v in s)


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: one vertex per simplex, simplices are inclusion chains.

    The chains are the cliques of the comparability graph, built on the chain
    labels so that the clique enumeration sees them in label order.
    """
    sims = list(k)
    sets = [frozenset(s) for s in sims]
    labels = [_chain_label(s) for s in sims]
    comparable = [
        (labels[i], labels[j])
        for i in range(len(sims))
        for j in range(i + 1, len(sims))
        if sets[i] < sets[j]
    ]
    return clique_complex(WeightedGraph(labels, comparable))


def one_skeleton(k: SimplicialComplex) -> WeightedGraph:
    """Graph of the vertices and 1-simplices of k; weights unassigned."""
    return WeightedGraph(k.vertices, [edge(*s) for s in k.simplices_of_dim(1)])


def complex_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Test whether two complexes are isomorphic (small instances only).

    Identical simplex sets short-circuit to True. Otherwise the facet
    incidence structure of each complex is encoded as a bipartite graph
    (vertex nodes against facet nodes) and the graph-isomorphism oracle is
    searched for a class-preserving bijection.
    """
    from .graphs import isomorphisms

    if a == b:
        return True
    if a._starts != b._starts:
        return False

    def incidence(k: SimplicialComplex) -> WeightedGraph:
        vs = [f"v:{v}" for v in k.vertices]
        fs = [f"s:{i}" for i in range(len(k.facets))]
        es = [
            (f"v:{v}", f"s:{i}")
            for i, facet in enumerate(k.facets)
            for v in facet
        ]
        return WeightedGraph(vs + fs, es)

    ga, gb = incidence(a), incidence(b)
    for psi in isomorphisms(ga, gb):
        if all(psi[f"v:{v}"].startswith("v:") for v in a.vertices):
            return True
    return False
