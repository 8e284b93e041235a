"""Weighted-graph data model, edge-list parsing and graph-level constructions."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations

Edge = tuple[str, str]


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _real(x, *what) -> float:
    """x as a float if an int or a float (no bool) in the float range, else ValueError naming
    what; a NaN is refused as "<what> is NaN"."""
    if type(x) is float and x == x:
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"{''.join(map(str, what))} is an integer too large for a float") from None
        if x == x:
            return x
        raise ValueError(f"{''.join(map(str, what))} is NaN")
    raise ValueError(f"{''.join(map(str, what))} must be an int or a float (not a bool), got {x!r}")


def _signed(x: float) -> tuple[float, float]:
    """x with its sign bit: 0.0 and -0.0 differ under ==, as they do in every output."""
    return x, math.copysign(1.0, x)


def edge(u: str, v: str) -> Edge:
    """Normalize an unordered vertex pair. Loops are rejected."""
    if u == v:
        raise ValueError(f"loop edge on vertex {u!r}")
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Finite simple graph with optional real edge weights.

    Vertex identifiers are arbitrary strings, totally ordered lexicographically;
    every enumeration follows that order so results are deterministic. `_real`
    reads each weight: an int or a float (no bool, no string) in the float
    range, held as a float; NaN is refused as "weight for edge (u, v) is NaN".
    Weights may be partial (constructions such as :func:`complement` produce
    unweighted edges); operations that need weights state so. Instances are
    immutable after construction. Equality tells a weight of 0.0 from -0.0.
    """

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
        weights: Mapping[tuple[str, str], float] | None = None,
    ):
        vs = set(vertices)
        es = {edge(u, v) for u, v in edges}
        for u, v in es:
            vs.add(u)
            vs.add(v)
        for v in vs:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be strings, got {v!r}")
        ws: dict[Edge, float] = {}
        if weights:
            for key, w in weights.items():
                e = edge(*key)
                if e not in es:
                    raise ValueError(f"weight given for missing edge {e}")
                if e in ws:
                    raise ValueError(f"weight given twice for edge {e}")
                ws[e] = _real(w, "weight for edge ", e)
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        self.edges: frozenset[Edge] = frozenset(es)
        self.weight: dict[Edge, float] = ws
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @property
    def is_weighted(self) -> bool:
        """True when every edge carries a weight."""
        return len(self.weight) == len(self.edges)

    def adjacency(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge(self, u: str, v: str) -> bool:
        return edge(u, v) in self.edges

    def edge_weight(self, u: str, v: str) -> float:
        e = edge(u, v)
        if e not in self.weight:
            raise KeyError(f"edge {e} has no weight")
        return self.weight[e]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and {e: _signed(w) for e, w in self.weight.items()}
            == {e: _signed(w) for e, w in other.weight.items()}
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, frozenset(self.weight.items())))

    def __repr__(self) -> str:
        return f"WeightedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def parse_graph(text: str) -> WeightedGraph:
    """Parse an edge-list document into a graph.

    One record per line: ``u v w`` declares an edge with a finite decimal
    weight, a bare ``u`` declares an isolated vertex. ``#`` starts a comment
    line; blank lines are skipped. Loops, duplicate edges and bad weights are
    reported with their line number.
    """
    vertices: set[str] = set()
    weights: dict[Edge, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.add(parts[0])
            continue
        if len(parts) != 3:
            raise GraphParseError(f"expected 'u v w' or a bare vertex, got {line!r}", lineno)
        u, v, wtok = parts
        if u == v:
            raise GraphParseError(f"loop edge on vertex {u!r}", lineno)
        try:
            w = float(wtok)
        except ValueError:
            raise GraphParseError(f"non-numeric weight {wtok!r}", lineno) from None
        if not math.isfinite(w):
            raise GraphParseError(f"weight must be finite, got {wtok!r}", lineno)
        e = edge(u, v)
        if e in weights:
            raise GraphParseError(f"duplicate edge {u} {v}", lineno)
        weights[e] = w
        vertices.update((u, v))
    return WeightedGraph(vertices, weights.keys(), weights)


def format_graph(g: WeightedGraph) -> str:
    """Render a graph back to the edge-list format accepted by parse_graph, which
    reads it back as g. Labels that are empty, hold whitespace or start with "#",
    and weights that are not finite, have no text form and are refused."""
    lines = []
    covered = {v for e in g.edges for v in e}
    for v in g.vertices:
        if not v or v.startswith("#") or any(c.isspace() for c in v):
            raise ValueError(f"vertex label {v!r} is empty, holds whitespace or starts with '#'")
        if v not in covered:
            lines.append(v)
    for e in g.sorted_edges():
        if e not in g.weight:
            raise ValueError(f"edge {e} has no weight; the text format is fully weighted")
        if not math.isfinite(g.weight[e]):
            raise ValueError(f"edge {e} has weight {g.weight[e]}; the text format holds finite weights")
        lines.append(f"{e[0]} {e[1]} {g.weight[e]!r}")
    return "\n".join(lines) + "\n"


def complement(g: WeightedGraph) -> WeightedGraph:
    """Complement graph: same vertices, complementary edge set, no weights."""
    return WeightedGraph(g.vertices, [e for e in combinations(g.vertices, 2) if e not in g.edges])


def threshold_subgraph(g: WeightedGraph, t: float) -> WeightedGraph:
    """Subgraph with every vertex of g and the edges of weight <= t.

    Vertices are kept even when isolated at level t, so callers decide
    separately when a vertex enters a filtration.
    """
    if not g.is_weighted:
        raise ValueError("threshold_subgraph requires a fully weighted graph")
    kept = {e: w for e, w in g.weight.items() if w <= t}
    return WeightedGraph(g.vertices, kept.keys(), kept)


def _fresh_pair(g: WeightedGraph) -> tuple[str, str]:
    used = set(g.vertices)
    out = []
    for base in ("x", "y"):
        cand = base
        k = 2
        while cand in used:
            cand = f"{base}{k}"
            k += 1
        used.add(cand)
        out.append(cand)
    return out[0], out[1]


def csusp(g: WeightedGraph) -> WeightedGraph:
    """Add two fresh vertices adjacent to every vertex of g (not to each other).

    The clique complex of the result is the suspension of the clique complex
    of g. New edges are unweighted; existing weights are preserved.
    """
    x, y = _fresh_pair(g)
    es = set(g.edges)
    for v in g.vertices:
        es.add(edge(x, v))
        es.add(edge(v, y))
    return WeightedGraph(g.vertices + (x, y), es, g.weight)


def isusp(g: WeightedGraph) -> WeightedGraph:
    """Disjoint union of g and a single fresh edge.

    Suspends both the independent-set complex and the enclaveless complex.
    The new edge is unweighted; existing weights are preserved.
    """
    x, y = _fresh_pair(g)
    es = set(g.edges)
    es.add(edge(x, y))
    return WeightedGraph(g.vertices + (x, y), es, g.weight)


def isomorphisms(g: WeightedGraph, h: WeightedGraph) -> Iterator[dict[str, str]]:
    """Yield every edge-preserving vertex bijection g -> h.

    Plain backtracking with degree pruning; meant as an exhaustive oracle for
    small graphs (|V| <= 10 or so), not as a feature. The stream is empty
    exactly when the graphs are not isomorphic, and is deterministic.
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return
    deg_g = {v: g.degree(v) for v in g.vertices}
    deg_h = {v: h.degree(v) for v in h.vertices}
    if sorted(deg_g.values()) != sorted(deg_h.values()):
        return
    candidates = {
        u: [v for v in h.vertices if deg_h[v] == deg_g[u]] for u in g.vertices
    }
    order = sorted(g.vertices, key=lambda u: (len(candidates[u]), u))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def assign_ok(u: str, v: str) -> bool:
        for w, mw in mapping.items():
            if g.has_edge(u, w) != h.has_edge(v, mw):
                return False
        return True

    def search(i: int) -> Iterator[dict[str, str]]:
        if i == len(order):
            yield dict(mapping)
            return
        u = order[i]
        for v in candidates[u]:
            if v in used or not assign_ok(u, v):
                continue
            mapping[u] = v
            used.add(v)
            yield from search(i + 1)
            del mapping[u]
            used.discard(v)

    yield from search(0)

