"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from itertools import combinations

from graphtda import SimplicialComplex, WeightedGraph
from graphtda.persistence import PersistenceDiagram


def random_weighted_graph(
    rng: random.Random,
    min_n: int = 2,
    max_n: int = 10,
    p: tuple[float, float] = (0.2, 0.9),
    weights: str = "float",
) -> WeightedGraph:
    n = rng.randint(min_n, max_n)
    vs = [f"v{i:02d}" for i in range(n)]
    density = rng.uniform(*p)
    ws = {}
    for u, v in combinations(vs, 2):
        if rng.random() < density:
            if weights == "int":
                ws[(u, v)] = float(rng.randint(0, 6))
            else:
                ws[(u, v)] = round(rng.uniform(0.0, 10.0), 3)
    return WeightedGraph(vs, ws.keys(), ws)


def small_graphs(rng: random.Random, count: int) -> list[WeightedGraph]:
    """Integer-weighted graphs on at most 9 vertices, with isolated vertices
    and edgeless graphs among them."""
    fixed = [
        WeightedGraph(["a"]),
        WeightedGraph(["a", "b", "c"]),
        WeightedGraph("abcz", [("a", "b"), ("b", "c")], {("a", "b"): 2.0, ("b", "c"): 1.0}),
    ]
    return fixed + [
        random_weighted_graph(rng, min_n=1, max_n=9, p=(0.0, 0.8), weights="int")
        for _ in range(count)
    ]


def nested_graph_pair(
    rng: random.Random, max_n: int = 10
) -> tuple[WeightedGraph, WeightedGraph]:
    """Spanning subgraph pair g <= h on a shared vertex set."""
    h = random_weighted_graph(rng, min_n=2, max_n=max_n)
    kept = {e: w for e, w in h.weight.items() if rng.random() < 0.6}
    g = WeightedGraph(h.vertices, kept.keys(), kept)
    return g, h


def perturbed_weights(
    rng: random.Random, g: WeightedGraph, eps: float
) -> WeightedGraph:
    ws = {e: w + rng.uniform(-eps, eps) for e, w in g.weight.items()}
    return WeightedGraph(g.vertices, ws.keys(), ws)


def random_complex(
    rng: random.Random, max_vertices: int = 6, max_facets: int = 5
) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, n)
        facets.append(rng.sample(vs, size))
    return SimplicialComplex.from_facets(facets)


def random_filtration_values(
    rng: random.Random, k: SimplicialComplex, levels: int = 8
) -> dict:
    """Monotone values: a random level per simplex, pushed up along faces."""
    values: dict = {}
    for s in sorted(k.simplices, key=len):
        own = float(rng.randrange(levels))
        if len(s) > 1:
            own = max([own] + [values[f] for f in combinations(s, len(s) - 1)])
        values[s] = own
    return values


def random_diagram(
    rng: random.Random, dimension: int = 0, max_points: int = 6, with_essential: bool = True
) -> PersistenceDiagram:
    points = []
    for _ in range(rng.randint(0, max_points)):
        b = round(rng.uniform(0, 5), 2)
        d = b + round(rng.uniform(0.05, 5), 2)
        points.append((b, d))
    essential = []
    if with_essential:
        essential = [round(rng.uniform(0, 5), 2) for _ in range(rng.randint(0, 2))]
    return PersistenceDiagram(dimension, points, essential)
