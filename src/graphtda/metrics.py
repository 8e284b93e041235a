"""Bottleneck distance between diagrams and the graph-isomorphism pseudodistance.

The bottleneck optimum is exact. Every candidate cost is collected (pairwise
point costs and half-persistences of diagonal moves), and the smallest one
that is feasible is found by bisection over the sorted candidates. A cost c
is feasible when the pairs of points costing at most c have a matching that
covers, on each side, every point whose half-persistence exceeds c; the
other points retire to the diagonal. Essential points match only among
themselves at cost |birth - birth'|; when the essential counts differ the
distance is +inf, since a cornerline cannot be moved to the diagonal at
finite cost.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .graphs import WeightedGraph, isomorphisms
from .persistence import PersistenceDiagram

INF = float("inf")

# Points per diagram, multiplicities counted, above which bottleneck refuses.
# The cost grows faster than the square of this count: two independent
# 1000-point diagrams take about 5 s and 62 MB, two 2000-point ones 27 s and
# 198 MB.
MAX_POINTS = 2000

Point = tuple[float, float]


def _coord_diff(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b)


def _half_persistence(p: Point) -> float:
    u, v = p
    if math.isinf(u) or math.isinf(v):
        return INF
    return (v - u) / 2.0


def dhat(p: Point, q: Point) -> float:
    """Cost of moving cornerpoint p onto q, diagonal shortcuts included.

    The minimum of the sup-norm displacement and of retiring both points to
    the diagonal. Matching infinite coordinates cost nothing; mismatched ones
    cost +inf.
    """
    return _pair_cost(p, q, _half_persistence(p), _half_persistence(q))


def _pair_cost(p: Point, q: Point, hp: float, hq: float) -> float:
    """dhat(p, q), given the half-persistences hp of p and hq of q."""
    direct = max(_coord_diff(p[0], q[0]), _coord_diff(p[1], q[1]))
    return min(direct, max(hp, hq))


def _expand_points(d: PersistenceDiagram) -> list[Point]:
    out: list[Point] = []
    for p in d.points:
        out.extend([(p.birth, p.death)] * p.multiplicity)
    return out


def _expand_essential(d: PersistenceDiagram) -> list[float]:
    out: list[float] = []
    for e in d.essential:
        out.extend([e.birth] * e.multiplicity)
    return out


def _covers(sources: list[int], adjacency: dict[int, list[int]], right_size: int) -> bool:
    """Whether one matching covers every source, by Kuhn's augmenting paths.

    Only sources are ever matched, so ``adjacency`` needs only their rows. The
    alternating path lives on an explicit stack, not the interpreter's.
    """
    match_right = [-1] * right_size
    for s in sources:
        seen = [False] * right_size
        stack, via = [(s, iter(adjacency[s]))], [-1]  # via[k]: right vertex into stack[k]
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), -1)
            if v < 0:
                stack.pop()
                via.pop()
                continue
            seen[v] = True
            via.append(v)
            w = match_right[v]
            if w < 0:
                for (u, _), r in zip(stack, via[1:]):
                    match_right[r] = u
                break
            stack.append((w, iter(adjacency[w])))
        else:
            return False
    return True


def _proper_bottleneck(pts1: list[Point], pts2: list[Point]) -> float:
    n1, n2 = len(pts1), len(pts2)
    diag1 = [_half_persistence(p) for p in pts1]
    diag2 = [_half_persistence(q) for q in pts2]
    pair_cost = [[_pair_cost(p, q, hp, hq) for q, hq in zip(pts2, diag2)] for p, hp in zip(pts1, diag1)]

    def feasible(c: float) -> bool:
        # A point with half-persistence at most c may retire to the diagonal;
        # the others are forced. c is feasible iff the pairs costing at most c
        # have a matching M covering every forced point: unmatched points take
        # their projections, and the |M| projection slots left free on the pts1
        # side absorb the projections of the |M| matched pts2 points. By
        # Mendelsohn-Dulmage, M exists iff each side's forced points can be
        # covered on their own.
        forced1 = [i for i in range(n1) if diag1[i] > c]
        forced2 = [j for j in range(n2) if diag2[j] > c]
        rows = {i: [j for j in range(n2) if pair_cost[i][j] <= c] for i in forced1}
        if not _covers(forced1, rows, n2):
            return False
        cols = {j: [i for i in range(n1) if pair_cost[i][j] <= c] for j in forced2}
        return _covers(forced2, cols, n1)

    candidates = {0.0}
    candidates.update(c for row in pair_cost for c in row if math.isfinite(c))
    candidates.update(c for c in diag1 if math.isfinite(c))
    candidates.update(c for c in diag2 if math.isfinite(c))
    ordered = sorted(candidates)
    k = bisect_left(range(len(ordered)), True, key=lambda i: feasible(ordered[i]))
    return ordered[k] if k < len(ordered) else INF


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams of the same degree."""
    if d1.dimension != d2.dimension:
        raise ValueError(
            f"cannot compare diagrams of degrees {d1.dimension} and {d2.dimension}"
        )
    for d in (d1, d2):
        size = d.total_points + d.total_essential
        if size > MAX_POINTS:
            raise ValueError(
                f"diagram of degree {d.dimension} has {size} points counting multiplicity, "
                f"above the bottleneck limit of {MAX_POINTS}"
            )
    ess1 = sorted(_expand_essential(d1))
    ess2 = sorted(_expand_essential(d2))
    if len(ess1) != len(ess2):
        return INF
    ess_cost = max((_coord_diff(a, b) for a, b in zip(ess1, ess2)), default=0.0)
    proper_cost = _proper_bottleneck(_expand_points(d1), _expand_points(d2))
    return max(ess_cost, proper_cost)


def pseudodistance_iso(g1: WeightedGraph, g2: WeightedGraph) -> float:
    """Upper bound for the natural pseudodistance via graph isomorphisms.

    Minimum over all isomorphisms of the largest weight discrepancy on
    corresponding edges; +inf when the graphs are not isomorphic. Exhaustive,
    intended for small graphs.
    """
    if not (g1.is_weighted and g2.is_weighted):
        raise ValueError("pseudodistance_iso requires fully weighted graphs")
    best = INF
    for psi in isomorphisms(g1, g2):
        cost = 0.0
        for (u, v), w in g1.weight.items():
            cost = max(cost, _coord_diff(w, g2.weight[_map_edge(psi, u, v)]))
            if cost >= best:
                break
        if cost < best:
            best = cost
            if best == 0.0:
                break
    return best


def _map_edge(psi: dict[str, str], u: str, v: str) -> tuple[str, str]:
    a, b = psi[u], psi[v]
    return (a, b) if a < b else (b, a)
