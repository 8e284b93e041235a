"""Bottleneck distance between diagrams and the graph-isomorphism pseudodistance.

The bottleneck optimum is exact: the smallest feasible candidate cost, found by
bisection over the sorted candidates. A cost c is feasible when the pairs of
points costing at most c have a matching that covers, on each side, every point
whose half-persistence exceeds c; the other points retire to the diagonal. A
forced point's partners at c are the points within sup-norm distance c, so
each side is sorted by birth and read in windows of births; no cost matrix is
built. A probe reads a point's window lazily, at its own c, only as far as its
matching search needs. Each probe starts from the matchings of the last
infeasible one, which every later probe exceeds, so each kept pair still
costs at most c; pairs whose point is no longer forced are dropped. That is
exact: augmenting paths from every unmatched forced point decide whether a
covering matching exists whatever matching they start from (Berge). A
feasible probe's matchings are never kept, since later probes are smaller.
The candidates are 0, the half-persistences and the sup-norm distances
of pairs closer than the larger of their two half-persistences, so each point
reads them from its window at its own half-persistence. Essential points
match only among themselves at cost |birth - birth'|; when the essential
counts differ the distance is +inf, since a cornerline cannot be moved to the
diagonal at finite cost.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right

from .graphs import WeightedGraph, _require_weighted, edge, isomorphisms
from .persistence import PersistenceDiagram

INF = float("inf")
# Window half-width that admits every finite distance and no infinite one.
_UNBOUNDED = sys.float_info.max

# Points per diagram, multiplicities counted, above which bottleneck refuses.
# The candidate set, and with it the cost, grows about as the square of this
# count. Two independent diagrams, births U[0, 100) and persistence U[0.5, 30)
# from random.Random(3), take 0.34-0.46 s (median 0.37 s) and 25 MB of max RSS
# through `graphtda distance` at 1000 points each, and 0.67-1.04 s (median
# 0.77 s) and 51 MB at 2000: 12 separate processes each, Python 3.11, 2 CPUs.
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
    direct = max(_coord_diff(p[0], q[0]), _coord_diff(p[1], q[1]))
    return min(direct, max(_half_persistence(p), _half_persistence(q)))


def _covers(
    points: list[Point],
    diag: list[float],
    births: list[float],
    deaths: list[float],
    c: float,
    match: list[int],
) -> bool:
    """Whether one matching covers every forced point, extending ``match`` in place.

    Point i is forced when its half-persistence diag[i] exceeds c. ``match[j]``
    is the forced point that point j of the other side is matched to, or -1.
    A forced point's partners are the other side's points within sup-norm
    distance c, read lazily from its window of ``births`` and tested on
    ``deaths``. Kuhn's augmenting paths, each tried only when an unmatched
    forced point has no free partner to take at once. The alternating path
    lives on an explicit stack, not the interpreter's.
    """

    def partners(i: int):
        b, d = points[i]
        lo, hi = _window(births, b, c)
        return (j for j in range(lo, hi) if abs(deaths[j] - d) <= c or deaths[j] == d)

    matched = set(match)
    for s, h in enumerate(diag):
        if h <= c or s in matched:
            continue
        v = next((v for v in partners(s) if match[v] < 0), -1)
        if v >= 0:
            match[v] = s
            continue
        seen = [False] * len(match)
        stack, via = [(s, partners(s))], [-1]  # via[k]: right vertex into stack[k]
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), -1)
            if v < 0:
                stack.pop()
                via.pop()
                continue
            seen[v] = True
            via.append(v)
            w = match[v]
            if w < 0:
                for (u, _), r in zip(stack, via[1:]):
                    match[r] = u
                break
            stack.append((w, partners(w)))
        else:
            return False
    return True


def _window(keys: list[float], x: float, c: float) -> tuple[int, int]:
    """The range of the sorted keys y with _coord_diff(x, y) <= c, for c >= 0.

    Bisecting for x - c and x + c lands within rounding of the range's ends;
    the loops settle each end on the exact test, which holds on one run of
    keys since the rounded difference is monotone in y.
    """
    n = len(keys)
    lo = bisect_left(keys, x - c)
    while lo > 0 and x - keys[lo - 1] <= c:
        lo -= 1
    while lo < n and keys[lo] < x and not x - keys[lo] <= c:
        lo += 1
    hi = bisect_right(keys, x + c, lo)
    while hi < n and keys[hi] - x <= c:
        hi += 1
    while hi > lo and keys[hi - 1] > x and not keys[hi - 1] - x <= c:
        hi -= 1
    return lo, hi


def _distances(p: Point, others: list[Point], births: list[float], c: float) -> list[float]:
    """Sup-norm distances from p to the points of others within c of it; births are theirs."""
    b, d = p
    lo, hi = _window(births, b, c)
    out = []
    for a, e in others[lo:hi]:
        dd = 0.0 if e == d else abs(e - d)
        if dd <= c:
            db = 0.0 if a == b else abs(a - b)
            out.append(db if db > dd else dd)
    return out


def _proper_bottleneck(pts1: list[Point], pts2: list[Point]) -> float:
    # Each side arrives sorted by birth, so the points within sup-norm distance
    # c of a point are one window of births, tested on deaths.
    births1, deaths1 = [p[0] for p in pts1], [p[1] for p in pts1]
    births2, deaths2 = [q[0] for q in pts2], [q[1] for q in pts2]
    diag1 = [_half_persistence(p) for p in pts1]
    diag2 = [_half_persistence(q) for q in pts2]

    # kept[0] matches the points of pts2 to forced points of pts1, kept[1] the
    # points of pts1 to forced points of pts2: the matchings of the largest
    # infeasible probe so far, which every later probe exceeds.
    sides = ((pts1, diag1, births2, deaths2), (pts2, diag2, births1, deaths1))
    kept = [[-1] * len(pts2), [-1] * len(pts1)]

    def feasible(c: float) -> bool:
        # A point with half-persistence at most c may retire to the diagonal;
        # the others are forced. c is feasible iff the pairs costing at most c
        # have a matching M covering every forced point: unmatched points take
        # their projections, and the |M| projection slots left free on the pts1
        # side absorb the projections of the |M| matched pts2 points. By
        # Mendelsohn-Dulmage, M exists iff each side's forced points can be
        # covered on their own. A pair with a forced point has max(hp, hq) > c,
        # so it costs at most c iff its sup-norm distance does.
        # Each side starts from its kept matching, less the pairs whose point
        # is no longer forced: every kept pair costs less than c, so the rest
        # is a matching of forced points at c. If an unmatched forced point has
        # no augmenting path, no matching covers them all, since the symmetric
        # difference with one that did would hold such a path.
        trial = []
        for (pts, diag, births, deaths), match in zip(sides, kept):
            match = [i if i >= 0 and diag[i] > c else -1 for i in match]
            trial.append(match)
            if not _covers(pts, diag, births, deaths, c, match):
                kept[: len(trial)] = trial
                return False
        return True

    # The optimum is 0, a finite half-persistence or the sup-norm distance of a
    # pair closer than the larger of its half-persistences, since a farther
    # pair costs that half-persistence. So each point reads the distances
    # within its own half-persistence; an infinite one reads every finite one.
    candidates = {0.0, *(h for h in diag1 + diag2 if h < INF)}
    for pts, diag, others, births in ((pts1, diag1, pts2, births2), (pts2, diag2, pts1, births1)):
        for p, h in zip(pts, diag):
            candidates.update(_distances(p, others, births, min(h, _UNBOUNDED)))
    ordered = sorted(candidates)
    k = bisect_left(range(len(ordered)), True, key=lambda i: feasible(ordered[i]))
    return ordered[k] if k < len(ordered) else INF


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams of the same degree."""
    if d1.dimension != d2.dimension:
        raise ValueError(f"homology degrees differ: {d1.dimension} vs {d2.dimension}")
    for d in (d1, d2):
        size = d.total_points + d.total_essential
        if size > MAX_POINTS:
            raise ValueError(
                f"diagram of degree {d.dimension} has {size} points counting multiplicity, "
                f"above the bottleneck limit of {MAX_POINTS}"
            )
    # The copies come in the diagram's order, sorted and repeated by multiplicity:
    # sorted essential births match in order, and _proper_bottleneck reads
    # windows of sorted births.
    ess1, ess2 = ([e.birth for e in d.essential for _ in range(e.multiplicity)] for d in (d1, d2))
    if len(ess1) != len(ess2):
        return INF
    ess_cost = max((_coord_diff(a, b) for a, b in zip(ess1, ess2)), default=0.0)
    pts1, pts2 = (
        [(p.birth, p.death) for p in d.points for _ in range(p.multiplicity)] for d in (d1, d2)
    )
    return max(ess_cost, _proper_bottleneck(pts1, pts2))


def pseudodistance_iso(g1: WeightedGraph, g2: WeightedGraph) -> float:
    """Upper bound for the natural pseudodistance via graph isomorphisms.

    Minimum over all isomorphisms of the largest weight discrepancy on
    corresponding edges; +inf when the graphs are not isomorphic. Exhaustive,
    intended for small graphs.
    """
    _require_weighted(g1, "pseudodistance_iso")
    _require_weighted(g2, "pseudodistance_iso")
    best = INF
    for psi in isomorphisms(g1, g2):
        cost = 0.0
        for (u, v), w in g1.weight.items():
            cost = max(cost, _coord_diff(w, g2.weight[edge(psi[u], psi[v])]))
            if cost >= best:
                break
        if cost < best:
            best = cost
            if best == 0.0:
                break
    return best

