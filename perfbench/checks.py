"""Independent checks of CLI outputs, and a self-test that they can fail.

Nothing here calls graphtda. Expected results are recomputed from the
definitions in the generated inputs:

* degree-0 diagrams by an elder-rule union-find over the construction's
  1-skeleton (vertex value: minimum incident weight, -inf when isolated);
* degree-1 and degree-2 ranks of ordinary persistence by the brute-force
  ``SublevelRankOracle`` of the test suite, fed simplex values recomputed here;
* the degree-0 grid of extended persistence by component counts of threshold
  graphs in both half-planes;
* bottleneck distances by a matcher of our own over the candidate costs, or
  by the exact shift of a lattice diagram.

Each ``check_*`` function returns a list of error strings, empty when the
output is right.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

from inputs import SHIFT

INF = math.inf

# Ranks of ordinary persistence asked of the oracle: (degree, u, v), with u
# and v given as quantiles of the graph's sorted edge weights.
# Higher levels cost the oracle seconds per query at these sizes.
RANK_QUERIES = ((1, 0.20, 0.30), (1, 0.30, 0.40), (2, 0.40, 0.50), (2, 0.45, 0.55))


def _oracle_class():
    tests = Path(__file__).resolve().parent.parent / "tests"
    if str(tests) not in sys.path:
        sys.path.insert(0, str(tests))
    from oracles import SublevelRankOracle

    return SublevelRankOracle


# ---------------------------------------------------------------------------
# Output documents.


def _value(x) -> float:
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    return float(x)


def diagram_lists(doc: dict) -> tuple[list[tuple[float, float]], list[float]]:
    """Proper points and essential births of one diagram document, multiplicities expanded."""
    points = []
    for p in doc["points"]:
        points += [(_value(p["birth"]), _value(p["death"]))] * p["multiplicity"]
    essential = []
    for e in doc["essential"]:
        essential += [_value(e["birth"])] * e["multiplicity"]
    return sorted(points), sorted(essential)


def rank(doc: dict, u: float, v: float) -> int:
    """Classes born by u and alive strictly after v."""
    points, essential = diagram_lists(doc)
    return sum(1 for b, d in points if b <= u and d > v) + sum(1 for b in essential if b <= u)


def _by_dimension(docs: list, r: int) -> dict:
    for d in docs:
        if d["dimension"] == r:
            return d
    return {"dimension": r, "points": [], "essential": []}


# ---------------------------------------------------------------------------
# 1-skeletons from the definitions.


def _neighbours(graph: dict) -> dict[str, dict[str, float]]:
    nbrs = {v: {} for v in graph["vertices"]}
    for (u, v), w in graph["weights"].items():
        nbrs[u][v] = w
        nbrs[v][u] = w
    return nbrs


def _vertex_values(nbrs: dict) -> dict[str, float]:
    return {v: min(ws.values()) if ws else -INF for v, ws in nbrs.items()}


def skeleton(graph: dict, construction: str):
    """(vertex values, edge values) of the construction's 1-skeleton."""
    nbrs = _neighbours(graph)
    vertex = _vertex_values(nbrs)
    edges: dict[tuple[str, str], float] = {}
    if construction == "clique":
        edges = dict(graph["weights"])
    elif construction == "neighborhood":
        for u, v in combinations(graph["vertices"], 2):
            best = nbrs[u].get(v, INF)
            for x in nbrs[u].keys() & nbrs[v].keys():
                best = min(best, max(nbrs[x][u], nbrs[x][v]))
            if best < INF:
                edges[(u, v)] = best
    elif construction == "enclaveless":
        vertex = {v: val for v, val in vertex.items() if nbrs[v]}
        for u, v in combinations(sorted(vertex), 2):
            outside_u = [w for x, w in nbrs[u].items() if x != v]
            outside_v = [w for x, w in nbrs[v].items() if x != u]
            if outside_u and outside_v:
                edges[(u, v)] = max(min(outside_u), min(outside_v))
    else:
        raise ValueError(construction)
    return vertex, edges


def elder_rule(vertex: dict, edges: dict) -> tuple[list[tuple[float, float]], list[float]]:
    """Degree-0 persistence by union-find: the younger component dies at a merge."""
    parent = {v: v for v in vertex}
    birth = dict(vertex)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    points = []
    for (u, v), w in sorted(edges.items(), key=lambda item: item[1]):
        a, b = find(u), find(v)
        if a == b:
            continue
        if birth[a] > birth[b]:
            a, b = b, a
        if w > birth[b]:
            points.append((birth[b], w))
        parent[b] = a
    essential = [birth[v] for v in vertex if find(v) == v]
    return sorted(points), sorted(essential)


def check_degree0(docs: list, vertex: dict, edges: dict, label: str) -> list[str]:
    got = diagram_lists(_by_dimension(docs, 0))
    want = elder_rule(vertex, edges)
    if got != want:
        return [f"{label} degree-0 diagram differs from union-find: got {_brief(got)}, want {_brief(want)}"]
    return []


def _brief(lists) -> str:
    points, essential = lists
    return f"{len(points)} points, essential {essential[:4]}"


# ---------------------------------------------------------------------------
# Ordinary persistence: clique, neighborhood and enclaveless.


def _level(weights: list[float], q: float) -> float:
    return weights[min(len(weights) - 1, int(q * len(weights)))]


def sublevel_values(graph: dict, construction: str, top: float) -> dict:
    """Values of the 1-, 2- and 3-simplices entering by level ``top``, from the closed forms.

    A clique simplex enters at its heaviest edge. A neighborhood simplex
    enters at the first level where one witness x reaches every other member:
    the minimum over witnesses of the largest weight from x.
    """
    nbrs = _neighbours(graph)
    low = {v: {u for u, w in ws.items() if w <= top} for v, ws in nbrs.items()}
    values: dict[tuple, float] = {}
    if construction == "clique":
        for a in graph["vertices"]:
            for b in sorted(x for x in low[a] if x > a):
                values[(a, b)] = nbrs[a][b]
                for c in sorted(x for x in low[a] & low[b] if x > b):
                    w3 = max(nbrs[a][b], nbrs[a][c], nbrs[b][c])
                    values[(a, b, c)] = w3
                    for d in sorted(x for x in low[a] & low[b] & low[c] if x > c):
                        values[(a, b, c, d)] = max(w3, nbrs[a][d], nbrs[b][d], nbrs[c][d])
    elif construction == "neighborhood":
        for x in graph["vertices"]:
            members = sorted(low[x] | {x})
            for k in (2, 3, 4):
                for s in combinations(members, k):
                    val = max(nbrs[x][y] for y in s if y != x)
                    if val < values.get(s, INF):
                        values[s] = val
    else:
        raise ValueError(construction)
    return values


class RankCheck:
    """Degree-1 and degree-2 ranks of one graph, asked of the brute-force oracle."""

    def __init__(self, graph: dict, construction: str):
        weights = sorted(graph["weights"].values())
        self.queries = [(r, _level(weights, qu), _level(weights, qv)) for r, qu, qv in RANK_QUERIES]
        top = max(v for _, _, v in self.queries)
        values = sublevel_values(graph, construction, top)
        self.oracle = _oracle_class()(SimpleNamespace(value=values))
        self.expected = [self.oracle.pbn(r, u, v) for r, u, v in self.queries]

    def check(self, docs: list, label: str) -> list[str]:
        errors = []
        for (r, u, v), want in zip(self.queries, self.expected):
            got = rank(_by_dimension(docs, r), u, v)
            if got != want:
                errors.append(f"{label} degree-{r} rank at ({u}, {v}) is {got}, oracle says {want}")
        return errors


def check_persist(graph: dict, construction: str, docs: list, ranks: RankCheck | None) -> list[str]:
    vertex, edges = skeleton(graph, construction)
    errors = check_degree0(docs, vertex, edges, construction)
    if ranks is not None:
        errors += ranks.check(docs, construction)
    return errors


# ---------------------------------------------------------------------------
# Extended persistence.


def expected_coordinates(graph: dict) -> list[float]:
    """The CLI's query lattice, from the edge weights: criticals, midpoints, one past each end."""
    finite = sorted(set(graph["weights"].values()))
    if not finite:
        return [0.0, 1.0]
    coords = [finite[0] - 1.0]
    for a, b in zip(finite, finite[1:]):
        coords += [a, (a + b) / 2.0]
    return coords + [finite[-1], finite[-1] + 1.0]


def _component_counts(vertices, present_at, edge_present) -> tuple[list, list]:
    """For one level: vertices sorted by entry level, and the number of
    distinct components (of the graph of present edges) among each prefix."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_present:
        parent[find(u)] = find(v)
    order = sorted(vertices, key=lambda v: present_at[v])
    seen, counts = set(), []
    for v in order:
        seen.add(find(v))
        counts.append(len(seen))
    return [present_at[v] for v in order], counts


def degree0_grid(graph: dict, coords: list[float]) -> list[list[int]]:
    """Extended degree-0 ranks on the lattice, cell [i][j] at (u, v) = (coords[i], coords[j]).

    Upper half-plane and diagonal: components of the threshold graph at v
    that hold a vertex present at u. Lower half-plane: the same count on the
    completed graph, whose non-edges are always present and whose edges are
    present once their weight reaches the level.
    """
    vertices = graph["vertices"]
    nbrs = _neighbours(graph)
    up_entry = _vertex_values(nbrs)
    full = len(vertices) - 1
    # Descending side: a vertex is present at level u once some completed
    # edge through it is, i.e. it has a non-neighbour or an edge weighing >= u.
    down_value = {
        v: -INF if len(ws) < full or not ws else -max(ws.values()) for v, ws in nbrs.items()
    }
    non_edges = [
        (a, b) for a, b in combinations(vertices, 2) if b not in nbrs[a]
    ]
    grid = [[0] * len(coords) for _ in coords]
    for j, v in enumerate(coords):
        up_levels, up_counts = _component_counts(
            vertices, up_entry, [e for e, w in graph["weights"].items() if w <= v]
        )
        down_levels, down_counts = _component_counts(
            vertices,
            down_value,
            non_edges + [e for e, w in graph["weights"].items() if w >= v],
        )
        for i, u in enumerate(coords):
            if u <= v:
                k = bisect.bisect_right(up_levels, u)
                grid[i][j] = up_counts[k - 1] if k else 0
            else:
                k = bisect.bisect_right(down_levels, -u)
                grid[i][j] = down_counts[k - 1] if k else 0
    return grid


class GridCheck:
    """Expected degree-0 grid of one graph, computed once."""

    def __init__(self, graph: dict):
        self.coords = expected_coordinates(graph)
        self.grid = degree0_grid(graph, self.coords)


def check_extended(graph: dict, doc: dict, grid: GridCheck) -> list[str]:
    vertex, edges = skeleton(graph, "clique")
    errors = check_degree0(doc["ascending"], vertex, edges, "extended ascending")
    for r in range(4):
        _, essential = diagram_lists(_by_dimension(doc["descending"], r))
        want = 1 if r == 0 else 0
        if len(essential) != want:
            errors.append(
                f"extended descending degree {r} has {len(essential)} essential classes, want {want}"
            )
    zero = [g for g in doc["grids"] if g["dimension"] == 0]
    if len(zero) != 1:
        return errors + [f"extended output has {len(zero)} degree-0 grids, want 1"]
    if zero[0]["coordinates"] != grid.coords:
        return errors + ["extended degree-0 grid coordinates differ from the weight lattice"]
    bad = [
        (i, j)
        for i, row in enumerate(grid.grid)
        for j, want in enumerate(row)
        if zero[0]["values"][i][j] != want
    ]
    if bad:
        i, j = bad[0]
        errors.append(
            f"extended degree-0 grid differs in {len(bad)} cells, first at "
            f"(u, v) = ({grid.coords[i]}, {grid.coords[j]}): "
            f"got {zero[0]['values'][i][j]}, want {grid.grid[i][j]}"
        )
    return errors


# ---------------------------------------------------------------------------
# Bottleneck distance.


def _sup(p, q) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _half(p) -> float:
    return (p[1] - p[0]) / 2.0


def _covers(heavy: list[int], reach: list[list[int]], right_size: int) -> bool:
    """Whether a matching saturates every left vertex in ``heavy``; iterative
    breadth-first augmenting paths."""
    match_right = [-1] * right_size
    match_left: dict[int, int] = {}
    for root in heavy:
        came_from = {}  # right vertex -> left vertex that reached it
        frontier = [root]
        free = -1
        while frontier and free < 0:
            nxt = []
            for left in frontier:
                for r in reach[left]:
                    if r in came_from:
                        continue
                    came_from[r] = left
                    if match_right[r] < 0:
                        free = r
                        break
                    nxt.append(match_right[r])
                if free >= 0:
                    break
            frontier = nxt
        if free < 0:
            return False
        r = free
        while r >= 0:
            left = came_from[r]
            r_old = match_left.get(left, -1)
            match_right[r], match_left[left] = left, r
            r = r_old
    return True


class Matcher:
    """Feasibility of a bottleneck threshold between two proper-point lists.

    At threshold c a point whose half-persistence exceeds c cannot retire to
    the diagonal and must match a point of the other diagram within
    sup-distance c. A matching that serves the heavy points of both sides at
    once exists exactly when each side's heavy points can be matched alone
    (Mendelsohn-Dulmage), so two one-sided searches decide it.
    """

    def __init__(self, first: list, second: list):
        self.first, self.second = first, second
        self.cost = [[_sup(p, q) for q in second] for p in first]
        self.half1 = [_half(p) for p in first]
        self.half2 = [_half(q) for q in second]

    def candidates(self) -> list[float]:
        values = {0.0}
        for row in self.cost:
            values.update(row)
        values.update(self.half1)
        values.update(self.half2)
        return sorted(values)

    def feasible(self, c: float) -> bool:
        heavy1 = [i for i, h in enumerate(self.half1) if h > c]
        heavy2 = [j for j, h in enumerate(self.half2) if h > c]
        reach1 = [[j for j, x in enumerate(row) if x <= c] for row in self.cost]
        reach2 = [[] for _ in self.second]
        for i, row in enumerate(reach1):
            for j in row:
                reach2[j].append(i)
        return _covers(heavy1, reach1, len(self.second)) and _covers(
            heavy2, reach2, len(self.first)
        )


def _essential_cost(first: dict, second: dict) -> float:
    a, b = sorted(first["essential"]), sorted(second["essential"])
    if len(a) != len(b):
        return INF
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def check_distance(kind: str, first: dict, second: dict, stdout: str, matcher: Matcher | None) -> list[str]:
    try:
        got = float(stdout.strip())
    except ValueError:
        return [f"{kind} distance printed {stdout.strip()[:40]!r}, not a number"]
    if kind == "shifted":
        if got != SHIFT:
            return [f"shifted pair distance is {got!r}, want the shift {SHIFT!r}"]
        return []
    essential = _essential_cost(first, second)
    if got < essential:
        return [f"independent pair distance {got!r} is below the essential-class cost {essential!r}"]
    if got == essential:
        if not matcher.feasible(got):
            return [f"independent pair distance {got!r} admits no matching of the proper points"]
        return []
    cands = matcher.candidates()
    k = bisect.bisect_left(cands, got)
    if k == len(cands) or cands[k] != got:
        return [f"independent pair distance {got!r} is no candidate cost"]
    if not matcher.feasible(got):
        return [f"independent pair distance {got!r} admits no matching"]
    if k > 0 and cands[k - 1] >= essential and matcher.feasible(cands[k - 1]):
        return [f"independent pair distance {got!r} is not minimal: {cands[k - 1]!r} also matches"]
    return []


# ---------------------------------------------------------------------------
# Checker self-test: every checker must reject a corrupted copy of a good output.


def _move_first_point(docs: list, r: int) -> list:
    docs = json.loads(json.dumps(docs))
    d = _by_dimension(docs, r)
    if d["points"]:
        p = d["points"][0]
        p["death"] = _value(p["death"]) + 1.0
    else:
        d["points"].append({"birth": -1.0, "death": 1e9, "multiplicity": 1})
        if d not in docs:
            docs.append(d)
    return docs


def _move_into_query(docs: list, r: int, u: float, v: float) -> list:
    """Move one degree-r point across the edge of the (u, v) query box."""
    docs = json.loads(json.dumps(docs))
    d = _by_dimension(docs, r)
    if d not in docs:
        docs.append(d)
    inside = [p for p in d["points"] if _value(p["birth"]) <= u and _value(p["death"]) > v]
    if inside:
        inside[0]["death"] = v
    elif d["points"]:
        d["points"][0]["birth"], d["points"][0]["death"] = u, v + 1.0
    else:
        d["points"].append({"birth": u, "death": v + 1.0, "multiplicity": 1})
    return docs


def self_test(op, output, context) -> list[str]:
    """Corrupt a correct output once per checker; return the corruptions that went unnoticed."""
    missed = []
    if op.kind in ("clique", "neighborhood", "enclaveless"):
        if not check_persist(op.graph, op.kind, _move_first_point(output, 0), None):
            missed.append(f"{op.kind}: moved degree-0 point")
        if context is not None:
            r, u, v = context.queries[0]
            if not context.check(_move_into_query(output, r, u, v), op.kind):
                missed.append(f"{op.kind}: moved degree-{r} point")
    elif op.kind == "extended":
        bad = json.loads(json.dumps(output))
        bad["grids"][0]["values"][1][0] += 1
        if not check_extended(op.graph, bad, context):
            missed.append("extended: changed grid cell")
        bad = dict(output, ascending=_move_first_point(output["ascending"], 0))
        if not check_extended(op.graph, bad, context):
            missed.append("extended: moved ascending degree-0 point")
    else:
        first, second = op.diagrams
        got = float(output.strip())
        if op.kind == "shifted":
            # Lattice costs are k +- SHIFT and half-persistences multiples of
            # 2 * SHIFT, so the next candidate above SHIFT is 2 * SHIFT.
            off = 2 * SHIFT
        else:
            cands = context.candidates()
            off = cands[min(bisect.bisect_right(cands, got), len(cands) - 1)]
        if not check_distance(op.kind, first, second, repr(off), context):
            missed.append(f"{op.kind}: distance off by one candidate")
    return missed
