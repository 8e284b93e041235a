"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes results from first principles with deliberately
different machinery than the package: set-based Gaussian elimination instead
of bitmask column reduction, literal smallest-threshold scans instead of
closed forms, exhaustive enumeration instead of search with pruning.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

INF = float("inf")


# ---------------------------------------------------------------------------
# Homology over Z/2 via symmetric-difference elimination on face sets.


def _rank_sets(columns) -> int:
    pivots = {}
    rank = 0
    for col in columns:
        col = set(col)
        while col:
            piv = min(col)
            if piv in pivots:
                col ^= pivots[piv]
            else:
                pivots[piv] = col
                rank += 1
                break
    return rank


def oracle_betti(simplices, max_dim: int) -> tuple[int, ...]:
    """Betti numbers of an explicit simplex set, degrees 0..max_dim."""
    sims = {tuple(sorted(s)) for s in simplices}
    by_dim: dict[int, list] = {}
    for s in sims:
        by_dim.setdefault(len(s) - 1, []).append(s)

    def boundary_rank(r: int) -> int:
        if r <= 0:
            return 0
        cols = [
            [tuple(f) for f in combinations(s, r)] for s in by_dim.get(r, [])
        ]
        return _rank_sets(cols)

    out = []
    for r in range(max_dim + 1):
        out.append(len(by_dim.get(r, [])) - boundary_rank(r) - boundary_rank(r + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Persistent Betti numbers from explicit sublevel boundary ranks.


class SublevelRankOracle:
    """rank of H_r(X_u) -> H_r(X_v) as dim(Z_u + B_v) - dim(B_v).

    Z_u is a kernel basis of the boundary map on the r-chains present at u,
    B_v the boundary columns of the (r+1)-simplices present at v, both living
    in the space spanned by the r-simplices at v.
    """

    def __init__(self, fc):
        self.values = dict(fc.value)
        self.simplices = sorted(self.values, key=lambda s: (self.values[s], len(s), s))
        self._kernels: dict = {}
        self._images: dict = {}

    def _at(self, level):
        return [s for s in self.simplices if self.values[s] <= level]

    def _kernel(self, r: int, u: float):
        key = (r, u)
        if key not in self._kernels:
            basis = []
            pivots = {}
            for s in self._at(u):
                if len(s) != r + 1:
                    continue
                bnd = set(combinations(s, r)) if r > 0 else set()
                combo = {s}
                while bnd:
                    piv = min(bnd)
                    if piv not in pivots:
                        pivots[piv] = (bnd, combo)
                        break
                    pb, pc = pivots[piv]
                    bnd = bnd ^ pb
                    combo = combo ^ pc
                else:
                    basis.append(frozenset(combo))
            self._kernels[key] = basis
        return self._kernels[key]

    def _image_columns(self, r: int, v: float):
        key = (r, v)
        if key not in self._images:
            cols = [
                frozenset(combinations(s, r + 1))
                for s in self._at(v)
                if len(s) == r + 2
            ]
            self._images[key] = (cols, _rank_sets(cols))
        return self._images[key]

    def pbn(self, r: int, u: float, v: float) -> int:
        cycles = self._kernel(r, u)
        image_cols, image_rank = self._image_columns(r, v)
        return _rank_sets(list(cycles) + list(image_cols)) - image_rank


# ---------------------------------------------------------------------------
# Persistence pairs from the textbook reduction of the whole boundary matrix.


def oracle_diagrams(values: dict, max_dim: int) -> list[tuple[list, list]]:
    """(points, essential births) per degree 0..max_dim, both sorted.

    Simplices are totally ordered by (value, dimension, sorted labels). Every
    column of the boundary matrix over all dimensions is reduced left to
    right, as face sets, by adding earlier reduced columns with the same
    largest row; no clearing, no shortcuts. A nonzero column j pairs its
    largest row i (birth) with j (death). Zero-persistence pairs are dropped.
    """
    order = sorted(values, key=lambda s: (values[s], len(s), tuple(sorted(s))))
    index = {tuple(sorted(s)): i for i, s in enumerate(order)}
    owner: dict[int, set] = {}  # largest row -> reduced column
    death_of: dict[int, int] = {}
    for j, s in enumerate(order):
        col = {index[f] for f in combinations(sorted(s), len(s) - 1)} if len(s) > 1 else set()
        while col and max(col) in owner:
            col ^= owner[max(col)]
        if col:
            owner[max(col)] = col
            death_of[max(col)] = j
    deaths = set(death_of.values())
    out = []
    for r in range(max_dim + 1):
        points, essential = [], []
        for i, s in enumerate(order):
            if len(s) != r + 1 or i in deaths:
                continue
            if i not in death_of:
                essential.append(values[s])
            elif values[order[death_of[i]]] > values[s]:
                points.append((values[s], values[order[death_of[i]]]))
        out.append((sorted(points), sorted(essential)))
    return out


# ---------------------------------------------------------------------------
# Literal smallest-threshold filtration values.


class SmallestTOracle:
    """Filtration values straight from their definitions.

    For each candidate threshold t (the sorted edge weights) the subgraph of
    edges of weight <= t is materialized; a simplex value is the first t at
    which it fits in a closed neighborhood (nb) or inside some enclaveless
    set, found by checking every superset through a subset-of-family sweep
    (el). No closed form, no hereditary shortcut.
    """

    def __init__(self, g):
        self.g = g
        self.vertices = list(g.vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.levels = sorted(set(g.weight.values()))
        self._nbhd_cache: dict = {}
        self._el_cache: dict = {}

    def _closed_masks(self, t: float):
        if t not in self._nbhd_cache:
            n = len(self.vertices)
            masks = [1 << i for i in range(n)]
            for (a, b), w in self.g.weight.items():
                if w <= t:
                    masks[self.index[a]] |= 1 << self.index[b]
                    masks[self.index[b]] |= 1 << self.index[a]
            self._nbhd_cache[t] = masks
        return self._nbhd_cache[t]

    def nb_value(self, sigma) -> float:
        smask = 0
        for v in sigma:
            smask |= 1 << self.index[v]
        for t in self.levels:
            masks = self._closed_masks(t)
            if any(smask & ~m == 0 for m in masks):
                return t
        return INF

    def _subset_of_enclaveless(self, t: float):
        if t not in self._el_cache:
            n = len(self.vertices)
            masks = self._closed_masks(t)
            size = 1 << n
            reachable = bytearray(size)
            for y in range(1, size):
                ok = True
                rest = y
                while rest:
                    bit = rest & -rest
                    if masks[bit.bit_length() - 1] & ~y == 0:
                        ok = False
                        break
                    rest ^= bit
                reachable[y] = ok
            for b in range(n):
                bit = 1 << b
                for m in range(size):
                    if not m & bit and reachable[m | bit]:
                        reachable[m] = 1
            self._el_cache[t] = reachable
        return self._el_cache[t]

    def el_value(self, sigma) -> float:
        smask = 0
        for v in sigma:
            smask |= 1 << self.index[v]
        for t in self.levels:
            if self._subset_of_enclaveless(t)[smask]:
                return t
        return INF


def enclaveless_sets_bruteforce(g) -> set[frozenset]:
    """Every nonempty enclaveless vertex set, by definition, over all subsets."""
    vs = list(g.vertices)
    out = set()
    for k in range(1, len(vs) + 1):
        for combo in combinations(vs, k):
            member = set(combo)
            if all(g.adjacency(v) - member for v in combo):
                out.add(frozenset(combo))
    return out


def dominating_sets_bruteforce(g) -> set[frozenset]:
    vs = set(g.vertices)
    out = set()
    for k in range(0, len(vs) + 1):
        for combo in combinations(sorted(vs), k):
            covered = set(combo)
            for v in combo:
                covered |= g.adjacency(v)
            if covered == vs:
                out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# Exhaustive bottleneck distance and pseudodistance.


def _diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return INF
    return abs(a - b)


def _half(p) -> float:
    if math.isinf(p[0]) or math.isinf(p[1]):
        return INF
    return (p[1] - p[0]) / 2.0


def _move_cost(p, q) -> float:
    return min(max(_diff(p[0], q[0]), _diff(p[1], q[1])), max(_half(p), _half(q)))


def _expand(diagram):
    pts = []
    for p in diagram.points:
        pts.extend([(p.birth, p.death)] * p.multiplicity)
    ess = []
    for e in diagram.essential:
        ess.extend([e.birth] * e.multiplicity)
    return pts, ess


def oracle_bottleneck(d1, d2) -> float:
    """Minimum over every augmented bijection, enumerated outright."""
    pts1, ess1 = _expand(d1)
    pts2, ess2 = _expand(d2)
    if len(ess1) != len(ess2):
        return INF
    ess_best = 0.0
    if ess1:
        ess_best = min(
            max(_diff(a, b) for a, b in zip(ess1, perm))
            for perm in permutations(ess2)
        )

    best = INF

    def recurse(i: int, used: frozenset, current: float):
        nonlocal best
        if current >= best:
            return
        if i == len(pts1):
            worst = current
            for j, q in enumerate(pts2):
                if j not in used:
                    worst = max(worst, _half(q))
            best = min(best, worst)
            return
        p = pts1[i]
        recurse(i + 1, used, max(current, _half(p)))
        for j, q in enumerate(pts2):
            if j not in used:
                recurse(i + 1, used | {j}, max(current, _move_cost(p, q)))

    recurse(0, frozenset(), 0.0)
    return max(ess_best, best)


def _perfect_matching(allowed) -> bool:
    """Whether the square 0/1 matrix ``allowed`` has a perfect matching.

    Kuhn's recursive augmenting paths from an empty matching, every row in turn.
    """
    n = len(allowed)
    owner = [-1] * n

    def augment(r: int, seen: set) -> bool:
        for col in range(n):
            if allowed[r][col] and col not in seen:
                seen.add(col)
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = r
                    return True
        return False

    return all(augment(r, set()) for r in range(n))


def oracle_bottleneck_by_matching(d1, d2) -> float:
    """Smallest entry of the augmented cost matrix that admits a perfect matching.

    Rows are the points of d1, its essential classes and one diagonal slot per
    point of d2; columns are the points of d2, its essential classes and one
    diagonal slot per point of d1. A point reaches another point at their
    sup-norm distance and its own diagonal slot at its half-persistence, an
    essential class reaches another at the distance of their births, any two
    diagonal slots meet at 0, and every other entry is +inf. The distinct
    entries are bisected, each tested by a perfect matching built from scratch.
    """
    pts1, ess1 = _expand(d1)
    pts2, ess2 = _expand(d2)
    if len(ess1) != len(ess2):
        return INF
    n1, n2, e = len(pts1), len(pts2), len(ess1)
    size = n1 + e + n2
    cost = [[INF] * size for _ in range(size)]
    for i, p in enumerate(pts1):
        for j, q in enumerate(pts2):
            cost[i][j] = max(_diff(p[0], q[0]), _diff(p[1], q[1]))
        cost[i][n2 + e + i] = _half(p)
    for i, a in enumerate(ess1):
        for j, b in enumerate(ess2):
            cost[n1 + i][n2 + j] = _diff(a, b)
    for j, q in enumerate(pts2):
        cost[n1 + e + j][j] = _half(q)
        for i in range(n1):
            cost[n1 + e + j][n2 + e + i] = 0.0
    entries = sorted({x for row in cost for x in row})
    lo, hi = 0, len(entries) - 1  # entries[hi] admits every pair, so it is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching([[x <= entries[mid] for x in row] for row in cost]):
            hi = mid
        else:
            lo = mid + 1
    return entries[lo] if entries else 0.0


def oracle_pseudodistance(g1, g2) -> float:
    """Minimum weight discrepancy over every vertex permutation that is an isomorphism."""
    if len(g1.vertices) != len(g2.vertices):
        return INF
    vs1, vs2 = list(g1.vertices), list(g2.vertices)
    best = INF
    for perm in permutations(vs2):
        psi = dict(zip(vs1, perm))
        if any(
            g1.has_edge(u, v) != g2.has_edge(psi[u], psi[v])
            for u, v in combinations(vs1, 2)
        ):
            continue
        cost = 0.0
        for (u, v), w in g1.weight.items():
            a, b = psi[u], psi[v]
            cost = max(cost, _diff(w, g2.weight[(a, b) if a < b else (b, a)]))
        best = min(best, cost)
    return best


def has_triangle(g) -> bool:
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(g.vertices, 3)
    )
