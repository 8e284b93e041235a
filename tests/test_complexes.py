import math
import random
import re
from bisect import bisect_left
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings

from graphtda import (
    SimplicialComplex,
    WeightedGraph,
    barycentric_subdivision,
    betti_numbers,
    clique_complex,
    complement,
    complex_isomorphic,
    csusp,
    enclaveless_complex,
    filter_neighborhood,
    independent_complex,
    isusp,
    neighborhood_complex,
    one_skeleton,
    simplex,
)
from graphtda.complexes import _clique_family, _enclaveless_family, _levelwise, _neighborhood_family
from oracles import (
    dominating_sets_bruteforce,
    enclaveless_sets_bruteforce,
    has_triangle,
    oracle_betti,
)
from randutil import random_complex, random_weighted_graph, small_graphs
from strategies import complexes, graphs, nested_graphs

INF = float("inf")


def complete(n):
    vs = [f"k{i}" for i in range(n)]
    return WeightedGraph(vs, combinations(vs, 2))


def cycle(n):
    vs = [f"c{i}" for i in range(n)]
    return WeightedGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def petersen():
    outer = [(str(i), str((i + 1) % 5)) for i in range(5)]
    spokes = [(str(i), str(i + 5)) for i in range(5)]
    inner = [(str(5 + i), str(5 + (i + 2) % 5)) for i in range(5)]
    return WeightedGraph([str(i) for i in range(10)], outer + spokes + inner)


ORDER_ERROR = "simplex {} repeated or out of (dimension, label) order after {}"


def assert_structure(k):
    """simplices, vertices, facets, iteration order, simplices_of_dim and dim
    against their definitions."""
    sims = k.simplices
    assert sims is k.simplices  # built on first use, then cached
    assert sims == {t for f in k.facets for r in range(1, len(f) + 1) for t in combinations(f, r)}
    assert len(k) == len(sims) and all(s in k for s in sims)
    assert k.vertices == tuple(sorted({v for s in sims for v in s}))
    maximal = [s for s in sims if not any(set(s) < set(t) for t in sims)]
    assert k.facets == tuple(sorted(maximal))
    assert list(k) == sorted(sims, key=lambda s: (len(s), s))
    assert k.dim == max((len(s) for s in sims), default=0) - 1
    for r in range(-1, k.dim + 2):
        assert k.simplices_of_dim(r) == tuple(sorted(s for s in sims if len(s) == r + 1))


class TestSimplicialComplex:
    def test_simplex_normalization(self):
        assert simplex("cab") == ("a", "b", "c")
        with pytest.raises(ValueError):
            simplex([])
        with pytest.raises(ValueError):
            simplex(["a", "a"])
        with pytest.raises(TypeError, match="must be strings"):
            simplex([2, 1])

    def test_closure_enforced(self):
        with pytest.raises(ValueError, match="not closed"):
            SimplicialComplex([("a", "b")])

    @pytest.mark.parametrize(
        "order, message",
        [
            ([("b",), ("a",)], ORDER_ERROR.format(("a",), ("b",))),
            ([("a",), ("a",), ("b",)], ORDER_ERROR.format(("a",), ("a",))),
            ([("a", "b"), ("a",), ("b",)], ORDER_ERROR.format(("a",), ("a", "b"))),
            ([("a",), ("a", "b")], "not closed under faces: ('b',) missing below ('a', 'b')"),
        ],
        ids=["mis-ordered", "repeated", "edge-before-vertices", "missing-face"],
    )
    def test_ordered_entry_rejects(self, order, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex._from_ordered(order)

    def test_from_facets_closure(self):
        k = SimplicialComplex.from_facets([("a", "b", "c")])
        assert len(k) == 7
        assert k.facets == (("a", "b", "c"),)

    def test_max_dim_cap(self):
        k = SimplicialComplex.from_facets([("a", "b", "c")], max_dim=1)
        assert len(k) == 6 and k.dim == 1
        assert k.facets == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_empty(self):
        k = SimplicialComplex()
        assert len(k) == 0 and k.dim == -1 and k.facets == ()

    def test_iteration_sorted(self):
        k = SimplicialComplex.from_facets([("b", "a"), ("c",)])
        assert list(k) == [("a",), ("b",), ("c",), ("a", "b")]

    def test_equal_complexes_hash_equal(self):
        k1 = SimplicialComplex([("a",), ("b",), ("c",), ("a", "b"), ("b", "c")])
        k2 = SimplicialComplex([("c", "b"), ("b",), ("b", "a"), ("c",), ("a",)])
        assert k1 == k2 and hash(k1) == hash(k2)
        assert len({k1, k2, SimplicialComplex.from_facets([("b", "a"), ("c", "b")])}) == 1

    def test_contains_normalizes_order(self):
        k = SimplicialComplex.from_facets([("a", "b")])
        assert ("b", "a") in k
        assert ("a", "z") not in k

    def test_structure_on_random_complexes(self):
        rng = random.Random(53)
        assert_structure(SimplicialComplex())
        for _ in range(40):
            k = random_complex(rng, max_vertices=7, max_facets=6)
            assert_structure(k)
            assert_structure(SimplicialComplex.from_facets(k.facets, max_dim=rng.randint(0, 3)))

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_n=6))
    def test_structure_matches_definitions(self, k):
        assert_structure(k)


def loop_face_table(order):
    """The order check, face table and block starts as a per-simplex loop over
    one position dict of the whole complex: the reference for
    SimplicialComplex._build, which works one dimension block at a time."""
    for a, b in zip(order, order[1:]):
        if not (len(a), a) < (len(b), b):
            raise ValueError(f"simplex {b} repeated or out of (dimension, label) order after {a}")
    position = {s: i for i, s in enumerate(order)}
    faces = []
    for s in order:
        below = combinations(s, len(s) - 1) if len(s) > 1 else ()
        try:
            faces.append(tuple([position[f] for f in below]))
        except KeyError as exc:
            f = exc.args[0]
            raise ValueError(f"not closed under faces: {f} missing below {s}") from None
    top = len(order[-1]) if order else 0  # dim + 1
    return faces, [bisect_left(order, r + 1, key=len) for r in range(top + 1)]


def _without(*gone):
    return lambda order: [s for s in order if s not in gone]


def _repeat(s):
    return lambda order: order[: order.index(s) + 1] + order[order.index(s) :]


def _swap(s, t):
    def edit(order):
        order = list(order)
        i, j = order.index(s), order.index(t)
        order[i], order[j] = t, s
        return order

    return edit


# The full simplex on a..e: blocks of 5, 10, 10, 5 and 1 simplices.
K5 = SimplicialComplex.from_facets([tuple("abcde")])._order
MISSING, ORDER = "not closed under faces", "out of (dimension, label) order"


class TestFaceTable:
    def assert_table(self, k):
        assert (k._faces, k._starts) == loop_face_table(k._order)

    def test_every_construction_on_seeded_graphs(self):
        rng = random.Random(34)
        builds = (clique_complex, neighborhood_complex, enclaveless_complex, independent_complex)
        top = set()
        for _ in range(12):
            g = random_weighted_graph(rng, min_n=1, max_n=11, p=(0.2, 0.95))
            for build in builds:
                for cap in range(1, 6):
                    k = build(g, cap)
                    self.assert_table(k)
                    top.add(k.dim)
        assert top >= {0, 1, 2, 3, 4, 5}

    def test_through_the_constructor(self):
        rng = random.Random(35)
        for _ in range(20):
            k = random_complex(rng, max_vertices=7, max_facets=6)
            self.assert_table(SimplicialComplex(k.simplices))

    @pytest.mark.parametrize(
        "facets, max_dim",
        [
            ([], None),
            ([("a",)], None),
            ([tuple("abcd"), ("e",)], None),
            ([("e",), tuple("abcd"), ("c", "f")], None),
            ([tuple("abcde"), ("f",), ("f", "g")], 2),
        ],
        ids=["empty", "one-vertex", "vertex-beside-tetrahedron", "three-dimensions", "capped"],
    )
    def test_small_and_gapped_complexes(self, facets, max_dim):
        self.assert_table(SimplicialComplex.from_facets(facets, max_dim))

    def test_vertex_beside_tetrahedron(self):
        k = SimplicialComplex.from_facets([tuple("abcd"), ("e",)])
        assert k._starts == [0, 5, 11, 15, 16]
        assert k._faces[:5] == [()] * 5
        assert k._faces[5] == (0, 1)  # ab
        assert k._faces[11] == (5, 6, 8)  # abc: ab, ac, bc
        assert k._faces[15] == (11, 12, 13, 14)  # abcd: abc, abd, acd, bcd

    @pytest.mark.parametrize(
        "edit, kind",
        [
            (_without(("b", "d")), MISSING),
            (_without(("a", "c", "e")), MISSING),
            (_without(tuple("bcde")), MISSING),
            # abcd lacks its last face, bcde its first: a column of first
            # faces meets bcde before the last column meets abcd.
            (_without(("b", "c", "d")), MISSING),
            (_without(*[s for s in K5 if len(s) == 3]), MISSING),
            (_without(("d", "e")), MISSING),
            (_repeat(("a", "c", "d")), ORDER),
            (_repeat(tuple("abde")), ORDER),
            (_swap(tuple("abce"), tuple("abde")), ORDER),
            (_swap(("a", "b", "c"), ("c", "d", "e")), ORDER),
            (_swap(("c", "d", "e"), tuple("abcd")), ORDER),
            (_repeat(("c", "d", "e")), ORDER),
            (lambda order: order + [("d", "e")], ORDER),
            (lambda order: _swap(tuple("abcd"), tuple("acde"))(_without(("b", "d"))(order)), ORDER),
        ],
        ids=[
            "missing-edge-below-triangles",
            "missing-triangle-below-tetrahedra",
            "missing-tetrahedron-below-top",
            "missing-face-first-in-column-order-last-in-simplex-order",
            "missing-block",
            "missing-last-edge-of-its-block",
            "repeated-triangle",
            "repeated-tetrahedron",
            "swapped-tetrahedra",
            "swapped-triangles-far-apart",
            "triangle-after-tetrahedron-at-boundary",
            "repeated-last-triangle-at-boundary",
            "edge-after-top",
            "order-error-after-missing-face",
        ],
    )
    def test_error_matches_the_loop(self, edit, kind):
        order = edit(list(K5))
        with pytest.raises(ValueError) as want:
            loop_face_table(order)
        with pytest.raises(ValueError) as got:
            SimplicialComplex._from_ordered(order)
        assert kind in str(want.value)
        assert str(got.value) == str(want.value)


class TestCliqueComplex:
    def test_k3(self):
        assert len(clique_complex(complete(3))) == 7

    def test_c4(self):
        k = clique_complex(cycle(4))
        assert len(k) == 8 and k.dim == 1

    def test_petersen_triangle_free(self):
        g = petersen()
        assert not has_triangle(g)  # derived: exhaustive triple check
        k = clique_complex(g)
        assert len(k) == 25 and k.dim == 1

    def test_max_dim(self):
        k = clique_complex(complete(4), max_dim=1)
        assert k.dim == 1 and len(k) == 10


class TestNeighborhoodComplex:
    def test_c4_is_sphere(self):
        k = neighborhood_complex(cycle(4))
        assert k.facets == (
            ("c0", "c1", "c2"),
            ("c0", "c1", "c3"),
            ("c0", "c2", "c3"),
            ("c1", "c2", "c3"),
        )
        assert betti_numbers(k, 2) == (1, 0, 1)
        assert oracle_betti(k.simplices, 2) == (1, 0, 1)

    def test_k3_is_cone(self):
        k = neighborhood_complex(complete(3))
        assert k.facets == (("k0", "k1", "k2"),)
        assert betti_numbers(k, 2) == (1, 0, 0)

    def test_c5_euler_characteristic(self):
        k = neighborhood_complex(cycle(5))
        counts = [len(k.simplices_of_dim(r)) for r in range(3)]
        assert counts == [5, 10, 5]
        assert counts[0] - counts[1] + counts[2] == 0
        assert betti_numbers(k, 2) == oracle_betti(k.simplices, 2)

    def test_isolated_vertex_included(self):
        g = WeightedGraph(["a", "b", "z"], [("a", "b")])
        k = neighborhood_complex(g)
        assert ("z",) in k

    def test_matches_filtered_and_closed_neighborhoods(self):
        # The value-free growth against the filtered family and against the
        # literal downward closure of every closed neighborhood.
        rng = random.Random(37)
        for _ in range(40):
            g = random_weighted_graph(rng, min_n=1, max_n=9, p=(0.0, 0.9), weights="int")
            closed = [sorted(g.adjacency(v) | {v}) for v in g.vertices]
            for cap in (None, 0, 1, 3):
                k = neighborhood_complex(g, cap)
                assert k == filter_neighborhood(g, cap).complex
                assert k == SimplicialComplex.from_facets(closed, cap)


class TestEnclavelessComplex:
    def test_k4_is_sphere(self):
        k = enclaveless_complex(complete(4))
        assert len(k.facets) == 4 and all(len(f) == 3 for f in k.facets)
        assert betti_numbers(k, 2) == (1, 0, 1)

    def test_isolated_vertex_empty(self):
        assert len(enclaveless_complex(WeightedGraph(["v"]))) == 0

    def test_k2_is_two_points(self):
        k = enclaveless_complex(complete(2))
        assert set(k.simplices) == {("k0",), ("k1",)}

    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 7)
            vs = [f"v{i}" for i in range(n)]
            es = [p for p in combinations(vs, 2) if rng.random() < 0.5]
            g = WeightedGraph(vs, es)
            expect = {frozenset(s) for s in enclaveless_sets_bruteforce(g)}
            got = {frozenset(s) for s in enclaveless_complex(g).simplices}
            assert got == expect

    def test_facets_complement_minimal_dominating(self):
        g = cycle(5)
        minimal = {
            d
            for d in dominating_sets_bruteforce(g)
            if not any(d > other for other in dominating_sets_bruteforce(g))
        }
        vs = set(g.vertices)
        assert {frozenset(f) for f in enclaveless_complex(g).facets} == {
            frozenset(vs - d) for d in minimal
        }

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enclaveless_complex(WeightedGraph([f"v{i}" for i in range(21)]))


class TestIndependentComplex:
    def test_c4(self):
        k = independent_complex(cycle(4))
        assert k.facets == (("c0", "c2"), ("c1", "c3"))
        assert betti_numbers(k, 1) == (2, 0)

    def test_complete_graph_gives_points(self):
        k = independent_complex(complete(5))
        assert len(k) == 5 and k.dim == 0

    def test_empty_graph_gives_full_simplex(self):
        k = independent_complex(WeightedGraph(["a", "b", "c"]))
        assert k.facets == (("a", "b", "c"),)


class TestBarycentricSubdivision:
    def test_edge_becomes_path(self):
        k = SimplicialComplex.from_facets([("a", "b")])
        bs = barycentric_subdivision(k)
        assert len(bs.vertices) == 3
        assert len(bs.simplices_of_dim(1)) == 2
        assert bs.dim == 1

    def test_full_triangle_counts(self):
        bs = barycentric_subdivision(SimplicialComplex.from_facets([("a", "b", "c")]))
        assert len(bs.vertices) == 7
        assert len(bs.simplices_of_dim(1)) == 12
        assert len(bs.simplices_of_dim(2)) == 6

    def test_triangle_boundary_becomes_hexagon(self):
        bs = barycentric_subdivision(
            SimplicialComplex.from_facets([("a", "b"), ("b", "c"), ("a", "c")])
        )
        assert len(bs.vertices) == 6
        assert len(bs.simplices_of_dim(1)) == 6
        assert betti_numbers(bs, 1) == (1, 1)

    def test_label_escaping(self):
        k = SimplicialComplex.from_facets([("a|b", "c"), ("a", "b|c")])
        bs = barycentric_subdivision(k)
        # four distinct edge barycenters plus four vertices
        assert len(bs.vertices) == len(k.simplices)


class TestOneSkeleton:
    def test_triangle(self):
        g = one_skeleton(SimplicialComplex.from_facets([("a", "b", "c")]))
        assert len(g.edges) == 3

    def test_single_vertex(self):
        g = one_skeleton(SimplicialComplex.from_facets([("a",)]))
        assert g.vertices == ("a",) and not g.edges

    def test_sphere_boundary(self):
        k = SimplicialComplex.from_facets(
            [f for f in combinations("abcd", 3)]
        )
        assert len(one_skeleton(k).edges) == 6


class TestBettiNumbers:
    def test_sphere2(self):
        k = SimplicialComplex.from_facets([f for f in combinations("abcd", 3)])
        assert betti_numbers(k, 2) == (1, 0, 1)

    def test_two_points(self):
        assert betti_numbers(SimplicialComplex([("a",), ("b",)]), 0) == (2,)

    def test_sphere3_from_suspensions(self):
        g = csusp(csusp(cycle(4)))
        assert betti_numbers(clique_complex(g), 3) == (1, 0, 0, 1)

    def test_empty(self):
        assert betti_numbers(SimplicialComplex(), 1) == (0, 0)

    @settings(max_examples=25, deadline=None)
    @given(complexes(max_n=5))
    def test_matches_oracle(self, k):
        assert betti_numbers(k, 3) == oracle_betti(k.simplices, 3)

    def test_seeded_complexes_match_oracle(self):
        # Capped and uncapped; k.dim + 2 asks for degrees past the last block.
        rng = random.Random(1311)
        for case in range(300):
            vs = [f"v{i}" for i in range(rng.randint(1, 8))]
            k = SimplicialComplex.from_facets(
                [rng.sample(vs, rng.randint(1, len(vs))) for _ in range(rng.randint(1, 5))],
                max_dim=rng.choice((None, None, 1, 2, 3)),
            )
            for max_dim in sorted({0, k.dim, k.dim + 2}):
                assert betti_numbers(k, max_dim) == oracle_betti(k.simplices, max_dim), (case, max_dim)
        with pytest.raises(ValueError, match="^max_dim must be an int >= 0, got -1$"):
            betti_numbers(k, -1)


class TestConstructionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(graphs(max_n=6))
    def test_closure(self, g):
        for build in (clique_complex, neighborhood_complex, enclaveless_complex):
            k = build(g)
            for s in k.simplices:
                for size in range(1, len(s)):
                    for sub in combinations(s, size):
                        assert sub in k

    @settings(max_examples=30, deadline=None)
    @given(nested_graphs())
    def test_monotone_and_reversed(self, pair):
        g, h = pair
        assert clique_complex(g).simplices <= clique_complex(h).simplices
        assert neighborhood_complex(g).simplices <= neighborhood_complex(h).simplices
        assert enclaveless_complex(g).simplices <= enclaveless_complex(h).simplices
        assert independent_complex(h).simplices <= independent_complex(g).simplices

    def test_capped_families_match_bruteforce(self):
        weighted = small_graphs(random.Random(41), 30)
        for g in weighted + [WeightedGraph(g.vertices, g.edges) for g in weighted]:
            vs = g.vertices
            subsets = [frozenset(c) for k in range(1, len(vs) + 1) for c in combinations(vs, k)]
            closed = [g.adjacency(v) | {v} for v in vs]

            def edges_within(s):
                return [p for p in combinations(sorted(s), 2) if g.has_edge(*p)]

            families = {
                clique_complex: {
                    s for s in subsets if len(edges_within(s)) == len(s) * (len(s) - 1) // 2
                },
                independent_complex: {s for s in subsets if not edges_within(s)},
                neighborhood_complex: {s for s in subsets if any(s <= c for c in closed)},
                enclaveless_complex: enclaveless_sets_bruteforce(g),
            }
            for build, family in families.items():
                for cap in (None, 0, 1, 2, 3, 4):
                    expect = {s for s in family if cap is None or len(s) <= cap + 1}
                    got = {frozenset(s) for s in build(g, cap).simplices}
                    assert got == expect, (build.__name__, g.sorted_edges(), cap)

    def test_hereditary_enclaveless(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 8)
            vs = [f"v{i}" for i in range(n)]
            es = [p for p in combinations(vs, 2) if rng.random() < 0.5]
            g = WeightedGraph(vs, es)
            family = enclaveless_sets_bruteforce(g)
            for y in family:
                for size in range(1, len(y)):
                    for sub in combinations(sorted(y), size):
                        assert frozenset(sub) in family

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_n=5, min_n=1))
    def test_clique_suspension_shifts_betti(self, g):
        base = betti_numbers(clique_complex(g), 3)
        lifted = betti_numbers(clique_complex(csusp(g)), 4)
        assert lifted == (1, max(base[0] - 1, 0), base[1], base[2], base[3])

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_n=5, min_n=1))
    def test_independent_suspension_shifts_betti(self, g):
        base = betti_numbers(independent_complex(g), 3)
        lifted = betti_numbers(independent_complex(isusp(g)), 4)
        assert lifted == (1, max(base[0] - 1, 0), base[1], base[2], base[3])

    @settings(max_examples=15, deadline=None)
    @given(graphs(max_n=4, min_n=1))
    def test_enclaveless_suspension_shifts_betti(self, g):
        base = betti_numbers(enclaveless_complex(g), 2)
        lifted = betti_numbers(enclaveless_complex(isusp(g)), 3)
        assert lifted[1:] == (max(base[0] - 1, 0), base[1], base[2])

    @settings(max_examples=15, deadline=None)
    @given(complexes(max_n=4))
    def test_representability(self, k):
        bs = barycentric_subdivision(k)
        assert clique_complex(one_skeleton(bs)) == bs
        assert independent_complex(complement(one_skeleton(bs))) == bs


FAMILIES = [_clique_family, _neighborhood_family, _enclaveless_family]


def grown(family, g):
    """The uncapped family of g, its grow rule, and (s, value, state) of every simplex grown."""
    found, calls = [], []

    def spy(g, w, roots, grow, max_dim):
        def recording(s, x, state, candidates):
            calls.append((s, x, state))
            return grow(s, x, state, candidates)

        found.append(grow)
        return _levelwise(g, w, roots, recording, max_dim)

    with mock.patch("graphtda.complexes._levelwise", spy):
        order, values = family(g)
    return order, values, found[0], calls


def assert_grow_lists_cofaces(family, g) -> int:
    """Given every vertex outside s, the grow rule lists the cofaces of s, with their values."""
    order, values, grow, calls = grown(family, g)
    index = {v: i for i, v in enumerate(g.vertices)}
    value = {tuple([index[v] for v in s]): x for s, x in zip(order, values)}
    assert len(calls) == sum(len(s) < len(g.vertices) for s in value)  # all below the top level
    everyone = (1 << len(g.vertices)) - 1
    for s, x, state in calls:
        outside = everyone & ~sum(1 << i for i in s)
        listed = [(tuple(sorted(s + (v,))), y) for v, y, _ in grow(s, x, state, outside)]
        cofaces = {t: y for t, y in value.items() if len(t) == len(s) + 1 and set(s) < set(t)}
        assert len(listed) == len(cofaces) and dict(listed) == cofaces, (family.__name__, s)
    return len(calls)


def signed_zero_graph(rng: random.Random) -> WeightedGraph:
    """A graph whose weights are mostly signed zeros, with sentinels among them."""
    vs = [f"v{i}" for i in range(rng.randint(1, 8))]
    ws = {e: rng.choice([0.0, -0.0, -0.0, 0.0, 1.0, -INF, INF]) for e in combinations(vs, 2) if rng.random() < 0.6}
    return WeightedGraph(vs, ws.keys(), ws)


class TestGrowRules:
    def test_grow_lists_cofaces_on_seeded_graphs(self):
        rng = random.Random(23)
        gs = small_graphs(rng, 40) + [random_weighted_graph(rng, max_n=9) for _ in range(20)]
        gs += [signed_zero_graph(rng) for _ in range(40)]
        grown_count = sum(assert_grow_lists_cofaces(family, g) for g in gs for family in FAMILIES)
        assert grown_count > 10000

    @settings(max_examples=40, deadline=None)
    @given(graphs(weighted=True))
    def test_grow_lists_cofaces(self, g):
        for family in FAMILIES:
            assert_grow_lists_cofaces(family, g)

    def test_coface_from_another_face_can_flip_the_zero(self):
        # Values agree under ==, but not always in the zero's sign: (v2, v3) is grown
        # from (v2,), at -0.0, and listed from (v3,) at 0.0, the weight of v2v3.
        ws = {("v0", "v2"): -0.0, ("v1", "v2"): -0.0, ("v2", "v3"): 0.0}
        g = WeightedGraph(["v0", "v1", "v2", "v3"], ws.keys(), ws)
        order, values, grow, calls = grown(_clique_family, g)
        [(x, state)] = [(x, state) for s, x, state in calls if s == (3,)]
        [(v, y, _)] = grow((3,), x, state, 0b0111)
        canonical = dict(zip(order, values))[("v2", "v3")]
        assert v == 2 and y == canonical == 0.0
        assert math.copysign(1.0, y) == 1.0 and math.copysign(1.0, canonical) == -1.0


class TestComplexIsomorphic:
    def test_equal_fast_path(self):
        k = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
        assert complex_isomorphic(k, k)

    def test_relabeled(self):
        k1 = SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d")])
        k2 = SimplicialComplex.from_facets([("x", "y", "z"), ("x", "w")])
        assert complex_isomorphic(k1, k2)

    def test_not_isomorphic(self):
        path = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
        wedge = SimplicialComplex.from_facets([("a", "b"), ("a", "c")])
        triangle = SimplicialComplex.from_facets([("a", "b", "c")])
        assert complex_isomorphic(path, wedge)  # both are 2-edge paths up to labels
        assert not complex_isomorphic(path, triangle)

    def test_distinguishes_structure(self):
        two_edges = SimplicialComplex.from_facets([("a", "b"), ("c", "d")])
        path = SimplicialComplex.from_facets([("a", "b"), ("b", "c"), ("c", "d")])
        assert not complex_isomorphic(two_edges, path)
        # Equal simplex counts per dimension: only the incidence search tells these apart.
        star = SimplicialComplex.from_facets([("a", "b"), ("a", "c"), ("a", "d")])
        assert not complex_isomorphic(path, star)
        bowtie = SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d", "e")])
        strip = SimplicialComplex.from_facets([("a", "b", "c"), ("b", "c", "d"), ("d", "e")])
        assert not complex_isomorphic(bowtie, strip)


class TestEnclavelessSphereFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_el_kn_is_sphere(self, n):
        expected = [1] + [0] * (n - 3) + [1] if n > 2 else [2]
        got = betti_numbers(enclaveless_complex(complete(n)), max(n - 2, 0))
        assert list(got) == expected
