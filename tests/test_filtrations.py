import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from graphtda import (
    FilteredComplex,
    SimplicialComplex,
    WeightedGraph,
    clique_complex,
    edge,
    enclaveless_complex,
    extend_weights,
    extended_pair,
    filter_clique,
    filter_enclaveless,
    filter_neighborhood,
    neighborhood_complex,
    parse_graph,
    reduce,
    threshold_subgraph,
)
from graphtda.filtrations import _edge_collapse, _filtered, _negated_completion
from graphtda.persistence import ExtendedPersistence, PersistenceDiagram
from graphtda.serialize import dumps, extended_json, extended_to_doc
from oracles import SmallestTOracle, oracle_diagrams
from randutil import (
    random_complex,
    random_filtration_values,
    random_weighted_graph,
    small_graphs,
)
from strategies import graphs

INF = float("inf")

PATH = parse_graph("a b 1\nb c 2")
TRIANGLE = parse_graph("a b 1\nb c 2\na c 3")


class TestFilterClique:
    def test_triangle_values(self):
        fc = filter_clique(TRIANGLE)
        assert fc.value[("a",)] == 1
        assert fc.value[("b",)] == 1
        assert fc.value[("c",)] == 2
        assert fc.value[("a", "b")] == 1
        assert fc.value[("b", "c")] == 2
        assert fc.value[("a", "c")] == 3
        assert fc.value[("a", "b", "c")] == 3

    def test_single_edge(self):
        fc = filter_clique(parse_graph("u v 5"))
        assert set(fc.value.values()) == {5.0}

    def test_c4_values(self):
        fc = filter_clique(parse_graph("1 2 1\n2 3 2\n3 4 3\n1 4 4"))
        assert [fc.value[(v,)] for v in "1234"] == [1, 1, 2, 3]
        assert fc.complex.dim == 1

    def test_isolated_vertex_sentinel(self):
        fc = filter_clique(parse_graph("a b 1\nz"))
        assert fc.value[("z",)] == -INF

    def test_requires_weights(self):
        with pytest.raises(ValueError, match="weighted"):
            filter_clique(WeightedGraph("ab", [("a", "b")]))

    def test_huge_cap_stops_at_first_empty_level(self):
        start = time.perf_counter()
        fc = filter_clique(TRIANGLE, 10**7)
        assert time.perf_counter() - start < 1.0
        assert fc == filter_clique(TRIANGLE)


class TestFilterNeighborhood:
    def test_path_forced_witness(self):
        fc = filter_neighborhood(PATH)
        assert fc.value[("a", "b", "c")] == 2
        assert fc.value[("a", "c")] == 2

    def test_witness_below_edge_weight(self):
        g = parse_graph("u v 10\nw u 1\nw v 1")
        fc = filter_neighborhood(g)
        assert fc.value[("u", "v")] == 1

    def test_infinite_weight_still_enters(self):
        # through the library an edge may weigh +inf; its simplices enter at +inf
        g = WeightedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")], {("a", "b"): INF, ("b", "c"): 1.0})
        fc = filter_neighborhood(g)
        assert fc.value[("a", "b")] == fc.value[("a", "b", "c")] == INF
        assert fc.value[("b", "c")] == 1.0

    def test_triangle_witness_scan(self):
        fc = filter_neighborhood(TRIANGLE)
        assert fc.value[("a", "b", "c")] == 2
        oracle = SmallestTOracle(TRIANGLE)
        assert oracle.nb_value(("a", "b", "c")) == 2

    def test_vertex_rule_precedence(self):
        # the generic smallest-t rule would give -inf for any vertex
        fc = filter_neighborhood(PATH)
        assert fc.value[("a",)] == 1
        assert fc.value[("c",)] == 2

    def test_signed_zero_tie_takes_first_witness(self):
        # witnesses x, y, z of {y, z} give -0.0, 0.0, 0.0; the first in label order wins
        g = parse_graph("x y -0\nx z -0\ny z 0")
        assert repr(filter_neighborhood(g).value[("y", "z")]) == "-0.0"


class TestFilterEnclaveless:
    def test_path_values(self):
        fc = filter_enclaveless(PATH)
        assert fc.value[("a",)] == 1
        assert fc.value[("b",)] == 1
        assert fc.value[("c",)] == 2
        assert fc.value[("a", "c")] == 2
        assert ("a", "b") not in fc.complex

    def test_k3_edge(self):
        fc = filter_enclaveless(TRIANGLE)
        assert fc.value[("a", "b")] == 3

    def test_k2_singleton(self):
        fc = filter_enclaveless(parse_graph("u v 5"))
        assert fc.value[("u",)] == 5

    def test_values_match_definition(self):
        oracle = SmallestTOracle(TRIANGLE)
        fc = filter_enclaveless(TRIANGLE)
        for s, v in fc.value.items():
            if len(s) > 1:
                assert oracle.el_value(s) == v


class TestExtendWeights:
    def test_path_completion(self):
        gbar = extend_weights(PATH)
        assert gbar.weight[("a", "c")] == INF
        assert gbar.weight[("a", "b")] == 1

    def test_complete_unchanged(self):
        gbar = extend_weights(TRIANGLE)
        assert gbar == TRIANGLE

    def test_two_isolated(self):
        gbar = extend_weights(WeightedGraph(["a", "b"]))
        assert gbar.weight == {("a", "b"): INF}


class TestExtendedPair:
    def test_single_edge(self):
        pair = extended_pair(parse_graph("a b 3"))
        desc = pair.descending
        assert desc.value[("a", "b")] == -3
        assert desc.value[("a",)] == -3
        assert desc.value[("b",)] == -3

    def test_path_descending_values(self):
        pair = extended_pair(PATH)
        desc = pair.descending
        assert desc.value[("a", "c")] == -INF
        assert desc.value[("a", "b")] == -1
        assert desc.value[("b", "c")] == -2
        assert desc.value[("a", "b", "c")] == -1

    def test_two_isolated_vertices(self):
        pair = extended_pair(WeightedGraph(["a", "b"], [], {}))
        assert pair.descending.value[("a", "b")] == -INF

    def test_ascending_subcomplex_of_descending(self):
        g = random_weighted_graph(random.Random(3), min_n=4, max_n=6)
        pair = extended_pair(g)
        assert pair.ascending.complex.simplices <= pair.descending.complex.simplices


def collapse_graphs(rng: random.Random, count: int) -> list[WeightedGraph]:
    """Graphs on 1 to 9 vertices: edgeless, complete, with isolated vertices, and with
    weights from a pool of ties, one of +-inf and +-1e300, one holding both signed
    zeros, or uniform. The last two fixed graphs hold both signed zeros, and the guard
    returns them whole. Without it the last one's descending side would drop the edges
    that give its degree-1 death -0.0, and read that death as 0.0 from another."""
    pools = ([0.0, 1.0, 2.0], [-INF, -1e300, -1.0, 0.0, 1.0, 1e300, INF], [-1.0, -0.0, 0.0, 1.0], None)
    out = [
        WeightedGraph(["a", "b", "c"]),
        parse_graph("a b 1\nb c 1\nz\n"),
        parse_graph("a c 0\na e -0\nb c 0\nd e 0\n"),
        parse_graph("a c 0\na e -0\nb c -1\nb d 0\n"),
    ]
    for i in range(count):
        vs = [f"v{j}" for j in range(rng.randint(1, 9))]
        density = 1.0 if i % 5 == 0 else rng.random()
        pool = pools[i % len(pools)]
        ws = {
            e: rng.choice(pool) if pool else round(rng.uniform(0.0, 10.0), 2)
            for e in combinations(vs, 2)
            if rng.random() < density
        }
        out.append(WeightedGraph(vs, ws.keys(), ws))
    return out


def check_collapse(h: WeightedGraph) -> WeightedGraph:
    """The collapse of h is a subgraph of h with h's own weights (equal by repr,
    so a kept -0.0 stays -0.0), and keeps the diagrams of every degree below each
    cap from 1 to 4; on up to 7 vertices the referee reduces the collapsed
    complex too."""
    c = _edge_collapse(h)
    assert c.vertices == h.vertices and c.edges <= h.edges
    assert all(repr(c.weight[e]) == repr(h.weight[e]) for e in c.edges), sorted(h.weight.items())
    for cap in range(1, 5):
        want = reduce(filter_clique(h, cap), cap - 1)
        fc = filter_clique(c, cap)
        assert repr(reduce(fc, cap - 1)) == repr(want), (cap, sorted(h.weight.items()))
        if len(h.vertices) <= 7:
            oracle = oracle_diagrams(dict(fc.value), cap - 1)
            assert [PersistenceDiagram(r, p, e) for r, (p, e) in enumerate(oracle)] == want
    return c


class TestEdgeCollapse:
    def test_keeps_diagrams_of_both_sides(self):
        dropped = 0
        for g in collapse_graphs(random.Random(19), 300):
            for h in (g, _negated_completion(g)):
                c = check_collapse(h)
                dropped += len(h.edges) - len(c.edges)
        assert dropped

    @given(graphs(weighted=True))
    @settings(max_examples=60, deadline=None)
    def test_keeps_diagrams_property(self, g):
        check_collapse(g)
        check_collapse(_negated_completion(g))

    @pytest.mark.parametrize("max_dim", range(4))
    def test_of_graph_is_the_full_pair(self, max_dim):
        # The entry reduces the collapsed descending side; the full pair is the referee.
        for g in collapse_graphs(random.Random(23), 300):
            got = ExtendedPersistence.of_graph(g, max_dim)
            want = ExtendedPersistence(extended_pair(g, max_dim + 1), max_dim)
            for a, b in ((got.ascending, want.ascending), (got.descending, want.descending)):
                assert a == b and repr(a) == repr(b), sorted(g.weight.items())
            assert got.critical_values == want.critical_values
            assert repr(got.critical_values) == repr(want.critical_values)
            assert extended_json(got) == dumps(extended_to_doc(want))

    def test_of_graph_at_the_benchmark_size(self):
        # A G(24, m) graph at density 0.3 with weights uniform on [0, 100), the shape
        # of the benchmark's extended inputs; the other referees stop at 9 vertices.
        rng = random.Random(28)
        vs = [f"v{i:02d}" for i in range(24)]
        pairs = list(combinations(vs, 2))
        ws = {e: rng.uniform(0.0, 100.0) for e in sorted(rng.sample(pairs, round(0.3 * len(pairs))))}
        g = WeightedGraph(vs, ws.keys(), ws)
        h = _negated_completion(g)
        assert len(_edge_collapse(h).edges) < len(h.edges)
        for max_dim in range(3):
            want = ExtendedPersistence(extended_pair(g, max_dim + 1), max_dim)
            got = ExtendedPersistence.of_graph(g, max_dim)
            assert extended_json(got) == dumps(extended_to_doc(want)), max_dim

    def test_shrinks_a_dominated_edge(self):
        # In the triangle abc with ab last, c dominates ab: ab is dropped.
        c = _edge_collapse(parse_graph("a c 1\nb c 2\na b 3\n"))
        assert c.weight == {("a", "c"): 1.0, ("b", "c"): 2.0}


class TestFilteredComplexType:
    def test_rejects_non_monotone(self):
        k = SimplicialComplex.from_facets([("a", "b")])
        with pytest.raises(ValueError, match="monotone"):
            FilteredComplex(k, {("a",): 2.0, ("b",): 0.0, ("a", "b"): 1.0})

    def test_rejects_partial_values(self):
        k = SimplicialComplex.from_facets([("a", "b")])
        with pytest.raises(ValueError, match="no value"):
            FilteredComplex(k, {("a",): 0.0, ("b",): 0.0})
        message = "value for simplex ('a',) is an integer too large for a float"
        with pytest.raises(ValueError, match=re.escape(message)):
            FilteredComplex(SimplicialComplex([("a",)]), {("a",): 10**400})

    @pytest.mark.parametrize(
        "levels, message",
        [
            ([0.0, float("nan"), 1.0], "value for simplex ('b',) is NaN"),
            ([2.0, 0.0, 1.0], "not monotone: value(('a',)) = 2.0 > value(('a', 'b')) = 1.0"),
        ],
        ids=["nan", "non-monotone"],
    )
    def test_level_entry_rejects(self, levels, message):
        order = [("a",), ("b",), ("a", "b")]
        with pytest.raises(ValueError, match=re.escape(message)):
            _filtered((order, levels))

    def test_signed_zero_values_differ(self):
        plus, minus = filter_clique(parse_graph("a b 0.0\n")), filter_clique(parse_graph("a b -0.0\n"))
        assert plus.complex == minus.complex and plus != minus
        assert plus == filter_clique(parse_graph("b a 0\n"))

    def test_rejects_stray_values(self):
        k = SimplicialComplex.from_facets([("a",)])
        with pytest.raises(ValueError, match="outside"):
            FilteredComplex(k, {("a",): 0.0, ("z",): 0.0})
        # Stray keys of mixed types are named, not sorted against each other.
        with pytest.raises(ValueError, match=re.escape("outside the complex: ['x', 5]")):
            FilteredComplex(k, {("a",): 0.0, 5: 1.0, "x": 2.0})

    def test_sorted_order_ties_break_by_dimension(self):
        fc = filter_clique(parse_graph("a b 1\nb c 1\na c 1"))
        order = fc.sorted_simplices()
        assert order == [
            ("a",), ("b",), ("c",),
            ("a", "b"), ("a", "c"), ("b", "c"),
            ("a", "b", "c"),
        ]

    def test_sorted_order_breaks_ties_by_dimension_then_label(self):
        rng = random.Random(61)
        for _ in range(40):
            k = random_complex(rng, max_vertices=7, max_facets=5)
            values = random_filtration_values(rng, k, levels=2)
            fc = FilteredComplex(k, values)
            assert fc.sorted_simplices() == sorted(values, key=lambda s: (values[s], len(s), s))
            assert fc.value == values and len(fc) == len(values)
            assert fc.value is fc.value  # built on first use, then cached

    def test_critical_values(self):
        pair = extended_pair(PATH)
        assert pair.descending.critical_values() == (-2.0, -1.0)
        assert -INF in pair.descending.value.values()  # the sentinel is not critical


class TestFiltrationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=7, weighted=True))
    def test_monotone_on_faces(self, g):
        for build in (filter_clique, filter_neighborhood, filter_enclaveless):
            fc = build(g)
            for s, v in fc.value.items():
                if len(s) > 1:
                    for f in combinations(s, len(s) - 1):
                        assert fc.value[f] <= v

    def test_sublevel_consistency(self):
        rng = random.Random(23)
        builders = {
            filter_clique: clique_complex,
            filter_neighborhood: neighborhood_complex,
            filter_enclaveless: enclaveless_complex,
        }
        for _ in range(12):
            g = random_weighted_graph(rng, min_n=2, max_n=8, weights="int")
            for filt, plain in builders.items():
                fc = filt(g)
                for t in sorted(set(g.weight.values())):
                    sub = {s for s, v in fc.value.items() if v <= t and len(s) > 1}
                    ref = {
                        s
                        for s in plain(threshold_subgraph(g, t)).simplices
                        if len(s) > 1
                    }
                    assert sub == ref

    def test_closed_forms_match_literal_definition(self):
        rng = random.Random(29)
        for _ in range(15):
            g = random_weighted_graph(rng, min_n=2, max_n=8)
            oracle = SmallestTOracle(g)
            for fc, fn in (
                (filter_neighborhood(g), oracle.nb_value),
                (filter_enclaveless(g), oracle.el_value),
            ):
                for s, v in fc.value.items():
                    if len(s) > 1:
                        assert fn(s) == v, (s, v)

    def test_capped_values_match_definitions(self):
        for g in small_graphs(random.Random(43), 25):
            oracle = SmallestTOracle(g)

            def vertex_rule(v):
                return min((g.weight[edge(v, u)] for u in g.adjacency(v)), default=-INF)

            def clique_value(s):
                return max(g.weight[p] for p in combinations(s, 2))

            cases = (
                (filter_clique, clique_complex, clique_value),
                (filter_neighborhood, neighborhood_complex, oracle.nb_value),
                (filter_enclaveless, enclaveless_complex, oracle.el_value),
            )
            for build, plain, value in cases:
                for cap in (None, 0, 1, 2, 3, 4):
                    fc = build(g, cap)
                    assert fc.complex == plain(g, cap)
                    for s, v in fc.value.items():
                        expect = vertex_rule(s[0]) if len(s) == 1 else value(s)
                        assert v == expect, (build.__name__, g.sorted_edges(), cap, s)
