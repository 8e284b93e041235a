import pytest
from hypothesis import given, settings

from graphtda import (
    GraphParseError,
    WeightedGraph,
    complement,
    csusp,
    edge,
    format_graph,
    isomorphisms,
    isusp,
    parse_graph,
    threshold_subgraph,
)
from strategies import graphs


def K(n, weights=None):
    vs = [f"k{i}" for i in range(n)]
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    if weights is None:
        return WeightedGraph(vs, es)
    return WeightedGraph(vs, es, dict(zip(es, weights)))


C4 = WeightedGraph(
    "1234", [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")],
    {("1", "2"): 1.0, ("2", "3"): 2.0, ("3", "4"): 3.0, ("1", "4"): 4.0},
)


class TestParse:
    def test_basic(self):
        g = parse_graph("a b 1.0\nb c 2.0")
        assert g.vertices == ("a", "b", "c")
        assert g.edges == frozenset({("a", "b"), ("b", "c")})
        assert g.weight == {("a", "b"): 1.0, ("b", "c"): 2.0}

    def test_isolated_vertex_comments_blanks(self):
        g = parse_graph("# header\n\nq\na b 1.5\n  # indented comment\nz\n")
        assert g.vertices == ("a", "b", "q", "z")
        assert g.degree("q") == 0

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 1") as err:
            parse_graph("a a 1.0")
        assert err.value.line == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("a b 1\na b 2")
        # reversed orientation is the same undirected edge
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("a b 1\nb a 2")

    def test_bad_weight(self):
        with pytest.raises(GraphParseError, match="non-numeric"):
            parse_graph("a b zzz")
        with pytest.raises(GraphParseError, match="finite"):
            parse_graph("a b inf")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("a b")

    def test_format_round_trip(self):
        g = parse_graph("q\na b 1.5\nb c 2.25\n")
        assert parse_graph(format_graph(g)) == g
        with pytest.raises(ValueError, match="has no weight"):
            format_graph(K(2))


class TestConstructions:
    def test_complement_complete(self):
        assert complement(K(3)).edges == frozenset()

    def test_complement_empty(self):
        g = WeightedGraph(["a", "b", "c", "d"])
        assert len(complement(g).edges) == 6

    def test_complement_c4(self):
        assert complement(C4).edges == frozenset({("1", "3"), ("2", "4")})

    def test_threshold_levels(self):
        path = parse_graph("a b 1\nb c 2")
        assert threshold_subgraph(path, 1).edges == frozenset({("a", "b")})
        t0 = threshold_subgraph(path, 0)
        assert t0.edges == frozenset() and t0.vertices == ("a", "b", "c")
        assert threshold_subgraph(path, 2).edges == path.edges
        with pytest.raises(ValueError, match="fully weighted"):
            threshold_subgraph(K(3), 1)

    def test_csusp_counts(self):
        s = csusp(C4)
        assert len(s.vertices) == 6
        assert len(s.edges) == 12

    def test_csusp_single_vertex_is_path(self):
        s = csusp(WeightedGraph(["v"]))
        assert s.edges == frozenset({("v", "x"), ("v", "y")})

    def test_csusp_empty(self):
        s = csusp(WeightedGraph())
        assert s.vertices == ("x", "y") and not s.edges

    def test_csusp_fresh_labels(self):
        g = WeightedGraph(["x", "y"], [("x", "y")])
        s = csusp(g)
        assert set(s.vertices) == {"x", "y", "x2", "y2"}

    def test_isusp(self):
        assert isusp(WeightedGraph()).edges == frozenset({("x", "y")})
        two = isusp(K(2))
        assert len(two.edges) == 2 and len(two.vertices) == 4
        s = isusp(C4)
        assert len(s.vertices) == 6 and len(s.edges) == 5


class TestIsomorphisms:
    def test_k3_count(self):
        assert len(list(isomorphisms(K(3), K(3)))) == 6

    def test_non_isomorphic_empty(self):
        assert list(isomorphisms(C4, K(4))) == []
        # Same vertex and edge counts, different degrees: a path against a star.
        path = WeightedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        star = WeightedGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
        assert list(isomorphisms(path, star)) == []

    def test_path_automorphisms(self):
        p1 = WeightedGraph("abc", [("a", "b"), ("b", "c")])
        p2 = WeightedGraph("xyz", [("x", "y"), ("y", "z")])
        maps = list(isomorphisms(p1, p2))
        assert len(maps) == 2
        assert all(m["b"] == "y" for m in maps)

    def test_edge_preserving(self):
        g = WeightedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        for psi in isomorphisms(g, g):
            for u, v in g.edges:
                assert g.has_edge(psi[u], psi[v])


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=40, deadline=None)
    @given(graphs(weighted=True))
    def test_threshold_monotone(self, g):
        for t, t2 in [(0.0, 3.0), (2.0, 6.0), (-1.0, 0.0)]:
            assert threshold_subgraph(g, t).edges <= threshold_subgraph(g, t2).edges

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_suspension_edge_counts(self, g):
        assert len(csusp(g).edges) == len(g.edges) + 2 * len(g.vertices)
        assert len(isusp(g).edges) == len(g.edges) + 1

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=5))
    def test_identity_isomorphism_present(self, g):
        assert any(
            all(psi[v] == v for v in g.vertices) for psi in isomorphisms(g, g)
        )


class TestValidation:
    def test_loop_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph(["a"], [("a", "a")])
        with pytest.raises(TypeError, match="must be strings"):
            WeightedGraph(["a", 1])

    def test_weight_for_missing_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph(["a", "b"], [], {("a", "b"): 1.0})
        with pytest.raises(KeyError, match="has no weight"):
            K(2).edge_weight("k0", "k1")

    def test_nan_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(["a", "b"], [("a", "b")], {("a", "b"): float("nan")})
        with pytest.raises(ValueError, match="is an integer too large for a float"):
            WeightedGraph(["a", "b"], [("a", "b")], {("a", "b"): 10**400})

    def test_endpoints_added(self):
        g = WeightedGraph([], [("a", "b")])
        assert g.vertices == ("a", "b")

    def test_edge_normalization(self):
        assert edge("b", "a") == ("a", "b")
        with pytest.raises(ValueError):
            edge("a", "a")
