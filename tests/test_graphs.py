import ast
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtda
from graphtda import (
    DiagramPoint,
    EssentialPoint,
    ExtendedPersistence,
    FilteredComplex,
    GraphParseError,
    PersistenceDiagram,
    SimplicialComplex,
    WeightedGraph,
    betti_numbers,
    clique_complex,
    complement,
    csusp,
    edge,
    extended_pair,
    filter_clique,
    format_graph,
    isomorphisms,
    isusp,
    parse_graph,
    reduce,
    serialize,
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
        for w in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                format_graph(WeightedGraph("ab", [("a", "b")], {("a", "b"): w}))

    @pytest.mark.parametrize("label", ["", "#b", "a b", "a\tb", "\x1c", "a\u2028"])
    def test_format_refuses_labels_without_text_form(self, label):
        g = WeightedGraph(["z", label], [("z", label)], {("z", label): 1.0})
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            format_graph(g)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            format_graph(WeightedGraph([label]))

    def test_format_refuses_a_comment_label(self):
        # "#b a 1.0" would read back as a comment, dropping the edge and both vertices.
        g = parse_graph("a #b 1\nc d 2\n")
        with pytest.raises(ValueError, match="'#b'"):
            format_graph(g)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(max_size=3), min_size=2, max_size=5, unique=True),
        st.lists(st.floats(allow_nan=False), min_size=4, max_size=4),
    )
    def test_format_round_trips_whatever_it_accepts(self, labels, weights):
        es = list(zip(labels, labels[1:]))
        g = WeightedGraph(labels, es, dict(zip(es, weights)))
        try:
            text = format_graph(g)
        except ValueError:
            return
        assert parse_graph(text) == g


# Each entry point stores one real value x and returns what it holds for it.
_REAL_ENTRIES = {
    "weight": (
        lambda x: WeightedGraph("ab", [("a", "b")], {("a", "b"): x}).weight[("a", "b")],
        "weight for edge ('a', 'b')",
    ),
    "filtration value": (
        lambda x: FilteredComplex(SimplicialComplex([("a",)]), {("a",): x}).value[("a",)],
        "value for simplex ('a',)",
    ),
    "point birth": (lambda x: PersistenceDiagram(0, [(x, math.inf)]).points[0].birth, "birth"),
    "point death": (lambda x: PersistenceDiagram(0, [(-math.inf, x)]).points[0].death, "death"),
    "DiagramPoint birth": (
        lambda x: PersistenceDiagram(0, [DiagramPoint(x, math.inf)]).points[0].birth,
        "birth",
    ),
    "DiagramPoint death": (
        lambda x: PersistenceDiagram(0, [DiagramPoint(-math.inf, x)]).points[0].death,
        "death",
    ),
    "essential birth": (lambda x: PersistenceDiagram(0, [], [x]).essential[0].birth, "essential birth"),
    "EssentialPoint birth": (
        lambda x: PersistenceDiagram(0, [], [EssentialPoint(x)]).essential[0].birth,
        "essential birth",
    ),
    "document value": (serialize.decode_value, "value"),
}
_REFUSED = {"True": True, "False": False, "'2.5'": "2.5", "' inf '": " inf ", "None": None, "object": object()}
_ACCEPTED = {"1": 1, "1.5": 1.5, "inf": math.inf, "-inf": -math.inf, "10**300": 10**300}
# A proper point needs birth < death: its birth is never inf, its death never -inf.
_DEGENERATE = {("point birth", "inf"), ("DiagramPoint birth", "inf"), ("point death", "-inf"),
               ("DiagramPoint death", "-inf")}


@pytest.mark.parametrize(
    "entry, value",
    [(e, v) for e in _REAL_ENTRIES for v in [*_REFUSED, "nan", *_ACCEPTED] if (e, v) not in _DEGENERATE],
)
def test_one_rule_reads_every_real_value(entry, value):
    """Weights, filtration values, births and deaths, and document values read by one rule:
    an int or a float, not a bool or a string, held as a float; NaN is "<field> is NaN"."""
    store, field = _REAL_ENTRIES[entry]
    if value == "nan":
        with pytest.raises(ValueError, match=f"^{re.escape(field)} is NaN$"):
            store(math.nan)
    elif value in _REFUSED:
        with pytest.raises(ValueError, match=re.escape(field)):
            store(_REFUSED[value])
    else:
        held = store(_ACCEPTED[value])
        assert type(held) is float and held == float(_ACCEPTED[value])


_TRIANGLE = "a b 1\nb c 2\na c 3"
# The arguments before max_dim of every entry point that takes one.
_COUNT_ARGS = {
    **{name: lambda: (parse_graph(_TRIANGLE),) for name in (
        "clique_complex", "neighborhood_complex", "enclaveless_complex", "independent_complex",
        "filter_clique", "filter_neighborhood", "filter_enclaveless", "extended_pair",
        "ExtendedPersistence.of_graph",
    )},
    "reduce": lambda: (filter_clique(parse_graph(_TRIANGLE)),),
    "betti_numbers": lambda: (clique_complex(parse_graph(_TRIANGLE)),),
    "ExtendedPersistence": lambda: (extended_pair(parse_graph(_TRIANGLE)),),
    "SimplicialComplex.from_facets": lambda: ([("a", "b", "c")],),
}
_BAD_COUNTS = {"True": True, "False": False, "1.0": 1.0, "'1'": "1", "-1": -1, "10**400": 10**400}


def _count_message(what, value):
    if value == 10**400:
        return f"^{what} is an integer too large for a float$"
    return f"^{re.escape(f'{what} must be an int >= 0, got {value!r}')}$"


def _takes_max_dim():
    """Every callable in graphtda.__all__, and every public method of a class there, that takes max_dim."""
    found = {}
    for name in graphtda.__all__:
        obj = getattr(graphtda, name)
        members = [(name, obj)]
        if isinstance(obj, type):
            members += [(f"{name}.{m}", getattr(obj, m)) for m in vars(obj) if not m.startswith("_")]
        for label, f in members:
            try:
                if callable(f) and "max_dim" in inspect.signature(f).parameters:
                    found[label] = f
            except (TypeError, ValueError):  # no signature, as for the alias Simplex
                pass
    return found


_MAX_DIM_ENTRIES = _takes_max_dim()


def test_every_max_dim_entry_point_is_checked():
    assert sorted(_MAX_DIM_ENTRIES) == sorted(_COUNT_ARGS) and len(_COUNT_ARGS) == 13


def _extended():
    return ExtendedPersistence.of_graph(parse_graph(_TRIANGLE), 1)


# Each reader takes one count n; the second entry is the name its message gives n.
_COUNT_READERS = {
    **{e: (lambda n, e=e: f(*_COUNT_ARGS[e](), max_dim=n), "max_dim") for e, f in _MAX_DIM_ENTRIES.items()},
    "from_facets of no facet": (lambda n: SimplicialComplex.from_facets([], max_dim=n), "max_dim"),
    "pbn degree": (lambda n: _extended().pbn(n, 1.0, 2.0), "degree"),
    "grid degree": (lambda n: _extended().grid(n, [1.0, 2.0]), "degree"),
}


@pytest.mark.parametrize("entry, value", [(e, v) for e in sorted(_COUNT_READERS) for v in _BAD_COUNTS])
def test_one_rule_reads_every_count(entry, value):
    """max_dim at every entry point, and a query's degree, read by one rule: an int >= 0, not
    a bool, that converts to a float."""
    read, what = _COUNT_READERS[entry]
    with pytest.raises(ValueError, match=_count_message(what, _BAD_COUNTS[value])):
        read(_BAD_COUNTS[value])


def test_valid_counts_keep_their_results():
    g = parse_graph(_TRIANGLE)
    edges = [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")]
    assert clique_complex(g, None) == SimplicialComplex([*edges, ("a", "b", "c")])
    assert clique_complex(g, 1) == SimplicialComplex(edges)
    assert SimplicialComplex.from_facets([("a", "b", "c")], max_dim=0) == SimplicialComplex(edges[:3])
    assert SimplicialComplex.from_facets([], max_dim=0) == SimplicialComplex.from_facets([]) == SimplicialComplex()
    # a and b enter with ab at 1, c with bc at 2: one class for ever, and ac at 3 fills in at once.
    assert reduce(filter_clique(g), 1) == [PersistenceDiagram(0, [], [1.0]), PersistenceDiagram(1)]
    assert betti_numbers(clique_complex(g, 1), 1) == (1, 1)
    ext = ExtendedPersistence.of_graph(g, 1)
    assert ext.max_dim == 1 and list(ext.ascending) == reduce(filter_clique(g), 1)
    assert ext.pbn(0, 1.0, 2.0) == ext.grid(0, [1.0, 2.0])[0][1] == 1


def test_only_graphs_refuses_bools_and_unweighted_graphs():
    """Refusing a bool and requiring weights are rules of graphs.py (`_real`, `_count`,
    `_require_weighted`): no other module grows its own copy of one."""
    found = set()
    for path in sorted((Path(__file__).parent.parent / "src" / "graphtda").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            bool_test = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
            )
            if bool_test or isinstance(node, ast.Attribute) and node.attr == "is_weighted":
                found.add(path.name if path.name == "graphs.py" else f"{path.name}:{node.lineno}")
    assert found == {"graphs.py"}


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

    def test_weight_given_twice(self):
        # Both orientations of one edge, equal or not: the second would replace the first.
        for second in (2.0, 1.0):
            with pytest.raises(ValueError, match=r"weight given twice for edge \('a', 'b'\)"):
                WeightedGraph(["a", "b"], [("a", "b")], {("a", "b"): 1.0, ("b", "a"): second})

    def test_nan_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(["a", "b"], [("a", "b")], {("a", "b"): float("nan")})
        with pytest.raises(ValueError, match="is an integer too large for a float"):
            WeightedGraph(["a", "b"], [("a", "b")], {("a", "b"): 10**400})

    def test_equal_graphs_hash_equal(self):
        g1 = WeightedGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")], {("a", "b"): 1, ("b", "c"): 2.5})
        g2 = WeightedGraph(["d", "c", "b", "a"], [("c", "b"), ("b", "a")], {("c", "b"): 2.5, ("b", "a"): 1.0})
        assert g1 == g2 and hash(g1) == hash(g2)
        assert len({g1, g2}) == 1
        assert len({g1, WeightedGraph(g1.vertices, g1.edges, {("a", "b"): 1.0, ("b", "c"): 3.0})}) == 2
        # persist writes "birth": 0.0 for one and -0.0 for the other, so they are not one graph.
        plus, minus = parse_graph("a b 0.0\n"), parse_graph("a b -0.0\n")
        assert plus != minus and len({plus, minus}) == 2
        assert plus == parse_graph("b a 0\n")

    def test_endpoints_added(self):
        g = WeightedGraph([], [("a", "b")])
        assert g.vertices == ("a", "b")

    def test_edge_normalization(self):
        assert edge("b", "a") == ("a", "b")
        with pytest.raises(ValueError):
            edge("a", "a")
