import json
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtda import parse_graph, serialize
from graphtda.complexes import SimplicialComplex
from graphtda.filtrations import extended_pair, filter_clique
from graphtda.persistence import DiagramPoint, EssentialPoint, ExtendedPersistence, PersistenceDiagram, reduce

INF = float("inf")
# Arguments of PersistenceDiagram, valid or near the edges of what it holds:
# bools, strings, NaN, infinities and integers up to and past the float range.
_DIMENSIONS = st.one_of(st.integers(0, 1000), st.sampled_from([-1, True, 2.7, "3", None, 10**400]))
_MULTIPLICITIES = st.one_of(
    st.integers(1, 3),
    st.sampled_from([2**1023, int(sys.float_info.max), 10**400, 0, True, 1.0, "2", None]),
)
_VALUES = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([True, "1.5", 2**1023, 10**400, None]))
_PAIRS = st.one_of(
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=2, unique=True).map(sorted),
    st.tuples(_VALUES, _VALUES),
)


class TestValues:
    def test_encode_decode(self):
        assert serialize.encode_value(INF) == "inf"
        assert serialize.encode_value(-INF) == "-inf"
        assert serialize.encode_value(1.5) == 1.5
        assert serialize.decode_value("inf") == INF
        assert serialize.decode_value("-inf") == -INF
        assert serialize.decode_value(2) == 2.0

    def test_rejects_junk(self):
        with pytest.raises(serialize.DocumentError):
            serialize.decode_value("oo")
        with pytest.raises(serialize.DocumentError):
            serialize.decode_value(None)
        with pytest.raises(serialize.DocumentError):
            serialize.decode_value(True)


class TestComplexDocs:
    def test_round_trip(self):
        k = SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d")])
        assert serialize.complex_from_doc(serialize.complex_to_doc(k)) == k

    def test_vertex_mismatch_rejected(self):
        doc = {"vertices": ["a", "b", "z"], "facets": [["a", "b"]]}
        with pytest.raises(serialize.DocumentError, match="vertex"):
            serialize.complex_from_doc(doc)

    def test_empty_complex(self):
        k = SimplicialComplex()
        assert serialize.complex_from_doc(serialize.complex_to_doc(k)) == k

    def test_string_facet_rejected(self):
        for doc, message in (
            ({"vertices": ["a", "b"], "facets": ["ab"]}, "facet must be a list"),
            ({"vertices": ["a", "b"]}, "needs 'vertices' and 'facets'"),
            ([["a", "b"]], "needs 'vertices' and 'facets'"),
            ({"vertices": ["a"], "facets": [["a", "a"]]}, "bad facet list: .*repeated"),
            ({"vertices": [1], "facets": [[1]]}, "bad facet list: .*must be strings"),
            ({"vertices": [1, "a"], "facets": [["a"]]}, "vertex labels must be strings, got 1"),
        ):
            with pytest.raises(serialize.DocumentError, match=message):
                serialize.complex_from_doc(doc)


class TestFilteredDocs:
    def test_round_trip_with_sentinels(self):
        pair = extended_pair(parse_graph("a b 1\nb c 2"))
        doc = serialize.filtered_to_doc(pair.descending)
        assert serialize.filtered_from_doc(doc) == pair.descending

    def test_non_monotone_doc_rejected(self):
        doc = {
            "simplices": [
                {"vertices": ["a"], "value": 5.0},
                {"vertices": ["b"], "value": 0.0},
                {"vertices": ["a", "b"], "value": 1.0},
            ]
        }
        with pytest.raises(serialize.DocumentError, match="monotone"):
            serialize.filtered_from_doc(doc)

    def test_repeated_simplex_rejected(self):
        doc = {
            "simplices": [
                {"vertices": ["a"], "value": 0},
                {"vertices": ["a"], "value": 5},
            ]
        }
        with pytest.raises(serialize.DocumentError, match=r"\('a',\) listed twice"):
            serialize.filtered_from_doc(doc)

    def test_string_vertex_list_rejected(self):
        doc = {
            "simplices": [
                {"vertices": ["a"], "value": 0},
                {"vertices": ["b"], "value": 0},
                {"vertices": "ab", "value": 1},
            ]
        }
        with pytest.raises(serialize.DocumentError, match="vertices must be a list"):
            serialize.filtered_from_doc(doc)
        for doc, message in (
            ({"vertices": ["a"]}, "needs 'simplices'"),
            ([{"vertices": ["a"], "value": 0}], "needs 'simplices'"),
            ({"simplices": [{"vertices": ["a"]}]}, "needs 'vertices' and 'value'"),
            ({"simplices": [["a"]]}, "needs 'vertices' and 'value'"),
        ):
            with pytest.raises(serialize.DocumentError, match=message):
                serialize.filtered_from_doc(doc)


class TestDiagramDocs:
    def test_round_trip(self):
        d = PersistenceDiagram(1, [(0.0, 2.0), (-INF, 1.0)], [3.0, -INF])
        assert serialize.diagram_from_doc(serialize.diagram_to_doc(d)) == d

    @settings(max_examples=300, deadline=None)
    @given(
        dimension=_DIMENSIONS,
        points=st.lists(
            st.one_of(
                _PAIRS.map(tuple),
                st.builds(lambda pair, m: DiagramPoint(*pair, m), _PAIRS, _MULTIPLICITIES),
            ),
            max_size=4,
        ),
        essential=st.lists(
            st.one_of(_VALUES, st.builds(EssentialPoint, _VALUES, _MULTIPLICITIES)),
            max_size=3,
        ),
    )
    def test_every_accepted_diagram_round_trips(self, dimension, points, essential):
        try:
            d = PersistenceDiagram(dimension, points, essential)
        except (TypeError, ValueError):
            return  # refused by the type
        assert all(type(x) is float for p in d.points for x in (p.birth, p.death))
        assert all(type(e.birth) is float for e in d.essential)
        text = serialize.dumps(serialize.diagram_to_doc(d))
        assert serialize.diagram_from_doc(json.loads(text)) == d

    def test_csv_round_trip(self):
        fc = filter_clique(parse_graph("1 2 1\n2 3 2\n3 4 3\n1 4 4"))
        diagrams = reduce(fc, 1)
        text = serialize.diagrams_to_csv(diagrams)
        loaded = serialize.diagrams_from_csv(text)
        nonempty = [d for d in diagrams if d.points or d.essential]
        assert loaded == nonempty
        assert serialize.diagrams_from_csv("\n" + text.replace("\n", "\n  \n")) == nonempty

    def test_repeated_degree_pools_as_csv_rows_do(self):
        docs = [
            {"dimension": 2, "points": []},
            {"dimension": 1, "points": [{"birth": 0, "death": 1}]},
            {"dimension": 0, "essential": [{"birth": 0.5}]},
            {"dimension": 1, "points": [{"birth": 0, "death": 9}], "essential": [{"birth": 3}]},
            {"dimension": 1, "points": [{"birth": 0, "death": 9, "multiplicity": 2}]},
        ]
        pooled = serialize.diagrams_from_json(docs)
        assert pooled == [
            PersistenceDiagram(0, [], [0.5]),
            PersistenceDiagram(1, [(0, 1), DiagramPoint(0, 9, 3)], [3]),
            PersistenceDiagram(2),
        ]
        csv = "1,0,9,1\n0,0.5,inf,1\n1,0,1,1\n1,3,inf,1\n1,0,9,2\n"
        assert serialize.diagrams_from_csv(csv) == pooled[:2]
        assert serialize.diagrams_from_json(docs[1]) == [serialize.diagram_from_doc(docs[1])]
        # The degree is checked before it keys the pool, so True does not pool with 1.
        with pytest.raises(serialize.DocumentError, match="dimension must be an int >= 0, got True"):
            serialize.diagrams_from_json([docs[1], {"dimension": True, "points": []}])
        for bad in (docs, 5, [5], {"points": []}):
            with pytest.raises(serialize.DocumentError):
                serialize.diagram_from_doc(bad)

    def test_grid_degree_listed_twice_refused(self):
        grid = {"dimension": 1, "coordinates": [0, 1], "values": [[0, 0], [0, 2]]}
        grids = serialize.grids_from_json([grid, {**grid, "dimension": 0}])
        assert grids == {1: ([0.0, 1.0], [[0, 0], [0, 2]]), 0: ([0.0, 1.0], [[0, 0], [0, 2]])}
        assert all(type(c) is float for coords, _ in grids.values() for c in coords)
        with pytest.raises(serialize.DocumentError, match="grid degree 1 is listed twice"):
            serialize.grids_from_json([grid, {**grid, "dimension": 0}, grid])

    @pytest.mark.parametrize("max_dim", range(4))
    def test_extended_grids_round_trip(self, max_dim):
        # Weights hold both signed zeros and values near the float range, so the
        # coordinates must come back repr for repr, through the JSON text as well.
        for seed in range(6):
            rng = random.Random(f"extended-grids:{seed}")
            labels = [f"v{i}" for i in range(7)]
            text = "".join(
                f"{a} {b} {rng.choice(['-0', '0', '1e300', '-1e300', '0.25', '1.5', '-2'])}\n"
                for a, b in combinations(labels, 2) if rng.random() < 0.5
            )
            pair = extended_pair(parse_graph(text + "".join(f"{v}\n" for v in labels)), max_dim + 1)
            ext = ExtendedPersistence(pair, max_dim)
            coords = serialize.sample_coordinates(pair.ascending.critical_values())
            doc = serialize.extended_to_doc(ext)
            want = {r: (coords, ext.grid(r, coords)) for r in range(max_dim + 1)}
            for grids in (doc["grids"], json.loads(serialize.dumps(doc))["grids"]):
                got = serialize.grids_from_json(grids)
                assert got == want and repr(got) == repr(want)

    def test_lattice_of_any_values_is_a_grid_the_reader_accepts(self):
        # Unsorted values with repeats, as the figure script and the benchmark's trace
        # pass them: signed zeros, infinities, the largest floats and a value past 2**53.
        pool = (0.0, -0.0, INF, -INF, sys.float_info.max, -sys.float_info.max, 1e300, float(2**53 + 2), 1.0, -2.5)
        rng = random.Random("lattice")
        cases = [(), (INF, -INF, INF), (1e300,)]
        cases += [tuple(rng.choice(pool) for _ in range(rng.randint(0, 12))) for _ in range(3000)]
        for values in cases:
            coords = serialize.sample_coordinates(values)
            finite = [v for v in values if v not in (INF, -INF)]
            if not finite:
                assert coords == [0.0, 1.0]
                continue
            assert len(coords) == 2 * len(set(finite)) + 1, values  # a set holds one of 0.0 and -0.0
            assert all(v in coords for v in finite), values
            n = len(coords)
            grid = {"dimension": 0, "coordinates": coords, "values": [[0] * n for _ in range(n)]}
            assert serialize.grids_from_json([grid]) == {0: (coords, grid["values"])}

    def test_read_document_tells_the_formats_apart(self):
        d = [PersistenceDiagram(0, [(0.0, 1.0)], [2.0]), PersistenceDiagram(1, essential=[-INF])]
        assert serialize.read_document(serialize.diagrams_to_csv(d)) == d
        assert serialize.read_document("\n " + serialize.dumps([serialize.diagram_to_doc(x) for x in d])) == d
        grids = {"grids": [{"dimension": 0, "coordinates": [0, 1], "values": [[0, 0], [0, 1]]}]}
        assert serialize.read_document(json.dumps(grids)) == {0: ([0.0, 1.0], [[0, 0], [0, 1]])}
        assert serialize.read_document("") == []

    def test_csv_rejects_infinite_proper_death(self):
        d = PersistenceDiagram(0, [(0.0, INF)])
        with pytest.raises(ValueError, match="CSV"):
            serialize.diagrams_to_csv([d])

    def test_csv_negative_infinity_birth(self):
        d = PersistenceDiagram(0, [(-INF, -4.0)], [-INF])
        text = serialize.diagrams_to_csv([d])
        assert serialize.diagrams_from_csv(text) == [d]

    def test_csv_bad_row(self):
        with pytest.raises(serialize.DocumentError, match="line 1"):
            serialize.diagrams_from_csv("0,1.0,2.0\n")

    def test_dumps_deterministic(self):
        d = PersistenceDiagram(0, [(0.0, 1.0)])
        doc = serialize.diagram_to_doc(d)
        assert serialize.dumps(doc) == serialize.dumps(doc)
