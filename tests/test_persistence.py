import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings

from graphtda import (
    FilteredComplex,
    SimplicialComplex,
    WeightedGraph,
    filter_clique,
    filter_enclaveless,
    filter_neighborhood,
    parse_graph,
)
from graphtda import persistence
from graphtda.filtrations import extended_pair
from graphtda.persistence import (
    DiagramPoint,
    EssentialPoint,
    ExtendedPersistence,
    PersistenceDiagram,
    reduce,
)
from graphtda.serialize import sample_coordinates
from oracles import SublevelRankOracle, oracle_betti, oracle_diagrams
from randutil import random_complex, random_filtration_values, random_weighted_graph
from strategies import graphs

INF = float("inf")


def fc_from_values(values: dict) -> FilteredComplex:
    return FilteredComplex(SimplicialComplex(values.keys()), values)


@pytest.mark.parametrize(
    "value, text",
    [
        (parse_graph("a b 1\n"), "WeightedGraph(2 vertices, 1 edges)"),
        (SimplicialComplex([("a",), ("b",), ("a", "b")]), "SimplicialComplex(3 simplices, dim 1)"),
        (filter_clique(parse_graph("a b 1\n")), "FilteredComplex(3 simplices)"),
        (PersistenceDiagram(0, [(0, 1)], [2]), "PersistenceDiagram(dim=0, points=[DiagramPoint("
         "birth=0.0, death=1.0, multiplicity=1)], essential=[EssentialPoint(birth=2.0, multiplicity=1)])"),
    ],
    ids=["graph", "complex", "filtered", "diagram"],
)
def test_equality_with_another_type_and_repr(value, text):
    assert (value == object()) is False and (value != object()) is True
    assert repr(value) == text


class TestDiagramType:
    def test_merging_and_sorting(self):
        d = PersistenceDiagram(0, [(0, 1), (0, 1), (0, 2)], [3.0, 3.0])
        assert d.points == (DiagramPoint(0, 1, 2), DiagramPoint(0, 2, 1))
        assert d.essential == (EssentialPoint(3.0, 2),)

    def test_rejects_degenerate_point(self):
        with pytest.raises(ValueError, match="birth < death"):
            PersistenceDiagram(0, [(1, 1)])
        nan = float("nan")
        for points, field in ([(nan, 1.0)], "birth"), ([(0.0, nan)], "death"), ([DiagramPoint(nan, INF)], "birth"):
            with pytest.raises(ValueError, match=f"^{field} is NaN$"):
                PersistenceDiagram(0, points)
        for essential in ([nan], [EssentialPoint(nan)], [0.0, EssentialPoint(nan, 2)]):
            with pytest.raises(ValueError, match="^essential birth is NaN$"):
                PersistenceDiagram(0, essential=essential)
        # Each given multiplicity is checked before coincident points merge:
        # -2 and 3 would sum to a valid 1, and True would sum to 1.
        bad = (-2, 0, True, False, 1.0, 2.5, "1", None, 10**400)
        for m in bad:
            with pytest.raises(ValueError, match="multiplicity"):
                PersistenceDiagram(1, [DiagramPoint(0.0, 4.0, m)])
            with pytest.raises(ValueError, match="multiplicity"):
                PersistenceDiagram(1, essential=[EssentialPoint(0.0, m)])
        with pytest.raises(ValueError, match="multiplicity"):
            PersistenceDiagram(1, [DiagramPoint(0.0, 4.0, -2), DiagramPoint(0.0, 4.0, 3)])
        with pytest.raises(ValueError, match="multiplicity"):
            PersistenceDiagram(
                1,
                [DiagramPoint(0.0, 4.0, -2), DiagramPoint(1.0, 2.0, 0)],
                [EssentialPoint(0.0, 0)],
            )

    def test_refuses_what_documents_refuse(self):
        for r in (-1, True, 2.7, "3", None):
            with pytest.raises(ValueError, match="dimension"):
                PersistenceDiagram(r)
        # Each multiplicity converts to a float; the total of the merged point does not.
        top = int(sys.float_info.max)
        with pytest.raises(ValueError, match="too large for a float"):
            PersistenceDiagram(0, [DiagramPoint(0.0, 1.0, top), DiagramPoint(0.0, 1.0, top)])
        assert PersistenceDiagram(0, [DiagramPoint(0.0, 1.0, top)]).total_points == top
        # So does each birth and death.
        for points, essential in (
            ([(10**400, 10**401)], []),
            ([(0, 10**400)], []),
            ([DiagramPoint(-(10**400), 1.0)], []),
            ([], [10**400]),
            ([], [EssentialPoint(10**400)]),
        ):
            with pytest.raises(ValueError, match="is an integer too large for a float"):
                PersistenceDiagram(0, points, essential)

    def test_rank_counting(self):
        d = PersistenceDiagram(0, [(0.0, 1.0)], [0.0])
        assert d.rank(0, 0.5) == 2
        assert d.rank(0, 1) == 1  # death must be strictly beyond v
        assert d.rank(-1, 0.5) == 0

    def test_empty_rank(self):
        assert PersistenceDiagram(2).rank(0, 10) == 0


class TestReduce:
    def test_two_vertices_one_edge(self):
        fc = fc_from_values({("a",): 0.0, ("b",): 0.0, ("a", "b"): 1.0})
        d0 = reduce(fc, 0)[0]
        assert d0.points == (DiagramPoint(0.0, 1.0, 1),)
        assert d0.essential == (EssentialPoint(0.0, 1),)

    def test_c4_clique_filtration(self):
        fc = filter_clique(parse_graph("1 2 1\n2 3 2\n3 4 3\n1 4 4"))
        d0, d1 = reduce(fc, 1)
        # every merge happens at the joining vertex's own birth, so only the
        # first component survives as a cornerline; the 4-cycle never fills
        assert d0.points == () and d0.essential == (EssentialPoint(1.0, 1),)
        assert d1.points == () and d1.essential == (EssentialPoint(4.0, 1),)
        oracle = SublevelRankOracle(fc)
        for u, v in [(1, 2), (1, 4), (2, 3), (3.5, 4), (4, 5)]:
            assert d0.rank(u, v) == oracle.pbn(0, u, v)
            assert d1.rank(u, v) == oracle.pbn(1, u, v)

    def test_triangle_clique_filtration(self):
        fc = filter_clique(parse_graph("a b 1\nb c 2\na c 3"))
        d0, d1 = reduce(fc, 1)
        # the merges at 1 and 2 are zero-persistence and the cycle fills the
        # instant it completes at 3: nothing proper remains in either degree
        assert d0.points == () and d0.essential == (EssentialPoint(1.0, 1),)
        assert d1.points == () and d1.essential == ()
        oracle = SublevelRankOracle(fc)
        for u, v in [(1, 1.5), (1, 2), (2, 2.5), (2.5, 3), (3, 4)]:
            assert d0.rank(u, v) == oracle.pbn(0, u, v)
            assert d1.rank(u, v) == oracle.pbn(1, u, v)

    def test_max_dim_zero_still_sees_deaths(self):
        fc = fc_from_values({("a",): 0.0, ("b",): 0.0, ("a", "b"): 1.0})
        assert reduce(fc, 0)[0].points == (DiagramPoint(0.0, 1.0, 1),)

    def test_negative_max_dim(self):
        fc = fc_from_values({("a",): 0.0})
        with pytest.raises(ValueError):
            reduce(fc, -1)

    def test_determinism(self):
        rng = random.Random(5)
        g = random_weighted_graph(rng, min_n=5, max_n=8, weights="int")
        fc = filter_clique(g)
        assert repr(reduce(fc, 2)) == repr(reduce(fc, 2))

    def test_empty_complex(self):
        fc = filter_clique(WeightedGraph())
        diagrams = reduce(fc, 2)
        assert all(d.points == () and d.essential == () for d in diagrams)


class TestCornerpoints:
    def test_symmetric_multiplicity(self):
        fc = fc_from_values(
            {
                ("a",): 0.0, ("b",): 0.0, ("c",): 0.0, ("d",): 0.0,
                ("a", "b"): 1.0, ("c", "d"): 1.0, ("b", "c"): 2.0,
            }
        )
        d0 = reduce(fc, 0)[0]
        assert d0.points == (DiagramPoint(0.0, 1.0, 2), DiagramPoint(0.0, 2.0, 1))
        assert d0.essential == (EssentialPoint(0.0, 1),)
        oracle = SublevelRankOracle(fc)
        for u, v in [(0, 0.5), (0, 1), (0, 2), (1, 1.5), (1, 2)]:
            assert d0.rank(u, v) == oracle.pbn(0, u, v)

    def test_single_vertex_sentinel_birth(self):
        fc = filter_clique(WeightedGraph(["v"], [], {}))
        assert reduce(fc, 0)[0].essential == (EssentialPoint(-INF, 1),)

    def test_k2(self):
        fc = filter_clique(parse_graph("a b 3"))
        d0 = reduce(fc, 0)[0]
        assert d0.points == () and d0.essential == (EssentialPoint(3.0, 1),)


class TestPbn:
    def test_counts(self):
        fc = fc_from_values({("a",): 0.0, ("b",): 0.0, ("a", "b"): 1.0})
        d0 = reduce(fc, 0)[0]
        assert d0.rank(0.0, 0.5) == 2
        assert d0.rank(0.0, 1.0) == 1

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_n=6, weighted=True))
    def test_monotone_in_query(self, g):
        fc = filter_clique(g)
        diagrams = reduce(fc, 1)
        crit = fc.critical_values() or (0.0,)
        lo, hi = min(crit) - 1, max(crit) + 1
        for d in diagrams:
            samples = sorted(set(crit) | {lo, hi})
            for i, u in enumerate(samples):
                for v in samples[i:]:
                    v = v + 0.5
                    # nondecreasing in u, nonincreasing in v
                    assert d.rank(u, v) <= d.rank(v - 0.25, v)
                    assert d.rank(u, v + 1) <= d.rank(u, v)

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_n=6, weighted=True, min_n=1))
    def test_essential_count_is_final_betti(self, g):
        fc = filter_clique(g)
        diagrams = reduce(fc, 2)
        final = oracle_betti(fc.complex.simplices, 2)
        for r, d in enumerate(diagrams):
            assert d.total_essential == final[r]

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_n=6, weighted=True, min_n=1))
    def test_sublevel_betti_consistency(self, g):
        fc = filter_clique(g)
        diagrams = reduce(fc, 1)
        for u in fc.critical_values():
            sub = SimplicialComplex(s for s, v in fc.value.items() if v <= u)
            b = oracle_betti(sub.simplices, 1)
            for r in (0, 1):
                assert diagrams[r].rank(u, u) == b[r]


class TestDiagramRankDuality:
    def test_random_filtrations(self):
        rng = random.Random(97)
        for _ in range(15):
            k = random_complex(rng, max_vertices=6, max_facets=4)
            fc = FilteredComplex(k, random_filtration_values(rng, k, levels=5))
            diagrams = reduce(fc, 2)
            for r in (0, 1):
                assert reduce(fc, r) == diagrams[: r + 1]
            oracle = SublevelRankOracle(fc)
            crit = fc.critical_values()
            queries = [(u, v) for u in crit for v in crit if u < v]
            queries += [(u - 0.5, u + 0.5) for u in crit]
            for r in range(3):
                for u, v in queries:
                    assert diagrams[r].rank(u, v) == oracle.pbn(r, u, v)

    def test_tie_heavy_filtrations(self):
        # Two or three levels over complexes up to dimension 4: simplices of
        # different dimensions interleave and tie throughout filtration order.
        rng = random.Random(2011)
        for _ in range(40):
            vs = [f"v{i}" for i in range(rng.randint(1, 8))]
            k = SimplicialComplex.from_facets(
                rng.sample(vs, rng.randint(1, min(5, len(vs))))
                for _ in range(rng.randint(1, 5))
            )
            fc = FilteredComplex(k, random_filtration_values(rng, k, levels=rng.choice((2, 3))))
            top = k.dim
            diagrams = reduce(fc, top)
            for r in range(top):
                assert reduce(fc, r) == diagrams[: r + 1]
            oracle = SublevelRankOracle(fc)
            crit = fc.critical_values()
            queries = [(u, v) for u in crit for v in crit if u < v]
            queries += [(u - 0.5, u + 0.5) for u in crit]
            for r in range(top + 1):
                for u, v in queries:
                    assert diagrams[r].rank(u, v) == oracle.pbn(r, u, v)

    def test_one_tie_block(self):
        # Every simplex at -inf, as on the descending side of an extended pair.
        for n in (6, 7):
            vs = [f"v{i}" for i in range(n)]
            for cap in range(5):
                k = SimplicialComplex.from_facets([vs], max_dim=cap)
                fc = FilteredComplex(k, dict.fromkeys(k.simplices, -INF))
                diagrams = reduce(fc, cap)
                assert all(d.points == () for d in diagrams)
                assert tuple(d.total_essential for d in diagrams) == oracle_betti(k.simplices, cap)


def count_bitmasks(monkeypatch) -> list[int]:
    """Patch reduce's `_bitmask` with a spy; element 0 of the list returned counts its calls."""
    calls, build = [0], persistence._bitmask

    def spy(rows):
        calls[0] += 1
        return build(rows)

    monkeypatch.setattr(persistence, "_bitmask", spy)
    return calls


# Budgets of reduce's cache of rebuilt bitmasks: none; one bitmask, since any positive
# room admits one, so the cache is full partway through a degree; unbounded.
CACHE_BUDGETS = (0, 1, 1 << 62)


class TestAgainstTextbookReduction:
    def test_random_filtered_complexes(self):
        # Equal values, -inf and +inf blocks, and complexes capped below
        # max_dim + 1, whose top degree has nothing to kill its classes;
        # k.dim + 3 asks for degrees past the last dimension block.
        rng = random.Random(2011)
        for case in range(240):
            vs = [f"v{i}" for i in range(rng.randint(1, 7))]
            k = SimplicialComplex.from_facets(
                [rng.sample(vs, rng.randint(1, len(vs))) for _ in range(rng.randint(1, 5))],
                max_dim=rng.choice((None, None, 1, 2, 3)),
            )
            values = random_filtration_values(rng, k, levels=rng.choice((1, 2, 3, 8)))
            top = max(values.values())
            style = case % 4
            if style == 1:
                values = {s: -INF if v == 0.0 else v for s, v in values.items()}
            elif style == 2:
                values = {s: INF if v == top else v for s, v in values.items()}
            elif style == 3:
                values = dict.fromkeys(values, -INF)
            fc = FilteredComplex(k, values)
            for max_dim in sorted({0, k.dim, k.dim + 1, k.dim + 3}):
                expect = [
                    PersistenceDiagram(r, points, essential)
                    for r, (points, essential) in enumerate(oracle_diagrams(values, max_dim))
                ]
                assert reduce(fc, max_dim) == expect, (case, max_dim, sorted(values.items()))

    def test_every_family_on_the_persist_path(self, monkeypatch):
        # persist reduces filter_*(g, cap) to degree cap - 1, here at caps 1-4 on tie-heavy
        # weights. A diagram merges (0.0, d) with (-0.0, d) and keeps the sign of the class
        # added first, which follows reduce's pair order, so repr is compared only where
        # the weights hold at most one sign of zero. A bitmask reduce keeps is the int its
        # coface list rebuilds to, so every budget of that cache gives the same repr.
        pool = (0.0, -0.0, 1.0, 2.5, -3.0, 1e300, -1e300, INF, -INF)
        rng = random.Random(2029)
        simplices = 0
        calls, builds = count_bitmasks(monkeypatch), dict.fromkeys(CACHE_BUDGETS, 0)
        for _ in range(150):
            vs = [f"v{i}" for i in range(rng.randint(1, 7))]
            weights, density = rng.sample(pool, rng.randint(1, len(pool))), rng.random()
            ws = {e: rng.choice(weights) for e in combinations(vs, 2) if rng.random() < density}
            g = WeightedGraph(vs, ws.keys(), ws)
            one_zero = len({math.copysign(1.0, w) for w in ws.values() if w == 0}) <= 1
            for family in (filter_clique, filter_neighborhood, filter_enclaveless):
                for cap in range(1, 5):
                    fc = family(g, cap)
                    simplices += len(fc)
                    want = [
                        PersistenceDiagram(r, points, essential)
                        for r, (points, essential) in enumerate(oracle_diagrams(dict(fc.value), cap - 1))
                    ]
                    texts = set()
                    for budget in CACHE_BUDGETS:
                        monkeypatch.setattr(persistence, "_CACHE_BYTES", budget)
                        calls[0] = 0
                        got = reduce(fc, cap - 1)
                        builds[budget] += calls[0]
                        case = (budget, family.__name__, cap, sorted(ws.items()))
                        assert got == want, case
                        if one_zero:
                            assert repr(got) == repr(want), case
                        texts.add(repr(got))
                    assert len(texts) == 1, case
        assert simplices > 10_000
        assert builds[0] > builds[1] > builds[1 << 62], builds

    def test_cache_at_the_benchmark_size(self, monkeypatch):
        # perfbench's first ordinary clique graph of seed 1 by its recipe, G(76, m=1425) at
        # cap 4: edges drawn by "clique:edges:0", weights uniform on [0, 100).
        vs = [f"v{i:02d}" for i in range(76)]
        pairs = list(combinations(vs, 2))
        edges = sorted(random.Random("clique:edges:0").sample(pairs, round(0.5 * len(pairs))))
        rng = random.Random("ordinary:1")
        ws = {e: rng.uniform(0.0, 100.0) for e in edges}
        fc = filter_clique(WeightedGraph(vs, ws.keys(), ws), 4)
        calls, default = count_bitmasks(monkeypatch), persistence._CACHE_BYTES
        builds, texts = {}, set()
        for budget in (default, *CACHE_BUDGETS):
            monkeypatch.setattr(persistence, "_CACHE_BYTES", budget)
            calls[0] = 0
            texts.add(repr(reduce(fc, 3)))
            builds[budget] = calls[0]
        assert len(texts) == 1
        # 44,315 builds without the cache. The default budget saves most of them, and is
        # reached: an unbounded cache saves more.
        assert builds[0] == 44_315, builds
        assert builds[0] > builds[1] > builds[default] > builds[1 << 62], builds


class TestExtended:
    def test_dispatch_matches_branches(self):
        g = parse_graph("a b 1\nb c 2\na c 3")
        pair = extended_pair(g)
        ext = ExtendedPersistence(pair, 1)
        asc = reduce(pair.ascending, 1)
        desc = reduce(pair.descending, 1)
        assert ext.pbn(0, 1.0, 2.5) == asc[0].rank(1.0, 2.5)
        assert ext.pbn(0, 2.5, 1.0) == desc[0].rank(-2.5, -1.0)
        assert ExtendedPersistence(pair, 0).pbn(0, 1.0, 2.5) == ext.pbn(0, 1.0, 2.5)

    def test_diagonal_gives_sublevel_betti(self):
        g = parse_graph("a b 1\nb c 2")
        pair = extended_pair(g)
        ext = ExtendedPersistence(pair, 1)
        fc = pair.ascending
        for u in fc.critical_values():
            sub = SimplicialComplex(s for s, v in fc.value.items() if v <= u)
            assert ext.pbn(0, u, u) == oracle_betti(sub.simplices, 0)[0]

    def test_degree_out_of_range(self):
        pair = extended_pair(parse_graph("a b 1"))
        ext = ExtendedPersistence(pair, 0)
        for r, message in ((-1, "^degree must be an int >= 0, got -1$"), (1, "outside computed range")):
            with pytest.raises(ValueError, match=message):
                ext.pbn(r, 0.0, 1.0)
            with pytest.raises(ValueError, match=message):
                ext.grid(r, [0.0, 1.0])

    def test_queries_refuse_nan_and_non_int_degrees(self):
        ext = ExtendedPersistence.of_graph(parse_graph("a b 1\nb c 2\na c 3"), 1)
        nan = float("nan")
        for query in (
            lambda: ext.pbn(0, nan, 1.0),
            lambda: ext.pbn(0, 1.0, nan),
            lambda: ext.grid(0, [nan, 1.0]),
            lambda: ext.ascending[0].rank(nan, 0.5),
            lambda: ext.ascending[0].rank(0.5, nan),
        ):
            with pytest.raises(ValueError, match="is NaN"):
                query()
        for r in (True, False, 0.0, "0", None):
            with pytest.raises(ValueError, match="degree must be an int"):
                ext.pbn(r, 1.0, 2.0)
            with pytest.raises(ValueError, match="degree must be an int"):
                ext.grid(r, [1.0, 2.0])
        assert ext.pbn(0, 1, 2) == ext.pbn(0, 1.0, 2.0)
        assert ext.grid(1, [1, 3]) == ext.grid(1, [1.0, 3.0])

    def test_grid_matches_pointwise_queries(self):
        # Unsorted coordinates with repeats, both signed zeros and both
        # infinities; each cell against pbn and against the scanning rank.
        rng = random.Random(71)
        for _ in range(30):
            g = random_weighted_graph(rng, min_n=1, max_n=7, p=(0.0, 0.9), weights="int")
            pair = extended_pair(g, 3)
            ext = ExtendedPersistence(pair, 2)
            crit = set(pair.ascending.critical_values())
            crit |= {-v for v in pair.descending.critical_values()}
            coords = sorted(crit) + [c + 0.5 for c in crit] + [0.0, -0.0, INF, -INF]
            coords += rng.sample(coords, 3)
            rng.shuffle(coords)
            for r in range(3):
                grid = ext.grid(r, coords)
                for u, row in zip(coords, grid):
                    for v, value in zip(coords, row):
                        assert value == ext.pbn(r, u, v), (r, u, v)
                        if u > v:
                            assert value == ext.descending[r].rank(-u, -v)
                        else:
                            assert value == ext.ascending[r].rank(u, v)

    def test_lattice_reads_ascending_side_alone(self):
        # The descending side's finite values are the edge weights, negated, once
        # edges are in (cap >= 1): they add no coordinate, not even a signed zero.
        rng = random.Random(15)
        weights = (0.0, -0.0, 1.0, -1.5, 2.0, 3.25, 1e300, -1e300)
        for density in (0.0, 1.0) + tuple(rng.random() for _ in range(28)):
            n = rng.randint(1, 7)
            vs = [f"v{i}" for i in range(n)]
            ws = {e: rng.choice(weights) for e in combinations(vs, 2) if rng.random() < density}
            g = WeightedGraph(vs + ["z"] * rng.randint(0, 1), ws.keys(), ws)  # "z" stays isolated
            for cap in (1, 2, 3):
                pair = extended_pair(g, cap)
                both = pair.ascending.critical_values() + tuple(
                    -v for v in pair.descending.critical_values()
                )
                one = sample_coordinates(pair.ascending.critical_values())
                assert repr(one) == repr(sample_coordinates(both)), (g.weight, cap)

    def test_descending_sees_complement_structure(self):
        # complement edges enter the descending pass at -inf
        g = parse_graph("1 2 1\n2 3 2\n3 4 3\n1 4 4")
        pair = extended_pair(g)
        d0 = reduce(pair.descending, 0)[0]
        assert d0.essential == (EssentialPoint(-INF, 1),)
        assert d0.points == (DiagramPoint(-INF, -4.0, 1),)
