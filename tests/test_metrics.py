import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtda import WeightedGraph, bottleneck, dhat, parse_graph, pseudodistance_iso
from graphtda.persistence import PersistenceDiagram
from oracles import oracle_bottleneck, oracle_bottleneck_by_matching, oracle_pseudodistance
from randutil import random_diagram, random_weighted_graph

INF = float("inf")

finite = st.floats(-50, 50, allow_nan=False)


class TestDhat:
    def test_identical(self):
        assert dhat((1, 3), (1, 3)) == 0

    def test_diagonal_term_wins(self):
        assert dhat((1, 3), (10, 10.1)) == 1

    def test_direct_term_wins(self):
        assert dhat((0, 2), (0, 4)) == 2

    @settings(max_examples=100, deadline=None)
    @given(finite, finite, finite, finite)
    def test_symmetric_and_reflexive(self, a, b, c, d):
        p = (min(a, b), max(a, b) + 0.1)
        q = (min(c, d), max(c, d) + 0.1)
        assert dhat(p, q) == dhat(q, p)
        assert dhat(p, p) == 0

    def test_infinite_coordinates(self):
        assert dhat((-INF, 3), (-INF, 5)) == 2
        assert dhat((-INF, 3), (1, 5)) == INF


class TestBottleneck:
    def test_self_distance_zero(self):
        d = PersistenceDiagram(0, [(0, 4), (1, 2)], [0.0])
        assert bottleneck(d, d) == 0

    def test_single_point_to_empty(self):
        d1 = PersistenceDiagram(0, [(1, 3)])
        d2 = PersistenceDiagram(0)
        assert bottleneck(d1, d2) == 1

    def test_two_against_one(self):
        d1 = PersistenceDiagram(0, [(0, 4), (0, 6)])
        d2 = PersistenceDiagram(0, [(0, 5)])
        got = bottleneck(d1, d2)
        assert got == oracle_bottleneck(d1, d2) == 2.0

    def test_essential_mismatch_is_infinite(self):
        d1 = PersistenceDiagram(0, [], [0.0, 1.0])
        d2 = PersistenceDiagram(0, [], [0.0])
        assert bottleneck(d1, d2) == INF

    def test_essential_cost(self):
        d1 = PersistenceDiagram(0, [], [0.0, 5.0])
        d2 = PersistenceDiagram(0, [], [1.0, 5.5])
        assert bottleneck(d1, d2) == 1.0

    def test_essential_sentinel_births_match_free(self):
        d1 = PersistenceDiagram(0, [], [-INF])
        d2 = PersistenceDiagram(0, [], [-INF])
        assert bottleneck(d1, d2) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="degrees"):
            bottleneck(PersistenceDiagram(0), PersistenceDiagram(1))

    def test_multiplicity_expansion(self):
        d1 = PersistenceDiagram(1, [(0.0, 2.0), (0.0, 2.0)])
        d2 = PersistenceDiagram(1, [(0.0, 2.0)])
        got = bottleneck(d1, d2)
        assert got == oracle_bottleneck(d1, d2) == 1.0

    def test_matches_exhaustive_on_random_pairs(self):
        rng = random.Random(41)
        for _ in range(60):
            d1 = random_diagram(rng, max_points=5)
            d2 = random_diagram(rng, max_points=5)
            assert bottleneck(d1, d2) == pytest.approx(oracle_bottleneck(d1, d2), abs=0)

    def test_matches_exhaustive_on_tie_heavy_pairs(self):
        # Integer lattice points tie often at the diagonal-move boundary
        # half-persistence == c. Points born at -inf (as on the extended
        # descending side) or dying at +inf can only be matched among
        # themselves, at any finite cost.
        rng = random.Random(59)

        def lattice_diagram():
            points = []
            for _ in range(rng.randint(0, 5)):
                b, kind = rng.randint(0, 4), rng.random()
                if kind < 0.1:
                    points.append((b, INF))
                elif kind < 0.2:
                    points.append((-INF, b))
                else:
                    points.append((b, b + rng.randint(1, 4)))
            return PersistenceDiagram(1, points, [rng.randint(0, 4)] * rng.randint(0, 1))

        for _ in range(400):
            d1, d2 = lattice_diagram(), lattice_diagram()
            assert bottleneck(d1, d2) == oracle_bottleneck(d1, d2)

    def test_matches_exhaustive_on_decimal_pairs(self):
        # Tenths are not exact in binary, so b + c and b - c round past or
        # short of the points at distance exactly c, which must still count.
        rng = random.Random(67)

        def decimal_diagram():
            points = []
            for _ in range(rng.randint(0, 5)):
                b = rng.randint(0, 30) / 10
                points.append((b, b + rng.randint(1, 30) / 10))
            return PersistenceDiagram(1, points)

        for _ in range(400):
            d1, d2 = decimal_diagram(), decimal_diagram()
            assert bottleneck(d1, d2) == oracle_bottleneck(d1, d2)

    def test_matches_exhaustive_on_skewed_pairs(self):
        # Short bars plus one long bar on either side or both: a point reads
        # distances only as far as its own half-persistence, so a short bar's
        # far partner must be read from the long bar's side. A bar whose
        # half-persistence overflows, only ever in the second diagram, must
        # read its distances to the first diagram's bars.
        rng = random.Random(71)

        def skewed_diagram(long_bar):
            points = []
            for _ in range(rng.randint(0, 4)):
                b = rng.randint(0, 20) / 2
                points.append((b, b + rng.randint(1, 8) / 4))
            return PersistenceDiagram(1, points + ([long_bar] if long_bar else []))

        def long_bar():
            return (rng.randint(0, 4) / 2, rng.choice([40.0, 1000.0]))

        for i in range(480):
            first = long_bar() if i % 4 in (0, 2) else None
            second = long_bar() if i % 4 in (1, 2) else None
            if i % 4 == 3:
                first = long_bar() if rng.random() < 0.5 else None
                second = (rng.choice([-1e308, -1.7e308]), rng.choice([1e308, 1.7e308]))
            d1, d2 = skewed_diagram(first), skewed_diagram(second)
            assert bottleneck(d1, d2) == oracle_bottleneck(d1, d2), (d1, d2)

    def test_overflowing_half_persistence(self):
        # (-1e308, 1e308) has finite coordinates, but its half-persistence
        # overflows to inf, so it cannot retire and must take (0, 1).
        d1 = PersistenceDiagram(1, [(0.0, 1.0)])
        d2 = PersistenceDiagram(1, [(-1e308, 1e308)])
        assert bottleneck(d1, d2) == bottleneck(d2, d1) == oracle_bottleneck(d1, d2) == 1e308

    def test_large_shifted_pair_needs_no_recursion(self):
        # The identity matching at cost 0.25 is optimal: distinct lattice
        # points are 1 > 2 * 0.25 apart and every persistence is at least 1.
        rng = random.Random(61)
        points = set()
        while len(points) < 240:
            b = rng.randrange(0, 200)
            points.add((b, b + rng.randrange(1, 60)))
        d1 = PersistenceDiagram(1, points, [0.0, 5.0])
        d2 = PersistenceDiagram(1, [(b + 0.25, d + 0.25) for b, d in points], [0.0, 5.0])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert bottleneck(d1, d2) == 0.25
        finally:
            sys.setrecursionlimit(limit)

    def test_matches_augmented_matrix_referee_on_larger_pairs(self):
        # 8-40 points a side, past the exhaustive oracle's reach, so the
        # bisection takes many probes and each probe after an infeasible one
        # starts from a kept matching. Three kinds of pair: independent uniform
        # ones, tie-heavy integer lattices with -inf births, +inf deaths and
        # essential classes, and perturbed copies, whose answer is small.
        rng = random.Random(73)

        def uniform_diagram():
            points = []
            for _ in range(rng.randint(8, 40)):
                b = rng.uniform(0.0, 20.0)
                points.append((b, b + rng.uniform(0.1, 8.0)))
            return PersistenceDiagram(1, points)

        def lattice_diagram(infinite):
            # infinite = (points dying at +inf, points born at -inf, essential
            # classes), shared by both sides of a pair so that most answers are
            # finite.
            up, down, essential = infinite
            points = [(rng.randint(0, 12), INF) for _ in range(up)]
            points += [(-INF, rng.randint(0, 12)) for _ in range(down)]
            for _ in range(rng.randint(8, 40) - up - down):
                b = rng.randint(0, 12)
                points.append((b, b + rng.randint(1, 6)))
            return PersistenceDiagram(1, points, [rng.randint(0, 6) for _ in range(essential)])

        def infinite_counts():
            return rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)

        def perturbed(d):
            # Finite points move by up to one unit, and one in ten shrinks to a
            # bar of length 0.5; the others stay.
            points = []
            for p in d.points:
                for _ in range(p.multiplicity):
                    b, e = p.birth, p.death
                    if -INF < b and e < INF:
                        b += rng.choice([0.0, 0.5, 1.0, -1.0])
                        e = b + 0.5 if rng.random() < 0.1 else max(e + rng.choice([0.0, 0.5, -0.5]), b + 0.5)
                    points.append((b, e))
            essential = [e.birth for e in d.essential for _ in range(e.multiplicity)]
            return PersistenceDiagram(1, points, essential)

        pairs = [(uniform_diagram(), uniform_diagram()) for _ in range(80)]
        for _ in range(80):
            counts = infinite_counts()
            pairs.append((lattice_diagram(counts), lattice_diagram(counts)))
        for _ in range(80):
            d = lattice_diagram(infinite_counts()) if rng.random() < 0.5 else uniform_diagram()
            pairs.append((d, perturbed(d)))
        for d1, d2 in pairs:
            expected = oracle_bottleneck_by_matching(d1, d2)
            assert bottleneck(d1, d2) == bottleneck(d2, d1) == expected, (d1, d2)

    def test_metric_axioms_on_random_triples(self):
        rng = random.Random(43)
        for _ in range(25):
            ds = [random_diagram(rng, max_points=4, with_essential=False) for _ in range(3)]
            d01 = bottleneck(ds[0], ds[1])
            d12 = bottleneck(ds[1], ds[2])
            d02 = bottleneck(ds[0], ds[2])
            assert bottleneck(ds[0], ds[0]) == 0
            assert d01 == bottleneck(ds[1], ds[0])
            assert d02 <= d01 + d12 + 1e-12


class TestPseudodistance:
    def test_identity(self):
        g = parse_graph("a b 1\nb c 2")
        assert pseudodistance_iso(g, g) == 0

    def test_k3_relabeling(self):
        g1 = parse_graph("a b 1\nb c 2\na c 3")
        g2 = parse_graph("x y 1\ny z 2\nx z 4")
        assert pseudodistance_iso(g1, g2) == 1
        assert oracle_pseudodistance(g1, g2) == 1

    def test_non_isomorphic(self):
        c4 = parse_graph("1 2 1\n2 3 1\n3 4 1\n1 4 1")
        k4 = parse_graph("1 2 1\n2 3 1\n3 4 1\n1 4 1\n1 3 1\n2 4 1")
        assert pseudodistance_iso(c4, k4) == INF

    def test_matches_exhaustive(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_weighted_graph(rng, min_n=3, max_n=5)
            h = WeightedGraph(
                g.vertices,
                g.edges,
                {e: w + rng.uniform(-1, 1) for e, w in g.weight.items()},
            )
            assert pseudodistance_iso(g, h) == pytest.approx(
                oracle_pseudodistance(g, h), abs=1e-12
            )

    def test_requires_weights(self):
        with pytest.raises(ValueError):
            pseudodistance_iso(WeightedGraph("ab", [("a", "b")]), parse_graph("a b 1"))


class TestStabilitySpotCheck:
    def test_small_perturbation(self):
        from graphtda import filter_clique, filter_enclaveless, filter_neighborhood
        from graphtda.persistence import reduce

        rng = random.Random(53)
        for _ in range(5):
            g = random_weighted_graph(rng, min_n=4, max_n=7)
            eps = 0.1
            h = WeightedGraph(
                g.vertices,
                g.edges,
                {e: w + rng.uniform(-eps, eps) for e, w in g.weight.items()},
            )
            delta = pseudodistance_iso(g, h)
            assert delta <= eps + 1e-12
            for build in (filter_clique, filter_neighborhood, filter_enclaveless):
                da = reduce(build(g), 1)
                db = reduce(build(h), 1)
                for r in (0, 1):
                    assert bottleneck(da[r], db[r]) <= delta + 1e-12
