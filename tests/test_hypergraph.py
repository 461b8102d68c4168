"""Hypergraph machinery: matchings, covers, and path hypergraphs."""

from __future__ import annotations

import random

import pytest

from dicuts import (
    CapExceeded,
    DibondClass,
    Digraph,
    Hypergraph,
    dibond_hypergraph,
    exact_max_set_packing,
    fin_parameter_check,
    get_family,
    konig_property,
    max_disjoint_dicuts,
    menger_hypergraph,
    min_dijoin,
    window,
)
from dicuts.cli import _random_digraph

from .oracles import (
    covering_transversal,
    konig_by_matching_enumeration,
    max_disjoint_path_count,
    random_multigraph_edges,
    random_weak_digraph,
)


def diamond():
    return Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


class TestHypergraph:
    def test_from_edges_collects_vertices(self):
        hg = Hypergraph.from_edges([{"a", "b"}, {"b", "c"}])
        assert hg.vertices == frozenset({"a", "b", "c"})
        assert len(hg.hyperedges) == 2

    def test_empty_hyperedges_are_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({"a"}), (frozenset(),))

    def test_hyperedges_must_stay_inside_the_vertices(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({"a"}), (frozenset({"a", "b"}),))


class TestKonigProperty:
    def test_intersecting_pair_has_a_pair(self):
        hg = Hypergraph.from_edges([{"a", "b"}, {"b", "c"}])
        kp = konig_property(hg)
        assert kp is not None
        assert kp.matching == (frozenset({"a", "b"}),)
        assert kp.cover == frozenset({"b"})

    def test_triangle_has_none(self):
        hg = Hypergraph.from_edges([{"a", "b"}, {"b", "c"}, {"c", "a"}])
        assert konig_property(hg) is None

    def test_empty_hypergraph_has_the_trivial_pair(self):
        kp = konig_property(Hypergraph.from_edges([]))
        assert kp is not None
        assert kp.matching == () and kp.cover == frozenset()

    def test_cover_conditions_hold_when_present(self):
        rng = random.Random(71)
        for _ in range(60):
            universe = [f"x{i}" for i in range(rng.randint(2, 6))]
            hyperedges = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, len(universe))
                hyperedges.append(frozenset(rng.sample(universe, size)))
            hg = Hypergraph.from_edges(hyperedges)
            kp = konig_property(hg)
            if kp is None:
                continue
            union = frozenset().union(*kp.matching) if kp.matching else frozenset()
            assert kp.cover <= union
            assert all(len(kp.cover & m) == 1 for m in kp.matching)
            assert all(kp.cover & h for h in hg.hyperedges)

    def test_1200_matching_members_stay_within_the_recursion_limit(self):
        # The matching and transversal searches once recursed once per member.
        kp = konig_property(Hypergraph.from_edges([{i} for i in range(1200)]))
        assert kp is not None and len(kp.matching) == 1200
        assert kp.cover == frozenset(range(1200))


def _same_as_matching_enumeration(hg):
    kp = konig_property(hg)
    want = konig_by_matching_enumeration(hg)
    if want is None:
        assert kp is None
    else:
        assert kp is not None and (kp.matching, kp.cover) == want
    return kp is not None


class TestKonigAgainstMatchingEnumeration:
    """The canonical maximum matching decides as the search over all of them did."""

    def test_seeded_random_hypergraphs(self):
        rng = random.Random(83)
        verdicts = set()
        for _ in range(300):
            universe = [f"x{i}" for i in range(rng.randint(2, 7))]
            hyperedges = []
            for _ in range(rng.randint(1, 7)):
                size = 2 if rng.random() < 0.6 else rng.randint(1, len(universe))
                hyperedges.append(frozenset(rng.sample(universe, size)))
            verdicts.add(_same_as_matching_enumeration(Hypergraph.from_edges(hyperedges)))
        assert verdicts == {True, False}

    def test_1024_maximum_matchings(self):
        hyperedges = []
        for i in range(10):
            hyperedges.append(frozenset({f"x{i}", f"y{i}"}))
            hyperedges.append(frozenset({f"x{i}", f"z{i}"}))
        assert _same_as_matching_enumeration(Hypergraph.from_edges(hyperedges))

    @pytest.mark.parametrize(
        "family, n",
        [("zigzag_d1", n) for n in range(1, 9)] + [("grid_d2", n) for n in range(1, 6)],
    )
    def test_window_dibond_hypergraphs(self, family, n):
        hg = dibond_hypergraph(window(get_family(family), n).digraph)
        assert _same_as_matching_enumeration(hg)


def _same_as_covering_transversal(hg):
    edges = sorted(set(hg.hyperedges), key=lambda h: (len(h), tuple(sorted(h))))
    members = [edges[i] for i in exact_max_set_packing(edges)]
    want = covering_transversal(members, edges)
    kp = konig_property(hg)
    if want is None:
        assert kp is None
    else:
        assert kp is not None and kp.matching == tuple(members) and kp.cover == want
    return kp is not None


class TestKonigCoverAgainstTransversal:
    """The first pick meeting every hyperedge is the earlier transversal search's cover."""

    def test_seeded_random_hypergraphs(self):
        rng = random.Random(97)
        verdicts = set()
        for _ in range(2000):
            universe = [f"x{i}" for i in range(rng.randint(2, 8))]
            hyperedges = []
            for _ in range(rng.randint(0, 8)):
                size = 2 if rng.random() < 0.5 else rng.randint(1, len(universe))
                hyperedges.append(frozenset(rng.sample(universe, size)))
            verdicts.add(_same_as_covering_transversal(Hypergraph.from_edges(hyperedges)))
        assert verdicts == {True, False}

    def test_selftest_dibond_hypergraphs(self):
        # Every digraph that `selftest --seed 0..7` draws, in both of its suites.
        for seed in range(8):
            rng = random.Random(seed)
            for _ in range(65):
                assert _same_as_covering_transversal(dibond_hypergraph(_random_digraph(rng)))

    @pytest.mark.parametrize(
        "family, n",
        [("zigzag_d1", n) for n in range(1, 13)] + [("grid_d2", n) for n in range(1, 8)],
    )
    def test_window_dibond_hypergraphs(self, family, n):
        hg = dibond_hypergraph(window(get_family(family), n).digraph)
        assert _same_as_covering_transversal(hg)


class TestDibondHypergraph:
    def test_diamond_hypergraph_mirrors_the_solver(self):
        d = diamond()
        hg = dibond_hypergraph(d)
        assert hg.vertices == frozenset({0, 1, 2, 3})
        assert sorted(map(sorted, hg.hyperedges)) == [
            [0, 1],
            [0, 3],
            [1, 2],
            [2, 3],
        ]
        kp = konig_property(hg)
        assert kp is not None
        assert len(kp.matching) == 2
        assert len(kp.cover) == len(min_dijoin(d, DibondClass.full(d)))

    def test_mirrors_the_solver_on_random_digraphs(self):
        rng = random.Random(73)
        for _ in range(50):
            d = random_weak_digraph(rng, max_n=6, max_extra=6)
            hg = dibond_hypergraph(d)
            klass = DibondClass.full(d)
            packing = len(max_disjoint_dicuts(d, klass))
            if not hg.hyperedges:
                assert packing == 0
                continue
            kp = konig_property(hg)
            assert kp is not None
            assert len(kp.matching) == packing
            assert len(kp.cover) == len(min_dijoin(d, klass))
            assert fin_parameter_check(hg)


class TestMengerHypergraph:
    def test_two_internally_disjoint_paths_share_their_endpoints(self):
        g = Digraph(["a", "b", "x", "y"], [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b")])
        hg = menger_hypergraph(g, {"a"}, {"b"})
        assert sorted(map(sorted, hg.hyperedges)) == [
            ["a", "b", "x"],
            ["a", "b", "y"],
        ]
        kp = konig_property(hg)
        assert kp is not None
        assert len(kp.matching) == 1 and kp.cover == frozenset({"a"})

    def test_shared_endpoint_gives_a_singleton_path(self):
        g = Digraph(["p", "q"], [("p", "q")])
        hg = menger_hypergraph(g, {"p"}, {"p", "q"})
        assert sorted(map(sorted, hg.hyperedges)) == [["p"], ["p", "q"]]
        kp = konig_property(hg)
        assert kp is not None and len(kp.matching) == 1

    def test_paths_avoid_interior_terminal_vertices(self):
        g = Digraph(
            ["a", "m", "b", "c"],
            [("a", "m"), ("m", "b"), ("b", "c")],
        )
        hg = menger_hypergraph(g, {"a"}, {"b", "c"})
        assert sorted(map(sorted, hg.hyperedges)) == [["a", "b", "m"]]

    def test_the_cap_counts_distinct_vertex_sets(self):
        parallel = Digraph(["a", "b"], [("a", "b"), ("a", "b")])
        assert menger_hypergraph(parallel, {"a"}, {"b"}, cap=1).hyperedges == (
            frozenset({"a", "b"}),
        )
        # Four paths from a to b, two of them on {a, x, y, b}.
        g = Digraph(
            ["a", "b", "x", "y"],
            [("a", "x"), ("x", "y"), ("y", "b"), ("a", "y"), ("x", "b")],
        )
        assert len(menger_hypergraph(g, {"a"}, {"b"}, cap=3).hyperedges) == 3
        with pytest.raises(CapExceeded):
            menger_hypergraph(g, {"a"}, {"b"}, cap=2)
        with pytest.raises(CapExceeded):
            menger_hypergraph(parallel, {"a"}, {"b"}, cap=0)

    def test_edge_directions_are_ignored(self):
        g = Digraph(["a", "b", "x"], [("a", "x"), ("b", "x")])
        assert menger_hypergraph(g, {"a"}, {"b"}).hyperedges == (frozenset({"a", "x", "b"}),)

    def test_long_path_is_one_hyperedge(self):
        # The path search once recursed once per path vertex.
        names = [f"v{i}" for i in range(1201)]
        g = Digraph(names, list(zip(names, names[1:])))
        assert menger_hypergraph(g, {"v0"}, {"v1200"}).hyperedges == (frozenset(names),)

    def test_matches_the_flow_oracle_on_random_graphs(self):
        rng = random.Random(79)
        for _ in range(50):
            vertices, edges = random_multigraph_edges(rng, max_n=7, max_m=9)
            k = rng.randint(1, max(1, len(vertices) // 2))
            a_set = frozenset(rng.sample(vertices, k))
            b_set = frozenset(rng.sample(vertices, k))
            g = Digraph(vertices, edges)
            hg = menger_hypergraph(g, a_set, b_set)
            kp = konig_property(hg)
            flow = max_disjoint_path_count(edges, a_set, b_set)
            if kp is not None:
                assert len(kp.matching) == flow


class TestParameterCheck:
    def test_holds_on_assorted_hypergraphs(self):
        samples = [
            Hypergraph.from_edges([]),
            Hypergraph.from_edges([{"a"}]),
            Hypergraph.from_edges([{"a", "b"}, {"b", "c"}, {"c", "a"}]),
            dibond_hypergraph(diamond()),
        ]
        assert all(fin_parameter_check(hg) for hg in samples)
