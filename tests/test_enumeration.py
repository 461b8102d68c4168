"""Condensation and exact dicut / dibond enumeration."""

from __future__ import annotations

import random

import pytest

from dicuts import (
    CapExceeded,
    Digraph,
    condensation,
    dibonds_containing_edge,
    enumerate_dibonds,
    enumerate_dicuts,
    get_family,
    window,
)

from .oracles import brute_dibonds, brute_dicuts, kosaraju_scc, random_weak_digraph


def diamond():
    return Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


class TestCondensation:
    def test_components_match_an_independent_scc_pass(self):
        rng = random.Random(3)
        for _ in range(80):
            d = random_weak_digraph(rng)
            cond = condensation(d)
            ours = {frozenset(ms) for ms in cond.component_members.values()}
            assert ours == set(kosaraju_scc(d))

    def test_component_labels_and_dag_edges(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        cond = condensation(d)
        assert cond.scc_of == {"a": "a", "b": "a", "c": "c"}
        assert cond.dag_edges == frozenset({("a", "c")})
        assert cond.components == ["a", "c"]

    def test_strongly_connected_collapses_to_one_component(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a")])
        assert len(condensation(d).components) == 1


class TestEnumerateDicuts:
    def test_diamond_has_four_dicuts(self):
        shores = [c.in_shore for c in enumerate_dicuts(diamond())]
        assert shores == [
            frozenset({"t"}),
            frozenset({"a", "t"}),
            frozenset({"b", "t"}),
            frozenset({"a", "b", "t"}),
        ]

    def test_path_has_two_dicuts(self):
        d = Digraph.from_edges([("a", "b"), ("b", "c")])
        assert {c.in_shore for c in enumerate_dicuts(d)} == {
            frozenset({"c"}),
            frozenset({"b", "c"}),
        }

    def test_strongly_connected_digraph_has_none(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a")])
        assert enumerate_dicuts(d) == []
        assert enumerate_dibonds(d) == []

    def test_matches_brute_force_on_random_digraphs(self):
        rng = random.Random(5)
        for _ in range(120):
            d = random_weak_digraph(rng)
            fast = {c.in_shore for c in enumerate_dicuts(d)}
            assert fast == {c.in_shore for c in brute_dicuts(d)}

    def test_dicuts_of_a_disconnected_digraph_are_nonempty(self):
        d = Digraph.from_edges([("a", "b"), ("c", "d")])
        cuts = enumerate_dicuts(d, cap=5)
        assert len(cuts) == 5
        assert all(c.edge_set for c in cuts)
        with pytest.raises(CapExceeded):
            enumerate_dicuts(d, cap=4)

    def test_matches_nonempty_brute_force_on_disconnected_digraphs(self):
        rng = random.Random(9)
        for _ in range(80):
            left, right = random_weak_digraph(rng, max_n=4), random_weak_digraph(rng, max_n=4)
            edges = list(left.edges) + [(f"w{t}", f"w{h}") for t, h in right.edges]
            d = Digraph.from_edges(edges, isolated=["z"] * rng.randint(0, 1))
            fast = [c.in_shore for c in enumerate_dicuts(d)]
            assert len(fast) == len(set(fast))
            assert set(fast) == {c.in_shore for c in brute_dicuts(d) if c.edge_set}

    def test_ordering_is_by_size_then_shore(self):
        d = diamond()
        sizes = [len(c.in_shore) for c in enumerate_dicuts(d)]
        assert sizes == sorted(sizes)

    def test_cap_is_enforced(self):
        star = Digraph.from_edges([("r", f"x{i}") for i in range(6)])
        assert len(enumerate_dicuts(star)) == 63
        with pytest.raises(CapExceeded) as info:
            enumerate_dicuts(star, cap=10)
        assert info.value.cap == 10

    def test_long_path_stays_within_the_recursion_limit(self):
        path = Digraph.from_edges([(i, i + 1) for i in range(1200)])
        assert len(enumerate_dicuts(path)) == 1200
        assert len(enumerate_dibonds(path)) == 1200


class TestEnumerateDibonds:
    def test_matches_brute_force_on_random_digraphs(self):
        rng = random.Random(6)
        for _ in range(120):
            d = random_weak_digraph(rng)
            fast = {c.in_shore for c in enumerate_dibonds(d)}
            assert fast == {c.in_shore for c in brute_dibonds(d)}
            assert all(c.is_dibond for c in enumerate_dibonds(d))

    def test_two_source_junction(self):
        d = Digraph.from_edges([("x", "z"), ("y", "z")])
        dicut_shores = {c.in_shore for c in enumerate_dicuts(d)}
        dibond_shores = {c.in_shore for c in enumerate_dibonds(d)}
        assert frozenset({"z"}) in dicut_shores
        assert frozenset({"z"}) not in dibond_shores
        assert dibond_shores == {frozenset({"x", "z"}), frozenset({"y", "z"})}

    def test_dibonds_containing_edge(self):
        d = diamond()
        hits = dibonds_containing_edge(d, 0)
        assert [c.edge_set for c in hits] == [
            frozenset({0, 3}),
            frozenset({0, 1}),
        ]

    def test_matches_the_dicut_filter_on_digraphs_with_strong_components(self):
        rng = random.Random(8)
        checked = 0
        while checked < 150:
            d = random_weak_digraph(rng, max_n=9, max_extra=10)
            comps = condensation(d).component_members.values()
            if len(comps) == 1 or all(len(ms) == 1 for ms in comps):
                continue
            checked += 1
            want = {c.in_shore for c in enumerate_dicuts(d) if c.is_dibond}
            assert {c.in_shore for c in enumerate_dibonds(d)} == want

    @pytest.mark.parametrize(
        "family,n",
        [("grid_d2", n) for n in range(1, 7)] + [("zigzag_d1", n) for n in range(1, 11)],
    )
    def test_matches_the_dicut_filter_on_family_windows(self, family, n):
        d = window(get_family(family), n).digraph
        want = [c.in_shore for c in enumerate_dicuts(d) if c.is_dibond]
        assert [c.in_shore for c in enumerate_dibonds(d)] == want

    def test_grid_window_10_dibond_count(self):
        assert len(enumerate_dibonds(window(get_family("grid_d2"), 10).digraph)) == 3059
