"""Condensation and exact dicut / dibond enumeration."""

from __future__ import annotations

import random

import pytest

from dicuts import (
    CapExceeded,
    DibondClass,
    Dicut,
    Digraph,
    PreconditionViolated,
    condensation,
    dibond_growth,
    dibonds_containing_edge,
    enumerate_dibonds,
    enumerate_dicuts,
    get_family,
    window,
)
from dicuts import enumeration
from dicuts.core import bit_positions

from .oracles import (
    brute_dibonds,
    brute_dicuts,
    closures_by_post_order,
    condensation_by_dicts,
    dibond_masks_by_rescan,
    dibonds_containing_edge_by_filter,
    disconnected_digraphs,
    kosaraju_scc,
    random_weak_digraph,
    walk_tables_by_reindexing,
)


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
        for d in disconnected_digraphs():
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

    def test_disconnected_digraphs_are_refused(self):
        two_cycle_and_isolated = Digraph.from_edges([("a", "b"), ("b", "a")], isolated=["c"])
        assert len(condensation(two_cycle_and_isolated).components) == 2
        assert not condensation(two_cycle_and_isolated).dag_edges
        for d in [two_cycle_and_isolated, *disconnected_digraphs()]:
            with pytest.raises(PreconditionViolated, match="weakly connected"):
                enumerate_dibonds(d)
            with pytest.raises(PreconditionViolated, match="weakly connected"):
                dibonds_containing_edge(d, 0)

    def test_a_single_vertex_and_the_empty_digraph_have_no_dibonds(self):
        for d in (Digraph(["a"], []), Digraph([], [])):
            assert enumerate_dibonds(d) == []
            assert enumerate_dicuts(d) == []


def _shore_order(y):
    return (len(y), tuple(sorted(y)))


def _class_order_with_shores(d):
    return (len(d.edge_set), tuple(sorted(d.edge_set)), tuple(sorted(d.in_shore)))


def _relabelled(d, name):
    """The digraph with each vertex `v<i>` renamed to name(i)."""
    rename = {v: name(int(v[1:])) for v in d.vertices}
    return Digraph.from_edges((rename[t], rename[h]) for t, h in d.edges)


def _mask_test_digraphs(zigzag_max=12):
    rng = random.Random(12)
    for k in range(90):
        d = random_weak_digraph(rng, max_n=9, max_extra=10)
        if k % 3 == 1:
            d = _relabelled(d, lambda i: i)
        elif k % 3 == 2:
            d = _relabelled(d, lambda i: (i % 2, -i))
        yield d
    for n in range(1, 8):
        yield window(get_family("grid_d2"), n).digraph
    for n in range(1, zigzag_max + 1):
        yield window(get_family("zigzag_d1"), n).digraph


class TestMaskBuiltMembers:
    """The walks build each member from masks; a Dicut built from its
    shore alone must agree with it, in the old shore order."""

    @staticmethod
    def assert_like_fresh_dicuts(d, members):
        shores = [m.in_shore for m in members]
        assert shores == sorted(shores, key=_shore_order)
        assert len(set(shores)) == len(shores)
        for m in members:
            fresh = Dicut(d, m.in_shore)
            assert m.digraph is d
            assert m.edge_set == fresh.edge_set
            assert m.is_dibond == fresh.is_dibond

    def test_dibonds_match_fresh_dicuts(self):
        seen_parallel = seen_strong = seen_int = seen_tuple = False
        for d in _mask_test_digraphs():
            seen_parallel |= len(set(d.edges)) < d.m
            seen_strong |= any(len(ms) > 1 for ms in condensation(d).component_members.values())
            seen_int |= all(isinstance(v, int) for v in d.vertices)
            seen_tuple |= all(isinstance(v, tuple) for v in d.vertices)
            bonds = enumerate_dibonds(d)
            assert all(b.is_dibond for b in bonds)
            self.assert_like_fresh_dicuts(d, bonds)
        assert seen_parallel and seen_strong and seen_int and seen_tuple

    def test_dicuts_match_fresh_dicuts(self):
        # zigzag_d1 n=10 has 17,710 dicuts; n=12 has 121,392.
        for d in _mask_test_digraphs(zigzag_max=10):
            self.assert_like_fresh_dicuts(d, enumerate_dicuts(d))

    def test_class_order_never_needs_the_shores(self):
        for d in _mask_test_digraphs():
            bonds = enumerate_dibonds(d)
            assert DibondClass.full(d).members == tuple(
                sorted(bonds, key=_class_order_with_shores)
            )
            assert len({b.edge_set for b in bonds}) == len(bonds)

    def test_long_path_members_match_fresh_dicuts(self):
        path = Digraph.from_edges([(i, i + 1) for i in range(1200)])
        bonds = enumerate_dibonds(path)
        assert [b.in_shore for b in bonds] == [
            frozenset(range(i, 1201)) for i in range(1200, 0, -1)
        ]
        assert [b.edge_set for b in bonds] == [frozenset({i - 1}) for i in range(1200, 0, -1)]
        assert enumerate_dicuts(path) == bonds
        for b in bonds[::97]:
            assert b.is_dibond and Dicut(path, b.in_shore).is_dibond

    def test_the_mask_dicut_check_is_not_skipped(self, monkeypatch):
        # The masks gain an edge t->s that the digraph lacks; it leaves
        # every in shore of the diamond, which holds t but not s.
        walk_tables = enumeration._walk_tables

        def with_phantom_edge(digraph):
            succ, pred, verts, tails, heads, completed = walk_tables(digraph)

            def comp(v):
                return next(i for i, m in enumerate(verts) if m >> digraph.vertex_bit[v] & 1)

            tails[comp("t")] |= 1 << digraph.m
            heads[comp("s")] |= 1 << digraph.m
            return succ, pred, verts, tails, heads, completed

        monkeypatch.setattr(enumeration, "_walk_tables", with_phantom_edge)
        for enumerate_cuts in (enumerate_dicuts, enumerate_dibonds):
            with pytest.raises(RuntimeError, match="leaves an enumerated in shore"):
                enumerate_cuts(diamond())


def _edge_query_digraphs(windows=(("grid_d2", 7), ("zigzag_d1", 12), ("ladder", 8))):
    """Seeded digraphs with strong components and parallel edges, one in
    three with an isolated vertex; the grid_d2, zigzag_d1 and ladder
    windows up to the given indices; the digraphs on zero and one vertex."""
    rng = random.Random(18)
    made = 0
    while made < 300:
        d = random_weak_digraph(rng, max_n=9, max_extra=10)
        comps = condensation(d).component_members.values()
        if len(comps) == 1 or all(len(ms) == 1 for ms in comps):
            continue
        yield Digraph.from_edges(d.edges, isolated=["z"] * (made % 3 == 2))
        made += 1
    for name, n_max in windows:
        for n in range(1, n_max + 1):
            yield window(get_family(name), n).digraph
    yield Digraph((), ())
    yield Digraph(("x",), ())


class TestDibondsContainingEdge:
    """The walk from the edge's own root against the earlier filter over
    every dibond, `oracles.dibonds_containing_edge_by_filter`."""

    def test_equals_the_filter_for_every_edge(self):
        queries = refused = hits = parallel = 0
        for d in _edge_query_digraphs():
            parallel += len(set(d.edges)) < d.m
            for e in d.edge_ids():
                queries += 1
                try:
                    want = dibonds_containing_edge_by_filter(d, e)
                except PreconditionViolated:
                    with pytest.raises(PreconditionViolated, match="weakly connected"):
                        dibonds_containing_edge(d, e)
                    refused += 1
                    continue
                assert dibonds_containing_edge(d, e) == want
                hits += len(want)
        assert queries > 4000 and refused > 1000 and hits > 9000 and parallel > 150

    def test_an_edge_inside_a_strong_component_is_in_no_dibond(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])
        assert dibonds_containing_edge(d, 0) == dibonds_containing_edge(d, 1) == []
        assert [b.edge_set for b in dibonds_containing_edge(d, 2)] == [frozenset({2})]
        ladder = window(get_family("ladder"), 5).digraph
        assert all(dibonds_containing_edge(ladder, e) == [] for e in ladder.edge_ids())

    def test_an_unknown_edge_id_is_refused_before_the_walk(self):
        for d in disconnected_digraphs(count=10):
            with pytest.raises(PreconditionViolated, match="weakly connected"):
                dibonds_containing_edge(d, 0)
            for e in (-1, d.m, 1.0, 1.5, "1", None):
                with pytest.raises(ValueError, match="unknown edge id"):
                    dibonds_containing_edge(d, e)
        with pytest.raises(ValueError, match="unknown edge id"):
            dibonds_containing_edge(Digraph((), ()), 0)

    def test_an_id_that_is_no_int_is_refused(self):
        # 1.0 once passed the range check and failed deep in the walk with
        # TypeError, as did "1" and None in the range check itself.
        for bad in (1.0, 1.5, "1", None):
            with pytest.raises(ValueError, match="^unknown edge id "):
                dibonds_containing_edge(diamond(), bad)

    def test_cap_counts_the_dibonds_through_the_edge(self):
        d = window(get_family("zigzag_d1"), 8).digraph
        total = len(enumerate_dibonds(d))
        counts = [len(dibonds_containing_edge(d, e)) for e in d.edge_ids()]
        rare = counts.index(min(c for c in counts if c))
        assert counts[rare] < total // 4
        for e in (0, rare):
            assert len(dibonds_containing_edge(d, e, cap=counts[e])) == counts[e]
            with pytest.raises(CapExceeded):
                dibonds_containing_edge(d, e, cap=counts[e] - 1)
        # The filter's cap counted every dibond of the window.
        with pytest.raises(CapExceeded):
            dibonds_containing_edge_by_filter(d, rare, cap=counts[rare])
        assert dibonds_containing_edge(d, counts.index(0), cap=0) == []

    def test_grid_growth_to_window_12(self):
        # The filter walks all 337,760 dibonds of window 11 (seconds) and
        # passes the default cap at window 12; the edge walk takes a few ms.
        spec = get_family("grid_d2")
        counts = dibond_growth(spec, "(1,0)->(2,0)", 12)
        assert counts == (0, 1, 1, 2, 2, 4, 4, 8, 8, 16, 57, 210)
        for n in range(1, 11):
            w = window(spec, n)
            e = w.name_to_edge.get("(1,0)->(2,0)")
            want = 0 if e is None else len(dibonds_containing_edge_by_filter(w.digraph, e))
            assert counts[n - 1] == want

    def test_growth_counts_equal_the_per_window_filter(self):
        spec = get_family("zigzag_d1")
        want = []
        for n in range(1, 13):
            w = window(spec, n)
            e = w.name_to_edge.get("a0->b1")
            want.append(
                0 if e is None else sum(e in b.edge_set for b in enumerate_dibonds(w.digraph))
            )
        assert dibond_growth(spec, "a0->b1", 12) == tuple(want)
        assert any(want)


class TestClosures:
    def test_matches_a_plain_search_on_random_dags(self):
        rng = random.Random(31)
        for _ in range(300):
            # A DAG on k components whose topological order is a random
            # permutation of the indices, not the index order.
            k = rng.randint(1, 12)
            rank = rng.sample(range(k), k)
            p = rng.random()
            step = [
                sum(1 << j for j in range(k) if rank[i] < rank[j] and rng.random() < p)
                for i in range(k)
            ]
            tables = tuple([rng.getrandbits(16) for _ in range(k)] for _ in range(rng.randint(0, 3)))
            # Every step neighbour of a component precedes it in this order.
            order = sorted(range(k), key=rank.__getitem__, reverse=True)
            got = enumeration._closures(step, tables, order)
            for i in range(k):
                seen, queue = {i}, [i]
                while queue:
                    u = queue.pop()
                    for j in range(k):
                        if step[u] >> j & 1 and j not in seen:
                            seen.add(j)
                            queue.append(j)
                want = [sum(1 << j for j in seen)]
                for table in tables:
                    acc = 0
                    for j in seen:
                        acc |= table[j]
                    want.append(acc)
                assert got[i] == tuple(want)


_SETUP_WINDOWS = (("grid_d2", 9), ("zigzag_d1", 60), ("ladder", 10))


class TestSetupAgreesWithTheEarlierOne:
    """condensation, _walk_tables and _closures, from one Tarjan walk over
    vertex bits, against the earlier ones kept in the oracles: the Tarjan
    walk over vertex dicts, the re-indexing of its components and the
    post-order closures."""

    def test_condensation_field_for_field(self):
        for d in _edge_query_digraphs(_SETUP_WINDOWS):
            got, want = condensation(d), condensation_by_dicts(d)
            assert got.digraph is d
            assert got.scc_of == want.scc_of
            assert got.dag_edges == want.dag_edges
            # The same walk completes the components in the same order.
            assert list(got.component_members.items()) == list(want.component_members.items())
            assert got.components == want.components

    def test_walk_tables_and_closures(self):
        walked = 0
        for d in _edge_query_digraphs(_SETUP_WINDOWS):
            got, want = enumeration._walk_tables(d), walk_tables_by_reindexing(d)
            if want is None:
                assert got is None
                continue
            walked += 1
            *tables, completed = got
            succ, pred, und, verts, tails, heads = want
            # und is the dibond walk's own OR of succ and pred.
            assert tables == [succ, pred, verts, tails, heads]
            # completed lists the indices in the order the walk completed
            # them, which the earlier condensation kept as its dict order.
            members = condensation_by_dicts(d).component_members
            index = {c: i for i, c in enumerate(sorted(members))}
            assert completed == [index[c] for c in members]
            position = {c: p for p, c in enumerate(completed)}
            assert all(position[j] < position[i] for i in range(len(succ)) for j in bit_positions(succ[i]))
            assert enumeration._closures(succ, (verts, tails, heads), completed) == (
                closures_by_post_order(succ, (verts, tails, heads))
            )
            assert enumeration._closures(pred, (und, verts, tails, heads), reversed(completed)) == (
                closures_by_post_order(pred, (und, verts, tails, heads))
            )
        assert walked > 300


def _ladder_with_one_rail(n):
    """The ladder window n with its w rail reversed, so that both rails run
    the same way: a DAG of two paths joined by rungs."""
    d = window(get_family("ladder"), n).digraph
    return Digraph.from_edges(
        (t, h) if "u" in t[:1] + h[:1] else (h, t) for t, h in d.edges
    )


class TestOneNeighbourShortcut:
    """A set whose removed closure has one neighbour in its parent's reach
    takes the rest of that reach with no search."""

    @staticmethod
    def searches(monkeypatch, d):
        """(boundary searches, boundaries computed) in the walk of d, and its list."""
        counts = {"searches": 0, "boundaries": 0}
        reach_within, neighbours = enumeration._reach_within, enumeration._neighbours

        def counting_reach(nbrs, subset, start, stop):
            counts["searches"] += stop != subset
            return reach_within(nbrs, subset, start, stop)

        def counting_neighbours(nbrs, mask):
            counts["boundaries"] += 1
            return neighbours(nbrs, mask)

        monkeypatch.setattr(enumeration, "_reach_within", counting_reach)
        monkeypatch.setattr(enumeration, "_neighbours", counting_neighbours)
        found = enumeration._dibond_masks(d, 10**6)
        return counts["searches"], counts["boundaries"], found

    def test_a_path_searches_no_boundary(self, monkeypatch):
        path = Digraph.from_edges([(i, i + 1) for i in range(1200)])
        searches, boundaries, found = self.searches(monkeypatch, path)
        assert (searches, boundaries) == (0, 1199)
        assert found == dibond_masks_by_rescan(path)

    def test_a_ladder_searches_only_where_two_neighbours_remain(self, monkeypatch):
        d = _ladder_with_one_rail(8)
        searches, boundaries, found = self.searches(monkeypatch, d)
        assert 0 < searches < boundaries
        assert found == dibond_masks_by_rescan(d)


class TestCarriedReach:
    """The walk finds each set's reach from its parent's; the walk that
    searches the whole complement at every set must give the same list."""

    def test_random_digraphs_with_strong_components(self):
        rng = random.Random(9)
        checked = 0
        while checked < 320:
            d = random_weak_digraph(rng, max_n=12, max_extra=14)
            comps = condensation(d).component_members.values()
            if len(comps) == 1 or all(len(ms) == 1 for ms in comps):
                continue
            checked += 1
            assert enumeration._dibond_masks(d, 10**6) == dibond_masks_by_rescan(d)

    @pytest.mark.parametrize(
        "family,n",
        [("grid_d2", n) for n in range(1, 10)] + [("zigzag_d1", n) for n in range(1, 61)],
    )
    def test_family_windows(self, family, n):
        d = window(get_family(family), n).digraph
        assert enumeration._dibond_masks(d, 10**6) == dibond_masks_by_rescan(d)

    def test_long_path(self):
        path = Digraph.from_edges([(i, i + 1) for i in range(1200)])
        assert enumeration._dibond_masks(path, 10**6) == dibond_masks_by_rescan(path)

    def test_edge_on_the_6000_vertex_path(self):
        # Rescanning the complement at every set makes this quadratic.
        path = Digraph.from_edges([(i, i + 1) for i in range(6000)])
        (bond,) = dibonds_containing_edge(path, 0)
        assert bond.in_shore == frozenset(range(1, 6001))
        assert bond.edge_set == frozenset({0})
