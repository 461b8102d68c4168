"""Digraph, Dicut, nestedness, corner operations, decomposition, weak components."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from dicuts import (
    Dicut,
    Digraph,
    PreconditionViolated,
    contract_to,
    crossing,
    decompose_dicut,
    dibonds_containing_edge,
    dicut_from_edge_set,
    dicut_from_shore,
    enumerate_dibonds,
    enumerate_dicuts,
    get_family,
    is_weakly_connected,
    join,
    meet,
    nested,
    window,
)

from dicuts.core import _cut_masks, bit_positions

from .oracles import (
    brute_dicuts,
    component_labels,
    cut_masks_by_edges,
    decompose_by_labels,
    dibond_by_labels,
    dicut_from_edge_set_by_labels,
    disconnected_digraphs,
    nested_by_shores,
    random_weak_digraph,
    weakly_connected_by_labels,
)


def parallel_and_isolated_digraphs(count=300):
    """Seeded weak digraphs with parallel edges, two in three with isolated vertices."""
    rng = random.Random(11)
    for i in range(count):
        d = random_weak_digraph(rng, max_n=6, max_extra=6)
        yield Digraph.from_edges(d.edges, isolated=[f"z{j}" for j in range(i % 3)])


def path3():
    return Digraph.from_edges([("a", "b"), ("b", "c")])


def diamond():
    return Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


def square():
    """Sources a and c, sinks b and d, each source into each sink."""
    return Digraph.from_edges([("a", "b"), ("c", "b"), ("c", "d"), ("a", "d")])


class TestDigraph:
    def test_vertices_inferred_from_edges(self):
        d = path3()
        assert d.vertices == frozenset({"a", "b", "c"})
        assert d.n == 3 and d.m == 2

    def test_isolated_vertices_are_kept(self):
        d = Digraph.from_edges([("a", "b")], isolated=("z",))
        assert "z" in d.vertices
        assert d.n == 3

    def test_loops_are_rejected(self):
        with pytest.raises(ValueError):
            Digraph.from_edges([("a", "a")])

    def test_undeclared_endpoints_are_rejected(self):
        with pytest.raises(ValueError):
            Digraph({"a"}, [("a", "b")])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([("a", "b"), ("x", "x")], "edge 1 is a loop at 'x'"),
            ([("x", "y")], "edge 0 has undeclared tail 'x'"),
            ([("a", "y")], "edge 0 has undeclared head 'y'"),
        ],
    )
    def test_edge_errors_name_loop_then_tail_then_head(self, edges, message):
        with pytest.raises(ValueError) as exc:
            Digraph({"a", "b"}, edges)
        assert str(exc.value) == message

    def test_parallel_edges_get_distinct_ids(self):
        d = Digraph.from_edges([("a", "b"), ("a", "b")])
        assert d.m == 2
        assert d.tail(0) == d.tail(1) == "a"
        assert d.head(0) == d.head(1) == "b"

    def test_adjacency_views(self):
        d = diamond()
        assert {v for v, _ in d.und_neighbors("a")} == {"s", "t"}
        bit = d.vertex_bit
        assert d.neighbour_masks[bit["a"]] == 1 << bit["s"] | 1 << bit["t"]

    def test_undirected_adjacency_is_built_on_first_read(self):
        d = diamond()
        assert d.neighbour_masks and d.end_masks and d._und is None
        assert d.und_neighbors("s") == (("a", 0), ("b", 1))
        assert d._und is not None

    def test_adjacency_matches_a_rebuild_from_the_edges(self):
        for d in parallel_and_isolated_digraphs():
            edges = list(enumerate(d.edges))
            for v in d.vertices:
                assert d.und_neighbors(v) == tuple(
                    (h if t == v else t, e) for e, (t, h) in edges if v in (t, h)
                )
                neighbours = {w for w, _e in d.und_neighbors(v)}
                assert d.neighbour_masks[d.vertex_bit[v]] == sum(
                    1 << d.vertex_bit[w] for w in neighbours
                )

    def test_vertex_order_is_descending_and_bits_index_it(self):
        for d in parallel_and_isolated_digraphs():
            assert d.vertex_order == tuple(sorted(d.vertices, reverse=True))
            assert {v: d.vertex_order[j] for v, j in d.vertex_bit.items()} == {
                v: v for v in d.vertices
            }

    def test_unsortable_vertex_ids_are_refused_at_construction(self):
        # Vertex masks number the vertices in sorted order, so the digraph
        # sorts them when it is built; ids that cannot be compared fail
        # there, not at the first enumeration.
        with pytest.raises(TypeError, match="vertex ids must be mutually sortable"):
            Digraph.from_edges([(1, "a")])

    def test_equality_and_hash(self):
        assert path3() == path3()
        assert hash(path3()) == hash(path3())
        assert path3() != diamond()


class TestDicut:
    def test_edge_set_is_the_entering_edges(self):
        d = diamond()
        cut = Dicut(d, {"a", "t"})
        assert cut.edge_set == frozenset({0, 3})
        assert cut.out_shore == frozenset({"s", "b"})
        assert cut.is_dibond

    def test_leaving_edge_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            Dicut(diamond(), {"a"})
        assert str(exc.value) == "edge 2 leaves the in shore; not a dicut"

    def test_edge_set_matches_the_entering_edges_of_every_derived_dicut(self):
        def entering(cut):
            y = cut.in_shore
            edges = enumerate(cut.digraph.edges)
            return frozenset(e for e, (t, h) in edges if h in y and t not in y)

        checked = 0
        for d in parallel_and_isolated_digraphs():
            cuts = brute_dicuts(d)
            derived = list(cuts)
            for c1, c2 in combinations(cuts, 2):
                derived += [meet(c1, c2), join(c1, c2)]
            if is_weakly_connected(d):
                derived += enumerate_dicuts(d)
                for cut in cuts:
                    derived += decompose_dicut(cut)
            for cut in derived:
                assert cut.edge_set == entering(cut)
            checked += len(derived)
        assert checked > 3000

    def test_degenerate_shores_are_empty_dicuts(self):
        d = path3()
        assert Dicut(d, frozenset()).is_empty
        assert Dicut(d, d.vertices).is_empty
        assert not Dicut(d, d.vertices).is_dibond

    def test_disconnected_out_shore_is_not_a_dibond(self):
        d = Digraph.from_edges([("x", "z"), ("y", "z")])
        cut = Dicut(d, {"z"})
        assert cut.edge_set == frozenset({0, 1})
        assert not cut.is_dibond

    def test_dicut_from_shore_returns_none_instead_of_raising(self):
        d = diamond()
        assert dicut_from_shore(d, {"a"}) is None
        assert dicut_from_shore(d, {"t"}) is not None
        with pytest.raises(ValueError):
            dicut_from_shore(d, set())

    def test_dicut_from_edge_set_roundtrip(self):
        d = diamond()
        for shore in ({"t"}, {"a", "t"}, {"b", "t"}, {"a", "b", "t"}):
            cut = Dicut(d, shore)
            back = dicut_from_edge_set(d, cut.edge_set)
            assert back is not None and back.in_shore == cut.in_shore

    def test_dicut_from_edge_set_rejects_non_dicuts(self):
        d = diamond()
        assert dicut_from_edge_set(d, {0}) is None
        assert dicut_from_edge_set(d, {0, 2}) is None
        assert dicut_from_edge_set(d, ()) is None
        with pytest.raises(ValueError):
            dicut_from_edge_set(d, {99})

    @pytest.mark.parametrize("bad", [1.5, "1", None, 1.0])
    def test_dicut_from_edge_set_refuses_an_id_that_is_no_int(self, bad):
        # 1.5 was dropped and the rest answered for; "1" and None failed
        # the range comparison with TypeError.
        with pytest.raises(ValueError, match="^edge set contains unknown edge ids$"):
            dicut_from_edge_set(diamond(), {0, 3, bad})


class TestCutMasks:
    """The cut check ORs the end masks over the smaller shore; the earlier
    pass over every edge, `oracles.cut_masks_by_edges`, is the reference."""

    def test_end_masks_fill_the_slot_set_in_init(self):
        d = diamond()
        names = set(vars(d))
        ends = d.end_masks
        assert set(vars(d)) == names and d.end_masks is ends
        # vertex_order is t, s, b, a; edges s->a, s->b, a->t, b->t.
        assert ends == [(0b0000, 0b1100), (0b0011, 0b0000), (0b1000, 0b0010), (0b0100, 0b0001)]

    def test_every_shore_of_the_seeded_digraphs(self):
        rng = random.Random(23)
        seeded = [random_weak_digraph(rng, max_n=8, max_extra=10) for _ in range(60)]
        digraphs = [
            *mask_search_corpus(),
            *(Digraph.from_edges(d.edges, isolated=["z"] * (i % 2)) for i, d in enumerate(seeded)),
        ]
        checked = 0
        for d in digraphs:
            for shore in range(1 << d.n):
                assert _cut_masks(d, shore) == cut_masks_by_edges(d, shore)
            checked += 1 << d.n
        assert max(d.n for d in digraphs) == 9 and checked > 20000

    @pytest.mark.parametrize("name, nmax", [("grid_d2", 8), ("zigzag_d1", 40), ("ladder", 12)])
    def test_random_shores_of_the_family_windows(self, name, nmax):
        rng = random.Random(name)
        for n in range(1, nmax + 1):
            d = window(get_family(name), n).digraph
            full = (1 << d.n) - 1
            for shore in [0, full, *(rng.getrandbits(d.n) for _ in range(60))]:
                assert _cut_masks(d, shore) == cut_masks_by_edges(d, shore)

    def test_random_shores_of_larger_seeded_digraphs(self):
        rng = random.Random(29)
        for _ in range(40):
            d = random_weak_digraph(rng, max_n=30, max_extra=40)
            for _ in range(40):
                shore = rng.getrandbits(d.n)
                assert _cut_masks(d, shore) == cut_masks_by_edges(d, shore)


def dicuts_made_every_way(d, rng):
    """Dicuts of d from every constructor and operation that makes one.

    Small digraphs take every dicut shore by brute force; larger ones (at
    least 12 vertices) take the shores of their dibonds.
    """
    connected = is_weakly_connected(d)
    cuts = brute_dicuts(d) if d.n < 12 else enumerate_dibonds(d)
    yield from cuts
    for cut in cuts:
        yield Dicut(d, cut.in_shore)
        yield dicut_from_shore(d, cut.in_shore)
        if connected and cut.edge_mask:
            yield dicut_from_edge_set(d, bit_positions(cut.edge_mask))
    sample = list(combinations(cuts, 2))
    for c1, c2 in rng.sample(sample, min(len(sample), 60)):
        for corner in (meet(c1, c2), join(c1, c2)):
            yield corner
            if connected and corner.edge_mask:
                yield from decompose_dicut(corner)
    if connected:
        yield from enumerate_dicuts(d) if d.n < 12 else ()
        yield from enumerate_dibonds(d)
        for e in d.edge_ids():
            yield from dibonds_containing_edge(d, e)
        kept = [e for e in d.edge_ids() if rng.random() < 0.5]
        quotient = contract_to(d, kept).quotient
        yield from enumerate_dicuts(quotient)
        yield from enumerate_dibonds(quotient)


class TestEdgeMask:
    """A dicut's edge mask is its edge set, bit e for edge e, however the dicut was made."""

    def check(self, digraphs, rng):
        checked = 0
        for d in digraphs:
            for cut in dicuts_made_every_way(d, rng):
                y = cut.in_shore
                edges = enumerate(cut.digraph.edges)
                entering = [e for e, (t, h) in edges if h in y and t not in y]
                # The mask is read before the edge set is first derived from it.
                assert cut.edge_mask == sum(1 << e for e in entering)
                assert cut.edge_mask == sum(1 << e for e in cut.edge_set)
                checked += 1
        return checked

    def test_seeded_digraphs_with_parallel_edges(self):
        assert self.check(parallel_and_isolated_digraphs(), random.Random(5)) > 10000

    @pytest.mark.parametrize(
        "name, nmax", [("grid_d2", 7), ("zigzag_d1", 12)]
    )
    def test_family_windows(self, name, nmax):
        spec = get_family(name)
        windows = (window(spec, n).digraph for n in range(1, nmax + 1))
        assert self.check(windows, random.Random(name)) > 1000


class TestShoreMask:
    """A dicut's shore mask is its in shore, bit j for the j-th largest
    vertex, however the dicut was made."""

    def check(self, digraphs, rng):
        checked = 0
        for d in digraphs:
            for cut in dicuts_made_every_way(d, rng):
                # The mask is read before the shore set is first derived from it.
                mask = cut.shore_mask
                y = cut.in_shore
                order = sorted(cut.digraph.vertices, reverse=True)
                assert mask == sum(1 << j for j, v in enumerate(order) if v in y)
                edges = list(enumerate(cut.digraph.edges))
                assert not any(t in y and h not in y for _e, (t, h) in edges)
                assert cut.edge_mask == sum(1 << e for e, (t, h) in edges if h in y and t not in y)
                checked += 1
        return checked

    def test_seeded_digraphs_with_parallel_edges(self):
        assert self.check(parallel_and_isolated_digraphs(), random.Random(5)) > 10000

    @pytest.mark.parametrize(
        "name, nmax", [("grid_d2", 7), ("zigzag_d1", 12)]
    )
    def test_family_windows(self, name, nmax):
        spec = get_family(name)
        windows = (window(spec, n).digraph for n in range(1, nmax + 1))
        assert self.check(windows, random.Random(name)) > 1000

    def test_the_walks_build_no_shore_set(self):
        d = window(get_family("zigzag_d1"), 8).digraph
        cuts = enumerate_dicuts(d) + enumerate_dibonds(d) + dibonds_containing_edge(d, 0)
        assert len(cuts) > 100 and not any("in_shore" in vars(cut) for cut in cuts)

    def test_nested_agrees_with_the_frozenset_test(self):
        pairs = 0
        digraphs = list(parallel_and_isolated_digraphs())
        for name, nmax in (("grid_d2", 7), ("zigzag_d1", 12)):
            digraphs += [window(get_family(name), n).digraph for n in range(1, nmax + 1)]
        for d in digraphs:
            if d.n < 12:
                cuts = brute_dicuts(d) + [Dicut(d, ()), Dicut(d, d.vertices)]
            else:
                cuts = enumerate_dibonds(d)
            for c1, c2 in combinations(cuts, 2):
                assert nested(c1, c2) is nested_by_shores(c1, c2)
                assert nested(c2, c1) is nested_by_shores(c1, c2)
                pairs += 1
        assert pairs > 50000

    def test_a_constructed_dicut_equals_and_hashes_like_the_walks(self):
        compared = 0
        for d in parallel_and_isolated_digraphs():
            walk = {cut: cut for cut in enumerate_dicuts(d)}
            for cut in brute_dicuts(d):
                if not cut.edge_mask:
                    continue
                # The lookup goes by hash and then equality.
                twin = walk.pop(cut)
                assert twin is not cut and twin == cut and hash(twin) == hash(cut)
                assert twin.in_shore == cut.in_shore
                compared += 1
            assert not walk
            if is_weakly_connected(d):
                for bond in enumerate_dibonds(d):
                    built = Dicut(d, set(bond.in_shore))
                    assert built == bond and hash(built) == hash(bond)
        assert compared > 1500


class TestNestedAndCorners:
    def test_containment_and_disjointness_are_nested(self):
        d = Digraph.from_edges([("r", "x"), ("r", "y")])
        assert nested(Dicut(d, {"x"}), Dicut(d, {"x", "y"}))
        assert nested(Dicut(d, {"x"}), Dicut(d, {"y"}))

    def test_diamond_side_cuts_cross(self):
        d = diamond()
        b1, b2 = Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})
        assert crossing(b1, b2)
        assert meet(b1, b2).in_shore == frozenset({"t"})
        assert join(b1, b2).in_shore == frozenset({"a", "b", "t"})
        assert meet(b1, b2).edge_set == frozenset({2, 3})
        assert join(b1, b2).edge_set == frozenset({0, 1})

    def test_corner_edge_multiset_identity(self):
        d = diamond()
        b1, b2 = Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})
        lo, hi = meet(b1, b2), join(b1, b2)
        for e in d.edge_ids():
            lhs = (e in b1.edge_set) + (e in b2.edge_set)
            rhs = (e in lo.edge_set) + (e in hi.edge_set)
            assert lhs == rhs

    def test_cover_side_makes_cuts_nested(self):
        d = Digraph.from_edges(
            [("a", "b"), ("c", "b"), ("c", "d"), ("a", "d")]
        )
        b1, b2 = Dicut(d, {"b", "d", "a"}), Dicut(d, {"b", "d", "c"})
        assert b1.in_shore | b2.in_shore == d.vertices
        assert nested(b1, b2)

    @pytest.mark.parametrize(
        "digraph, y1, y2, expected",
        [
            (diamond, {"t"}, {"a", "t"}, True),  # first side inside the second
            (diamond, {"a", "b", "t"}, {"a", "t"}, True),  # second inside the first
            (square, {"b"}, {"d"}, True),  # disjoint sides
            (square, {"a", "b", "d"}, {"b", "c", "d"}, True),  # sides cover every vertex
            (diamond, {"a", "t"}, {"b", "t"}, False),  # crossing
        ],
    )
    def test_nested_reads_the_in_shores(self, digraph, y1, y2, expected):
        d = digraph()
        c1, c2 = Dicut(d, y1), Dicut(d, y2)
        assert nested(c1, c2) is expected
        assert nested(c2, c1) is expected
        assert crossing(c1, c2) is not expected

    def test_cross_digraph_operations_are_rejected(self):
        with pytest.raises(ValueError):
            nested(Dicut(path3(), {"c"}), Dicut(diamond(), {"t"}))
        with pytest.raises(ValueError):
            meet(Dicut(path3(), {"c"}), Dicut(diamond(), {"t"}))


class TestDecompose:
    def test_two_source_cut_splits_into_two_dibonds(self):
        d = Digraph.from_edges([("x", "z"), ("y", "z")])
        parts = decompose_dicut(Dicut(d, {"z"}))
        assert [p.edge_set for p in parts] == [frozenset({0}), frozenset({1})]
        assert all(p.is_dibond for p in parts)

    def test_dibond_decomposes_to_itself(self):
        d = diamond()
        cut = Dicut(d, {"t"})
        parts = decompose_dicut(cut)
        assert len(parts) == 1 and parts[0].edge_set == cut.edge_set

    def test_empty_dicut_is_rejected(self):
        with pytest.raises(ValueError):
            decompose_dicut(Dicut(path3(), frozenset()))

    def test_disconnected_digraphs_are_refused(self):
        # The splits of {b} once cycled forever: {b} -> {b, c, d} -> {b}.
        d = Digraph.from_edges([("a", "b"), ("c", "d")])
        with pytest.raises(PreconditionViolated, match="weakly connected"):
            decompose_dicut(Dicut(d, {"b"}))
        for d in disconnected_digraphs():
            for cut in brute_dicuts(d):
                if cut.edge_set:
                    with pytest.raises(PreconditionViolated, match="weakly connected"):
                        decompose_dicut(cut)


class TestComponents:
    def test_weak_connectivity(self):
        assert is_weakly_connected(diamond())
        assert not is_weakly_connected(
            Digraph.from_edges([("a", "b")], isolated=("z",))
        )


def mask_search_corpus():
    """The seeded digraphs with parallel edges and isolated vertices, the
    disconnected ones, and the digraphs on zero and one vertex."""
    yield Digraph((), ())
    yield Digraph(("x",), ())
    yield from parallel_and_isolated_digraphs()
    yield from disconnected_digraphs()


class TestMaskSearchAgreesWithTheSetSearch:
    """Every connectivity test on vertex masks against the earlier set-based
    search, `oracles.component_labels`."""

    def test_weak_connectivity(self):
        verdicts = []
        for d in mask_search_corpus():
            verdicts.append(is_weakly_connected(d))
            assert verdicts[-1] is weakly_connected_by_labels(d)
        assert len(verdicts) > 300 and 50 < verdicts.count(True) < len(verdicts) - 50

    def test_dibonds(self):
        dibonds = checked = 0
        for d in mask_search_corpus():
            cuts = brute_dicuts(d) + [Dicut(d, ()), Dicut(d, d.vertices)]
            if is_weakly_connected(d):
                cuts += enumerate_dicuts(d)
            for cut in cuts:
                assert cut.is_dibond is dibond_by_labels(cut)
                dibonds += cut.is_dibond
                checked += 1
        assert dibonds > 300 and checked - dibonds > 2000

    def test_decompose_parts_and_refusals(self):
        split = refused = 0
        for d in mask_search_corpus():
            for cut in brute_dicuts(d):
                if not cut.edge_mask:
                    continue
                try:
                    want = decompose_by_labels(cut)
                except PreconditionViolated:
                    with pytest.raises(PreconditionViolated, match="weakly connected"):
                        decompose_dicut(cut)
                    refused += 1
                    continue
                parts = decompose_dicut(cut)
                assert [part.in_shore for part in parts] == want
                assert sum(part.edge_mask for part in parts) == cut.edge_mask
                split += len(parts) > 1
        assert split > 80 and refused > 1000

    def test_contract_to_class_maps(self):
        rng = random.Random(17)
        for d in mask_search_corpus():
            for _ in range(3):
                kept = frozenset(e for e in d.edge_ids() if rng.random() < 0.5)
                want = component_labels(d, removed=kept)
                qm = contract_to(d, kept)
                assert qm.class_of == want
                # The classes come in ascending order of their least vertex.
                assert list(qm.classes()) == list(dict.fromkeys(want.values()))

    def test_dicut_from_edge_set(self):
        rng = random.Random(19)
        found = refused = 0
        for d in mask_search_corpus():
            edge_sets = [cut.edge_set for cut in brute_dicuts(d)]
            edge_sets += [frozenset(rng.sample(range(d.m), rng.randint(0, d.m))) for _ in range(8)]
            for b in edge_sets:
                cut = dicut_from_edge_set(d, b)
                want = dicut_from_edge_set_by_labels(d, b)
                assert (cut and cut.in_shore) == want
                if cut is None:
                    refused += 1
                else:
                    assert cut.edge_set == b
                    found += 1
        assert found > 300 and refused > 3000
