"""Quotients, contraction minors, cut lifting, and block decomposition."""

from __future__ import annotations

import random

import pytest

from dicuts import (
    DibondClass,
    Dicut,
    Digraph,
    OptimalPair,
    PreconditionViolated,
    VerificationFailed,
    block_cut_tree,
    contract_to,
    enumerate_dibonds,
    enumerate_dicuts,
    enumeration,
    equivalence_classes,
    is_weakly_connected,
    nested,
    nested_optimal_pair,
    optimal_pair,
    quotient_lift,
    split_solve_merge,
    verify_cut_lift,
    verify_optimal_pair,
)

from .oracles import kosaraju_scc, random_dag, random_weak_digraph, split_solve_merge_by_members


def diamond():
    return Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


def random_generators(rng, d, k=3):
    bonds = enumerate_dibonds(d)
    if not bonds:
        return []
    return rng.sample(bonds, min(k, len(bonds)))


class TestEquivalenceClasses:
    def test_diamond_example(self):
        d = diamond()
        qm = equivalence_classes(d, [Dicut(d, {"t"}), Dicut(d, {"a", "t"})])
        assert qm.classes() == {"a": ("a",), "b": ("b", "s"), "t": ("t",)}
        assert qm.quotient.edges == (("b", "a"), ("a", "t"), ("b", "t"))
        assert qm.edge_provenance == {0: 0, 1: 2, 2: 3}

    def test_all_dicuts_give_the_scc_partition(self):
        rng = random.Random(31)
        for _ in range(60):
            d = random_weak_digraph(rng)
            qm = equivalence_classes(d, enumerate_dicuts(d))
            ours = {frozenset(ms) for ms in qm.classes().values()}
            assert ours == set(kosaraju_scc(d))

    def test_no_cuts_collapse_everything(self):
        d = diamond()
        qm = equivalence_classes(d, [])
        assert qm.quotient.n == 1 and qm.quotient.m == 0


class TestQuotientProperties:
    """The five quotient statements, random sweep per statement."""

    def test_weak_connectivity_is_preserved(self):
        rng = random.Random(37)
        for _ in range(40):
            d = random_weak_digraph(rng)
            qm = equivalence_classes(d, random_generators(rng, d))
            assert is_weakly_connected(qm.quotient)

    def test_generators_survive_with_identical_edge_sets(self):
        rng = random.Random(41)
        for _ in range(40):
            d = random_weak_digraph(rng)
            gens = random_generators(rng, d)
            qm = equivalence_classes(d, gens)
            for g in gens:
                image_shore = frozenset(qm.class_of[v] for v in g.in_shore)
                image = Dicut(qm.quotient, image_shore)
                original_ids = frozenset(
                    qm.edge_provenance[e] for e in image.edge_set
                )
                assert original_ids == g.edge_set

    def test_quotient_dicuts_are_dicuts_of_the_original(self):
        rng = random.Random(43)
        for _ in range(40):
            d = random_weak_digraph(rng)
            qm = equivalence_classes(d, random_generators(rng, d))
            expand = {
                cid: frozenset(members) for cid, members in qm.classes().items()
            }
            for qcut in enumerate_dicuts(qm.quotient):
                shore = frozenset().union(*(expand[c] for c in qcut.in_shore))
                lifted = Dicut(d, shore)
                assert frozenset(
                    qm.edge_provenance[e] for e in qcut.edge_set
                ) == lifted.edge_set

    def test_nestedness_is_preserved_in_both_directions(self):
        rng = random.Random(47)
        for _ in range(40):
            d = random_weak_digraph(rng)
            gens = random_generators(rng, d)
            if len(gens) < 2:
                continue
            qm = equivalence_classes(d, gens)
            images = [
                Dicut(qm.quotient, frozenset(qm.class_of[v] for v in g.in_shore))
                for g in gens
            ]
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    assert nested(gens[i], gens[j]) == nested(images[i], images[j])

    def test_distinct_classes_are_separated_by_some_generator(self):
        rng = random.Random(53)
        for _ in range(40):
            d = random_weak_digraph(rng)
            gens = random_generators(rng, d)
            qm = equivalence_classes(d, gens)
            reps = sorted(qm.classes())
            for i, c1 in enumerate(reps):
                for c2 in reps[i + 1 :]:
                    v = qm.classes()[c1][0]
                    w = qm.classes()[c2][0]
                    assert any(
                        (v in g.in_shore) != (w in g.in_shore) for g in gens
                    )


class TestContractTo:
    def test_keeping_two_edges_of_the_diamond(self):
        qm = contract_to(diamond(), [0, 2])
        assert sorted(qm.quotient.vertices) == ["a", "b"]
        assert qm.quotient.edges == (("b", "a"), ("a", "b"))
        assert qm.edge_provenance == {0: 0, 1: 2}

    def test_keeping_everything_is_the_identity(self):
        d = diamond()
        qm = contract_to(d, d.edge_ids())
        assert qm.quotient.n == d.n and qm.quotient.m == d.m
        assert all(qm.edge_provenance[e] == e for e in d.edge_ids())

    def test_keeping_nothing_collapses_to_a_point(self):
        qm = contract_to(diamond(), [])
        assert qm.quotient.n == 1 and qm.quotient.m == 0

    def test_unknown_edge_ids_are_rejected(self):
        with pytest.raises(ValueError):
            contract_to(diamond(), [99])

    @pytest.mark.parametrize("bad", [1.5, "1", None, 1.0])
    def test_an_id_that_is_no_int_is_rejected(self, bad):
        # 1.5 was dropped and the minor kept only edge 0.
        with pytest.raises(ValueError, match="^edge set contains unknown edge ids$"):
            contract_to(diamond(), [0, bad])

    def test_kept_parallel_edges_can_become_loops_and_drop(self):
        d = Digraph.from_edges([("a", "b"), ("a", "b"), ("b", "c")])
        qm = contract_to(d, [0, 1])
        assert qm.quotient.m == 2


class TestVerifyCutLift:
    def test_diamond_example(self):
        assert verify_cut_lift(diamond(), [1, 2, 3], [2, 3])

    def test_edge_set_outside_kept_is_rejected(self):
        with pytest.raises(ValueError):
            verify_cut_lift(diamond(), [1, 2], [3])

    def test_correspondence_on_random_digraphs(self):
        rng = random.Random(59)
        for _ in range(80):
            d = random_weak_digraph(rng, max_n=5, max_extra=4)
            ids = list(d.edge_ids())
            kept = frozenset(e for e in ids if rng.random() < 0.7)
            sub = frozenset(e for e in kept if rng.random() < 0.5)
            if not sub:
                continue
            assert verify_cut_lift(d, kept, sub)


class TestBlocks:
    def test_two_cycles_sharing_a_vertex(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
        tree = block_cut_tree(d)
        assert tree.blocks == (frozenset({0, 1}), frozenset({2, 3}))
        assert tree.cutvertices == frozenset({"b"})
        assert tree.tree_edges == (("b", 0), ("b", 1))

    def test_bridges_are_single_edge_blocks(self):
        tree = block_cut_tree(Digraph.from_edges([("a", "b"), ("b", "c")]))
        assert tree.blocks == (frozenset({0}), frozenset({1}))
        assert tree.cutvertices == frozenset({"b"})

    def test_doubled_bridge_is_one_block(self):
        tree = block_cut_tree(Digraph.from_edges([("a", "b"), ("a", "b")]))
        assert tree.blocks == (frozenset({0, 1}),)
        assert tree.cutvertices == frozenset()

    def test_blocks_partition_the_edges(self):
        rng = random.Random(61)
        for _ in range(60):
            d = random_weak_digraph(rng)
            tree = block_cut_tree(d)
            ids = sorted(e for block in tree.blocks for e in block)
            assert ids == list(d.edge_ids())

    def test_the_tree_does_not_depend_on_the_edge_order(self):
        # The sweep's visiting order follows the edge ids; the blocks, the
        # cut vertices and the tree must not.
        rng = random.Random(62)

        def labelled(tree, label):
            blocks = [frozenset(label[e] for e in block) for block in tree.blocks]
            edges = {(v, blocks[i]) for v, i in tree.tree_edges}
            return set(blocks), tree.cutvertices, edges

        for _ in range(300):
            d = random_weak_digraph(rng, max_n=9, max_extra=6)
            order = list(d.edge_ids())
            rng.shuffle(order)
            shuffled = Digraph(d.vertices, [d.edges[e] for e in order])
            assert labelled(block_cut_tree(shuffled), order) == labelled(
                block_cut_tree(d), list(d.edge_ids())
            )

    def test_disconnected_input_is_rejected(self):
        for d in (
            Digraph.from_edges([("a", "b")], isolated=("z",)),
            Digraph.from_edges([("a", "b"), ("c", "d")]),
        ):
            with pytest.raises(PreconditionViolated, match="weakly connected"):
                block_cut_tree(d)


class TestSplitSolveMerge:
    def test_single_block_matches_direct_solve(self):
        d = diamond()
        klass = DibondClass.full(d)
        merged = split_solve_merge(d, klass)
        assert merged is not None
        assert sorted(merged.dijoin) == [0, 2]
        assert len(merged.family) == 2 and merged.nested
        verify_optimal_pair(d, klass, merged)

    def test_multi_block_chain(self):
        d = Digraph.from_edges(
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("t", "u"), ("u", "w")]
        )
        klass = DibondClass.full(d)
        merged = split_solve_merge(d, klass)
        direct = nested_optimal_pair(d, klass)
        assert merged is not None and direct is not None
        assert len(merged.family) == len(direct.family) == 4
        assert merged.nested
        verify_optimal_pair(d, klass, merged)

    def test_matches_direct_solve_on_random_multiblock_digraphs(self):
        rng = random.Random(67)
        seen = 0
        while seen < 40:
            d = random_weak_digraph(rng)
            if len(block_cut_tree(d).blocks) < 2:
                continue
            seen += 1
            klass = DibondClass.full(d)
            merged = split_solve_merge(d, klass)
            direct = optimal_pair(d, klass)
            assert merged is not None and direct is not None
            assert len(merged.family) == len(direct.family)
            assert merged.nested
            verify_optimal_pair(d, klass, merged)

    def test_the_full_class_is_solved_per_block_without_listing(self, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("the dibond walk ran")

        monkeypatch.setattr(enumeration, "_dibond_masks", walk)
        digraphs = [random_dag(random.Random(f"probe:120:{s}"), 120, 120) for s in range(3)]
        rng = random.Random(71)
        while len(digraphs) < 43:
            d = random_weak_digraph(rng)
            if len(block_cut_tree(d).blocks) >= 2:
                digraphs.append(d)
        for d in digraphs:
            pair = split_solve_merge(d, DibondClass.full(d))
            assert pair is not None and pair.nested
            verify_optimal_pair(d, None, pair)
            assert len(pair.dijoin) == len(optimal_pair(d).dijoin)

    def test_listed_classes_keep_the_answers_of_the_member_split(self):
        # 800 classes: each draw's listed full class and three sub-families,
        # two of which have no nested optimal pair.
        rng = random.Random(75)
        seen = gaps = 0
        while seen < 200:
            d = random_weak_digraph(rng)
            if len(block_cut_tree(d).blocks) < 2:
                continue
            seen += 1
            listed = DibondClass.full(d).members
            klasses = [DibondClass._known(d, listed, True)]
            for _ in range(3):
                klasses.append(DibondClass(d, rng.sample(listed, rng.randint(0, len(listed)))))
            for klass in klasses:
                got = split_solve_merge(d, klass)
                want = split_solve_merge_by_members(d, klass)
                if want is None:
                    gaps += 1
                    assert got is None
                else:
                    assert got.dijoin == want.dijoin
                    assert [m.shore_mask for m in got.family] == [m.shore_mask for m in want.family]
        assert gaps > 0


class TestQuotientLift:
    def test_lift_restates_a_quotient_pair_upstairs(self):
        d = diamond()
        qm = equivalence_classes(d, [Dicut(d, {"t"}), Dicut(d, {"a", "t"})])
        qpair = optimal_pair(qm.quotient, DibondClass.full(qm.quotient))
        assert qpair is not None
        lifted = quotient_lift(d, qm, qpair, "lift")
        assert lifted.dijoin == frozenset(
            qm.edge_provenance[e] for e in qpair.dijoin
        )
        assert len(lifted.family) == len(qpair.family)

    def test_project_then_lift_roundtrips_sizes(self):
        d = diamond()
        gens = [Dicut(d, {"t"}), Dicut(d, {"a", "b", "t"})]
        qm = equivalence_classes(d, gens)
        klass = DibondClass.from_members(d, gens)
        pair = optimal_pair(d, klass)
        assert pair is not None
        down = quotient_lift(d, qm, pair, "project")
        up = quotient_lift(d, qm, down, "lift")
        assert up.dijoin == pair.dijoin
        assert len(up.family) == len(pair.family)

    def test_a_member_splitting_a_class_is_refused_on_projection(self):
        d = diamond()
        qm = equivalence_classes(d, [Dicut(d, {"t"}), Dicut(d, {"a", "t"})])
        assert qm.classes()["b"] == ("b", "s")
        # The in shore {b, t} holds b but not s; edge 2, a->t, survives.
        pair = OptimalPair(dijoin=frozenset({2}), family=[Dicut(d, {"b", "t"})], nested=True)
        with pytest.raises(VerificationFailed, match="not a union of quotient classes"):
            quotient_lift(d, qm, pair, "project")

    def test_unknown_direction_is_rejected(self):
        d = diamond()
        qm = equivalence_classes(d, [Dicut(d, {"t"})])
        pair = optimal_pair(qm.quotient, DibondClass.full(qm.quotient))
        with pytest.raises(ValueError):
            quotient_lift(d, qm, pair, "sideways")
