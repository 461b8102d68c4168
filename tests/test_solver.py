"""Exact solvers, optimal pairs, uncrossing, and dibond classes."""

from __future__ import annotations

import importlib.util
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from dicuts import (
    CapExceeded,
    check_finitary_dijoin,
    DibondClass,
    Dicut,
    Digraph,
    DualityGapDetected,
    NotCornerClosed,
    OptimalPair,
    PreconditionViolated,
    VerificationFailed,
    corner_closure,
    enumerate_dibonds,
    exact_max_set_packing,
    exact_min_hitting_set,
    get_family,
    is_dijoin,
    max_disjoint_dicuts,
    maximal_nested_disjoint_family,
    min_dijoin,
    nested,
    nested_optimal_pair,
    optimal_pair,
    split_solve_merge,
    uncross,
    verify_optimal_pair,
    window,
)
from dicuts import solver
from dicuts.core import bit_positions
from dicuts.solver import (
    _columns,
    _cover_bound,
    _first_crossing,
    _greedy_cover,
    _largest_disjoint,
    _meets_all,
    _meets_every_dibond,
    _member_key,
    _min_hitting_mask,
    _picks,
    _rows,
    _set_key,
)

from .oracles import (
    brute_dibonds,
    brute_dicuts,
    brute_max_packing,
    brute_min_dijoin,
    corner_closure_by_passes,
    greedy_cover_by_recount,
    largest_disjoint_by_recursion,
    meets_every_dibond_by_contraction,
    meets_every_dicut,
    min_hitting_mask_by_rows,
    nested_by_shores,
    min_hitting_set_by_recursion,
    random_dag,
    random_weak_digraph,
)

_CORPUS_PATH = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("bench_corpus", _CORPUS_PATH)
bench_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_corpus)


def diamond():
    return Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


def listed_full(d):
    """The full class with its members listed, so that the solvers search
    them instead of running the cutting-plane loop."""
    return DibondClass._known(d, DibondClass.full(d).members, True)


def gap_instance():
    """Three pairwise intersecting dibonds with empty common intersection.

    The smallest instance found by exhaustive search where a custom class
    has min hitting set strictly above max packing: a fan from a through
    b, c, d into e.
    """
    d = Digraph.from_edges(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "e"), ("d", "e")]
    )
    members = [
        Dicut(d, frozenset({"e"})),
        Dicut(d, frozenset({"b", "c", "e"})),
        Dicut(d, frozenset({"b", "d", "e"})),
    ]
    return d, DibondClass.from_members(d, members)


class TestExactSetSolvers:
    def test_hitting_set_on_a_chain_of_overlaps(self):
        sets = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
        hit = exact_min_hitting_set(sets)
        assert len(hit) == 2
        assert all(hit & s for s in sets)

    def test_hitting_set_of_nothing_is_empty(self):
        assert exact_min_hitting_set([]) == frozenset()

    def test_an_empty_set_cannot_be_hit(self):
        # Without the check the greedy cover would never cover the empty set.
        with pytest.raises(ValueError, match="cannot hit an empty set"):
            exact_min_hitting_set([frozenset(), frozenset({1})])
        # A class refuses the edgeless member, so min_dijoin never gets an empty mask.
        d = diamond()
        with pytest.raises(ValueError, match="is not a dibond"):
            DibondClass(d, (Dicut(d, {"t"}), Dicut(d, d.vertices)))

    def test_packing_on_a_chain_of_overlaps(self):
        sets = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
        packed = exact_max_set_packing(sets)
        assert len(packed) == 2

    @pytest.mark.parametrize(
        "sets, size",
        [
            # A greedy packing once pruned the optimum here as an upper bound.
            ([{0, 1}, {0, 1}, {0}, {1}], 2),
            ([set(), {0}, {0}, set()], 3),
        ],
    )
    def test_packing_size(self, sets, size):
        packed = exact_max_set_packing(sets)
        assert len(packed) == size
        assert all(not (sets[i] & sets[j]) for i, j in combinations(packed, 2))

    def test_solvers_agree_with_subset_sweeps(self):
        rng = random.Random(17)
        for _ in range(50):
            universe = range(rng.randint(2, 7))
            sets = [
                frozenset(x for x in universe if rng.random() < 0.4)
                for _ in range(rng.randint(1, 6))
            ]
            sets = [s for s in sets if s]
            if not sets:
                continue
            hit = exact_min_hitting_set(sets)
            assert all(hit & s for s in sets)
            import itertools

            best = min(
                (
                    frozenset(c)
                    for r in range(len(frozenset().union(*sets)) + 1)
                    for c in itertools.combinations(sorted(frozenset().union(*sets)), r)
                    if all(frozenset(c) & s for s in sets)
                ),
                key=len,
            )
            assert len(hit) == len(best)


def random_set_system(rng, universe, empties):
    """Seeded sets over a small universe, so that counts tie, with duplicates."""
    sets = []
    for _ in range(rng.randint(1, 12)):
        if sets and rng.random() < 0.2:
            sets.append(rng.choice(sets))
            continue
        s = frozenset(x for x in universe if rng.random() < 0.3)
        if s or empties:
            sets.append(s)
    return sets


ELEMENTS = {"int": list(range(9)), "str": [f"v{i}" for i in range(9)]}


class TestPicks:
    def test_no_slots_yield_one_empty_pick(self):
        def never(picked, item):
            raise AssertionError("fits called without a slot")

        assert list(_picks([], never)) == [[]]

    def test_an_accepting_test_yields_the_product_in_order(self):
        slots = [[3, 1], [], [2]]
        assert list(_picks(slots, lambda picked, item: True)) == []
        slots = [[3, 1], [5], [2, 4, 0]]
        assert list(_picks(slots, lambda picked, item: True)) == [
            list(combo) for combo in product(*slots)
        ]

    def test_fits_sees_the_items_picked_for_the_earlier_slots(self):
        slots = [["a", "b"], ["a", "b", "c"], ["b", "c"]]
        got = list(_picks(slots, lambda picked, item: item not in picked))
        assert got == [list(c) for c in product(*slots) if len(set(c)) == 3]

    def test_a_target_meeting_no_slot_yields_nothing(self):
        slots = [[1, 2], [3]]
        assert list(_picks(slots, _meets_all(slots, [frozenset({1, 4})]))) == [[1, 3]]
        assert list(_picks(slots, _meets_all(slots, [frozenset({1, 4}), frozenset({9})]))) == []

    def test_meets_all_matches_the_product_filter(self):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(400):
            universe = range(rng.randint(2, 9))
            slots = [
                sorted(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
                for _ in range(rng.randint(1, 4))
            ]
            targets = [
                frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                for _ in range(rng.randint(0, 5))
            ]
            got = list(_picks(slots, _meets_all(slots, targets)))
            want = [
                list(c) for c in product(*slots) if all(t & frozenset(c) for t in targets)
            ]
            assert got == want
            outcomes.add(min(len(want), 2))
        assert outcomes == {0, 1, 2}


class TestMaskKernels:
    """The mask kernels return exactly what the frozenset kernels in oracles return."""

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_greedy_cover_matches_the_recount(self, kind):
        rng = random.Random(f"cover:{kind}")
        for _ in range(300):
            sets = random_set_system(rng, ELEMENTS[kind], empties=False)
            if not sets:
                continue
            masks, elements = _rows(sets)
            cover_mask = _greedy_cover(_columns(masks), (1 << len(masks)) - 1)
            cover = frozenset(elements[p] for p in bit_positions(cover_mask))
            assert cover == greedy_cover_by_recount(sets)

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_hitting_set_matches_the_recursion(self, kind):
        rng = random.Random(f"hit:{kind}")
        for _ in range(300):
            sets = random_set_system(rng, ELEMENTS[kind], empties=False)
            assert exact_min_hitting_set(sets) == min_hitting_set_by_recursion(sets)

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_largest_disjoint_matches_the_recursion(self, kind):
        rng = random.Random(f"pack:{kind}")
        for _ in range(300):
            sets = random_set_system(rng, ELEMENTS[kind], empties=True)
            stop = rng.choice([None, 1, 2, 3])
            masks, _elements = _rows(sets)
            assert _largest_disjoint(masks, stop) == largest_disjoint_by_recursion(sets, stop)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_nested_families_on_grid_windows_match_the_recursion(self, n):
        d = window(get_family("grid_d2"), n).digraph
        klass = DibondClass.full(d)
        members = klass.members
        masks = [m.edge_mask for m in members]
        sets = [m.edge_set for m in members]

        def also(i, j):
            return nested(members[i], members[j])

        for stop in (len(min_dijoin(d, klass)), None):
            assert _largest_disjoint(masks, stop, also) == largest_disjoint_by_recursion(
                sets, stop, also
            )

    def test_min_dijoin_on_edge_id_bits_matches_the_set_hitting_set(self):
        # min_dijoin hands the members' edge masks, bit e for edge e, to the
        # search; exact_min_hitting_set maps the edges of the sets to bits
        # 0, 1, ... in ascending order. Both maps are monotone, so the
        # branch orders and tie-breaks, and hence the dijoins, must agree.
        refused = []
        for name, edges, isolated in bench_corpus.solve_corpus(1):
            d = Digraph.from_edges(edges, isolated=isolated)
            try:
                klass = DibondClass.full(d)
            except PreconditionViolated:
                refused.append(name)
                continue
            assert min_dijoin(d, klass) == exact_min_hitting_set(
                [m.edge_set for m in klass.members]
            ), name
        assert refused == ["repro-isolated"]

    def test_class_order_read_off_the_masks_is_the_set_order(self):
        rng = random.Random(43)
        for _ in range(200):
            d = random_weak_digraph(rng, max_n=7, max_extra=12)
            cuts = [c for c in brute_dicuts(d) if c.edge_mask]
            rng.shuffle(cuts)
            assert sorted(cuts, key=_member_key) == sorted(
                cuts, key=lambda c: _set_key(c.edge_set)
            )

    def test_packing_of_1500_disjoint_singletons(self):
        # Far deeper than the recursion limit, so the search must keep its path on a stack.
        sets = [frozenset({i}) for i in range(1500)]
        assert exact_max_set_packing(sets) == list(range(1500))


class TestColumnTable:
    """The column-table hitting set returns exactly the mask the row-form search does."""

    @staticmethod
    def class_masks(d):
        return [m.edge_mask for m in DibondClass.full(d).members]

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_every_full_class_of_the_solve_corpus(self, seed):
        solved = 0
        for name, edges, isolated in bench_corpus.solve_corpus(seed):
            d = Digraph.from_edges(edges, isolated=isolated)
            if name == "repro-isolated":
                continue
            masks = self.class_masks(d)
            assert _min_hitting_mask(masks) == min_hitting_mask_by_rows(masks), name
            solved += 1
        assert solved > 250

    @pytest.mark.parametrize(
        "name, n", [("zigzag_d1", 60)] + [("grid_d2", n) for n in range(1, 11)]
    )
    def test_family_windows(self, name, n):
        masks = self.class_masks(window(get_family(name), n).digraph)
        assert _min_hitting_mask(masks) == min_hitting_mask_by_rows(masks)

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_random_mask_systems_with_tied_counts(self, kind):
        # The raw masks keep their duplicates and their drawn order; the
        # search does not need the canonical order to agree with the rows.
        rng = random.Random(f"columns:{kind}")
        for _ in range(150):
            sets = random_set_system(rng, ELEMENTS[kind], empties=False)
            for masks in (_rows(sets)[0], _rows(sorted(set(sets), key=_set_key))[0]):
                assert _min_hitting_mask(masks) == min_hitting_mask_by_rows(masks)

    def test_the_table_is_the_transpose(self):
        masks = [0b101, 0, 0b110, 1 << 70]
        cols = _columns(masks)
        assert len(cols) == 71
        assert [c for c in cols if c] == [0b0001, 0b0100, 0b0101, 0b1000]
        assert _columns([]) == [] and _columns([0, 0]) == []

    def test_no_masks_need_no_bits(self):
        assert _min_hitting_mask([]) == 0

    def test_an_empty_mask_is_refused_before_the_table(self, monkeypatch):
        def no_table(masks):
            raise AssertionError("table built for an unhittable mask")

        monkeypatch.setattr(solver, "_columns", no_table)
        with pytest.raises(ValueError, match="^cannot hit an empty set$"):
            _min_hitting_mask([0b1, 0, 0b10])

    def test_masks_with_only_high_bits(self):
        high = [1 << 200, 1 << 201 | 1 << 200, 1 << 202 | 1 << 201, 1 << 203]
        assert _min_hitting_mask(high) == 1 << 200 | 1 << 201 | 1 << 203
        assert _min_hitting_mask(high) == min_hitting_mask_by_rows(high)

    def test_hitting_set_of_1500_disjoint_singletons(self):
        sets = [frozenset({i}) for i in range(1500)]
        assert exact_min_hitting_set(sets) == frozenset(range(1500))

    def test_cover_bound_counts_each_empty_candidate_once(self):
        masks = [0b11, 0b01, 0b10, 0, 0]
        cols = _columns(masks)
        assert _cover_bound(cols, masks, [2, 3, 4]) == 3
        assert _cover_bound(cols, masks, [0, 1, 2, 3]) == 3
        assert _cover_bound(cols, masks, [3, 4]) == 2
        assert _cover_bound(_columns([0, 0]), [0, 0], [0, 1]) == 2
        # Leaving the empty candidates 3 and 4 out of the bound would prune
        # the branch that finds the family [1, 2, 3, 4].
        assert _largest_disjoint(masks) == [1, 2, 3, 4]
        rng = random.Random("bound")
        for _ in range(300):
            sets = random_set_system(rng, ELEMENTS["int"], empties=True)
            masks = _rows(sets)[0]
            cands = sorted(rng.sample(range(len(sets)), rng.randint(0, len(sets))))
            nonempty = [sets[j] for j in cands if sets[j]]
            expected = len(greedy_cover_by_recount(nonempty)) + len(cands) - len(nonempty)
            assert _cover_bound(_columns(masks), masks, cands) == expected


class TestMaskPath:
    def test_solving_the_full_class_derives_no_member_edge_set(self):
        # The solvers and the verifier read only edge masks; an edge set is
        # derived on first read, so none exists beyond the family.
        d = window(get_family("zigzag_d1"), 30).digraph
        klass = listed_full(d)
        pair = nested_optimal_pair(d, klass)
        assert pair is not None and len(pair.family) == 30
        family = {m.in_shore for m in pair.family}
        derived = [
            m for m in klass.members if "edge_set" in vars(m) and m.in_shore not in family
        ]
        assert len(klass) > 400 and derived == []

    def test_solving_the_full_class_derives_no_member_shore(self):
        # Equality, nestedness and the verifier read only shore masks; a
        # shore set is derived on first read, so none exists beyond the
        # family.
        d = window(get_family("zigzag_d1"), 30).digraph
        klass = listed_full(d)
        pair = nested_optimal_pair(d, klass)
        assert pair is not None and len(pair.family) == 30
        family = {id(m) for m in pair.family}
        derived = [m for m in klass.members if "in_shore" in vars(m) and id(m) not in family]
        assert len(klass) > 400 and derived == []


class TestDibondClass:
    def test_full_class_on_the_diamond(self):
        klass = DibondClass.full(diamond())
        assert len(klass) == 4
        assert klass.corner_closed

    def test_partial_class_is_not_corner_closed(self):
        d = diamond()
        klass = DibondClass.from_members(
            d, [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})]
        )
        assert not klass.corner_closed

    def test_full_subfamily_is_corner_closed(self):
        d = diamond()
        klass = DibondClass.from_members(
            d,
            [
                Dicut(d, {"t"}),
                Dicut(d, {"a", "t"}),
                Dicut(d, {"b", "t"}),
                Dicut(d, {"a", "b", "t"}),
            ],
        )
        assert klass.corner_closed

    def test_corner_closed_is_worked_out_not_passed(self):
        # A class built with the flag forced on raised DualityGapDetected
        # from all three solvers on this genuine gap.
        d, klass = gap_instance()
        rebuilt = DibondClass(d, klass.members)
        assert not rebuilt.corner_closed
        assert optimal_pair(d, rebuilt) is None
        assert nested_optimal_pair(d, rebuilt) is None
        assert split_solve_merge(d, rebuilt) is None
        with pytest.raises(TypeError):
            DibondClass(d, klass.members, corner_closed=True)

    def test_a_member_of_another_digraph_is_refused(self):
        # A diamond class holding these members once gave the dijoin
        # {s->a, s->b}, which misses the dicut {a->t, b->t}.
        other = DibondClass.full(Digraph.from_edges([("x", "y"), ("y", "z")]))
        with pytest.raises(ValueError, match="^class member belongs to a different digraph$"):
            DibondClass(diamond(), other.members)

    def test_members_come_in_class_order_whatever_order_they_are_given_in(self):
        # Members handed in reversed once gave a packing in reversed order.
        d = Digraph.from_edges(
            [
                ("v1", "v0"),
                ("v2", "v0"),
                ("v3", "v0"),
                ("v1", "v4"),
                ("v5", "v3"),
                ("v4", "v0"),
                ("v4", "v1"),
                ("v0", "v1"),
            ]
        )
        full = DibondClass.full(d)
        rebuilt = DibondClass(d, reversed(full.members))
        assert rebuilt.members == full.members and rebuilt.corner_closed
        family = max_disjoint_dicuts(d, full)
        assert len(family) == 3 and max_disjoint_dicuts(d, rebuilt) == family

    def test_a_pair_keeps_its_family_in_class_order(self):
        d = diamond()
        klass = DibondClass.full(d)
        pair = optimal_pair(d, klass)
        flipped = OptimalPair(pair.dijoin, tuple(reversed(pair.family)), pair.nested)
        assert len(pair.family) == 2 and flipped.family == pair.family
        verify_optimal_pair(d, klass, flipped)

    def test_a_class_of_another_digraph_is_refused_everywhere(self):
        d1 = diamond()
        k2 = DibondClass.full(Digraph.from_edges([("x", "y"), ("y", "z")]))
        t_cut = Dicut(d1, {"t"})
        calls = [
            lambda: min_dijoin(d1, k2),
            lambda: max_disjoint_dicuts(d1, k2),
            lambda: maximal_nested_disjoint_family(d1, k2),
            lambda: optimal_pair(d1, k2),
            lambda: nested_optimal_pair(d1, k2),
            lambda: split_solve_merge(d1, k2),
            lambda: is_dijoin(d1, {2, 3}, k2),
            lambda: verify_optimal_pair(
                d1, k2, OptimalPair(dijoin=frozenset({2}), family=(t_cut,), nested=True)
            ),
            lambda: uncross(d1, {2}, [t_cut], klass=k2),
        ]
        for call in calls:
            with pytest.raises(PreconditionViolated) as exc:
                call()
            assert str(exc.value) == "class belongs to a different digraph"


class TestMinMax:
    def test_diamond_optima(self):
        d = diamond()
        klass = DibondClass.full(d)
        assert min_dijoin(d, klass) == frozenset({0, 2})
        family = max_disjoint_dicuts(d, klass)
        assert len(family) == 2

    def test_path_optima(self):
        d = Digraph.from_edges([("a", "b"), ("b", "c")])
        klass = DibondClass.full(d)
        assert min_dijoin(d, klass) == frozenset({0, 1})
        assert len(max_disjoint_dicuts(d, klass)) == 2

    def test_strongly_connected_needs_nothing(self):
        d = Digraph.from_edges([("a", "b"), ("b", "a")])
        klass = DibondClass.full(d)
        assert min_dijoin(d, klass) == frozenset()
        assert max_disjoint_dicuts(d, klass) == []

    def test_is_dijoin_reports_a_missed_member(self):
        d = diamond()
        klass = DibondClass.full(d)
        ok, missed = is_dijoin(d, {0}, klass)
        assert not ok and missed is not None and 0 not in missed.edge_set
        ok, missed = is_dijoin(d, {0, 2}, klass)
        assert ok and missed is None

    def test_equality_against_subset_sweeps(self):
        rng = random.Random(23)
        for _ in range(40):
            d = random_weak_digraph(rng, max_n=5, max_extra=4)
            klass = DibondClass.full(d)
            dijoin = min_dijoin(d, klass)
            family = max_disjoint_dicuts(d, klass)
            cuts = [c for c in brute_dicuts(d) if c.edge_set]
            assert len(dijoin) == len(brute_min_dijoin(d, cuts))
            assert len(family) == len(brute_max_packing(cuts))
            assert len(dijoin) == len(family)


class TestOptimalPairs:
    def test_diamond_pair_is_verified(self):
        d = diamond()
        klass = DibondClass.full(d)
        pair = optimal_pair(d, klass)
        assert pair is not None
        assert len(pair.dijoin) == len(pair.family) == 2
        verify_optimal_pair(d, klass, pair)

    def test_nested_pair_on_the_diamond(self):
        d = diamond()
        pair = nested_optimal_pair(d, DibondClass.full(d))
        assert pair is not None and pair.nested
        shores = {m.in_shore for m in pair.family}
        assert shores == {frozenset({"t"}), frozenset({"a", "b", "t"})}

    def test_nested_pairs_on_random_digraphs(self):
        rng = random.Random(29)
        for _ in range(60):
            d = random_weak_digraph(rng)
            klass = DibondClass.full(d)
            pair = nested_optimal_pair(d, klass)
            assert pair is not None and pair.nested
            verify_optimal_pair(d, klass, pair)
            fam = list(pair.family)
            assert all(
                nested(fam[i], fam[j])
                for i in range(len(fam))
                for j in range(i + 1, len(fam))
            )

    def test_nested_pair_on_a_six_vertex_dag(self):
        # Once a DualityGapDetected: the packing search pruned the optimum.
        edges = "0 1, 0 4, 0 5, 1 2, 2 3, 2 4, 2 5, 3 4, 3 5"
        d = Digraph.from_edges(tuple(e.split()) for e in edges.split(", "))
        klass = DibondClass.full(d)
        pair = nested_optimal_pair(d, klass)
        assert pair is not None and len(pair.dijoin) == len(pair.family) == 2
        verify_optimal_pair(d, klass, pair)

    def test_zigzag_window_50_stays_within_the_recursion_limit(self):
        # 1,325 dibonds; the packing search once recursed once per member.
        d = window(get_family("zigzag_d1"), 50).digraph
        pair = nested_optimal_pair(d, DibondClass.full(d))
        assert pair is not None and len(pair.family) == 50

    @pytest.mark.parametrize("seed", range(12))
    def test_full_class_equality_on_30_vertex_dags(self, seed):
        # Lucchesi-Younger makes min = max an oracle past brute-force sizes;
        # the dijoin is checked by contraction, without the dibond class.
        d = random_dag(random.Random(seed), 30, 30)
        klass = DibondClass.full(d)
        pair = nested_optimal_pair(d, klass)
        assert pair is not None and len(pair.dijoin) == len(pair.family)
        verify_optimal_pair(d, klass, pair)
        assert meets_every_dicut(d, pair.dijoin)
        assert not any(meets_every_dicut(d, pair.dijoin - {e}) for e in pair.dijoin)

    def test_each_pair_is_verified_once_per_solve(self, monkeypatch):
        calls = []
        verify = solver.verify_optimal_pair

        def counted(*args):
            calls.append(args[2])
            verify(*args)

        monkeypatch.setattr(solver, "verify_optimal_pair", counted)
        d = diamond()
        klass = DibondClass.full(d)
        assert optimal_pair(d, klass) is not None and len(calls) == 1
        calls.clear()
        pair = nested_optimal_pair(d, klass)
        assert pair is calls[0] and len(calls) == 1
        # The diamond again, with its edges listed so that the first
        # packing in canonical order crosses.
        crossing = Digraph.from_edges([("s", "a"), ("a", "t"), ("b", "t"), ("s", "b")])
        klass = listed_full(crossing)
        calls.clear()
        pair = nested_optimal_pair(crossing, klass)
        assert [p.nested for p in calls] == [False, True] and pair is calls[1]

    def test_verifier_rejects_corrupted_pairs(self):
        d = diamond()
        klass = DibondClass.full(d)
        pair = optimal_pair(d, klass)
        assert pair is not None
        short = OptimalPair(
            dijoin=frozenset(list(pair.dijoin)[:1]),
            family=pair.family,
            nested=pair.nested,
        )
        with pytest.raises(VerificationFailed):
            verify_optimal_pair(d, klass, short)
        overlapping = OptimalPair(
            dijoin=pair.dijoin,
            family=(Dicut(d, {"t"}), Dicut(d, {"a", "t"})),
            nested=False,
        )
        with pytest.raises(VerificationFailed):
            verify_optimal_pair(d, klass, overlapping)


class TestDualityGap:
    def test_custom_class_with_a_genuine_gap(self):
        d, klass = gap_instance()
        assert {m.edge_set for m in klass.members} == {
            frozenset({3, 4, 5}),
            frozenset({0, 1, 5}),
            frozenset({0, 2, 4}),
        }
        assert min_dijoin(d, klass) == frozenset({0, 3})
        assert len(max_disjoint_dicuts(d, klass)) == 1
        assert optimal_pair(d, klass) is None
        assert nested_optimal_pair(d, klass) is None
        assert not klass.corner_closed

    def test_members_pairwise_intersect_but_share_nothing(self):
        _, klass = gap_instance()
        sets = [m.edge_set for m in klass.members]
        assert all(a & b for a in sets for b in sets)
        assert not (sets[0] & sets[1] & sets[2])

    def test_refused_uncrossing_without_a_nested_pair_gives_none(self):
        # Once PreconditionViolated from uncross: optimal_pair verifies the
        # dijoin {s->a, s->b} with the crossing members {a, t} and {b, t},
        # whose meet {t} the dijoin misses; no nested pair of size 2 exists.
        d = diamond()
        klass = DibondClass.from_members(d, [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})])
        assert not klass.corner_closed
        pair = optimal_pair(d, klass)
        assert pair is not None and not pair.nested
        with pytest.raises(PreconditionViolated, match="corner dicut"):
            uncross(d, pair.dijoin, pair.family, klass=klass)
        assert nested_optimal_pair(d, klass) is None
        assert split_solve_merge(d, klass) is None

    def test_refused_uncrossing_falls_back_to_a_nested_packing(self):
        # Once PreconditionViolated from uncross; the nested packing finds
        # two disjoint nested members that the dijoin meets once each.
        edges = "1 0, 2 1, 3 0, 3 4, 5 4, 4 0, 5 2"
        d = Digraph.from_edges(tuple(e.split()) for e in edges.split(", "))
        shores = ({"0", "3", "4"}, {"0", "1", "2", "3", "4"}, {"0", "1"})
        klass = DibondClass.from_members(d, [Dicut(d, y) for y in shores])
        assert not klass.corner_closed
        pair = optimal_pair(d, klass)
        assert pair is not None and not pair.nested
        with pytest.raises(PreconditionViolated, match="corner dicut"):
            uncross(d, pair.dijoin, pair.family, klass=klass)
        for nested_pair in (nested_optimal_pair(d, klass), split_solve_merge(d, klass)):
            assert nested_pair.nested and nested_pair.dijoin == pair.dijoin
            assert [m.in_shore for m in nested_pair.family] == [
                frozenset({"0", "1", "2", "3", "4"}),
                frozenset({"0", "1"}),
            ]
            verify_optimal_pair(d, klass, nested_pair)

    def test_refused_uncrossing_on_a_corner_closed_class_raises(self, monkeypatch):
        # The diamond with its edges listed so that the first packing crosses.
        d = Digraph.from_edges([("s", "a"), ("a", "t"), ("b", "t"), ("s", "b")])
        klass = listed_full(d)

        def refuse(*args, **kwargs):
            raise PreconditionViolated("planted")

        monkeypatch.setattr(solver, "uncross", refuse)
        with pytest.raises(PreconditionViolated, match="planted"):
            nested_optimal_pair(d, klass)

    def test_gap_on_a_corner_closed_class_raises(self, monkeypatch):
        d = diamond()
        klass = listed_full(d)
        assert klass.corner_closed
        monkeypatch.setattr(
            solver, "_disjoint_members", lambda klass, stop=None, also=None: [klass.members[0]]
        )
        with pytest.raises(DualityGapDetected) as info:
            optimal_pair(d, klass)
        assert info.value.min_dijoin_size == 2
        assert info.value.max_packing_size == 1


# What each check raises for a value that is no edge id of the diamond
# (edges 0..3): the id check's own error, never one from shifting by it
# or comparing it, and never a silent drop of a value that is no int.
BAD_EDGE_IDS = [
    (bad, ValueError, "edge set contains unknown edge ids")
    for bad in (-1, 4, "x", 1.5, "1", None)
]


class TestBadEdgeIds:
    @staticmethod
    def checks(f):
        d = diamond()
        klass = DibondClass.full(d)
        nested_family = (Dicut(d, {"t"}), Dicut(d, {"a", "b", "t"}))
        crossing_family = [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})]
        return {
            "is_dijoin": lambda: is_dijoin(d, f, klass),
            "verify_optimal_pair": lambda: verify_optimal_pair(
                d, klass, OptimalPair(frozenset(f), nested_family, True)
            ),
            "uncross": lambda: uncross(d, f, crossing_family),
            "uncross with a class": lambda: uncross(d, f, crossing_family, klass=klass),
        }

    @pytest.mark.parametrize("bad, error, message", BAD_EDGE_IDS)
    def test_a_dijoin_with_a_bad_id_is_refused_by_the_id_check(self, bad, error, message):
        for name, check in self.checks({0, 2, bad}).items():
            with pytest.raises(Exception) as info:
                check()
            assert (type(info.value), str(info.value)) == (error, message), name

    @pytest.mark.parametrize("bad, error, message", BAD_EDGE_IDS)
    def test_a_bad_id_alone_meets_no_member(self, bad, error, message):
        # uncross checks the exactly-once counts before the dijoin itself,
        # and a value that is no edge id meets no family member.
        for name, check in self.checks({bad}).items():
            with pytest.raises(Exception) as info:
                check()
            if name.startswith("uncross"):
                assert type(info.value) is PreconditionViolated, name
                assert str(info.value) == "dijoin must meet each family member exactly once"
            else:
                assert (type(info.value), str(info.value)) == (error, message), name


class TestUncross:
    def test_crossing_diamond_family_uncrosses_to_corners(self):
        d = diamond()
        family = [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})]
        result = uncross(d, {0, 2}, family)
        shores = {m.in_shore for m in result}
        assert shores == {frozenset({"t"}), frozenset({"a", "b", "t"})}
        assert nested(result[0], result[1])

    def test_first_crossing_takes_pairs_in_index_order(self):
        # uncross replaces the first crossing pair, so the order fixes its output.
        star = Digraph.from_edges([("r", "x0"), ("r", "x1"), ("r", "x2")])
        family = [Dicut(star, s) for s in ({"x0", "x1"}, {"x1", "x2"}, {"x0", "x2"})]
        assert _first_crossing(family) == (0, 1)
        assert _first_crossing([Dicut(star, {"x0"}), Dicut(star, {"x1"})]) is None

    def test_cross_free_test_matches_the_pairwise_scan(self):
        # Random shore families: shores holding the fixed vertex (bit 0),
        # the empty and the whole shore, crossing pairs and singletons.
        rng = random.Random("cross-free")
        seen = set()
        for _ in range(3000):
            n = rng.randint(1, 7)
            d = Digraph(range(n), [])
            full = (1 << n) - 1
            size = rng.choice((0, 1, 2, rng.randint(3, 9)))
            family = [Dicut._known(d, rng.randint(0, full), 0) for _ in range(size)]
            expected = all(nested_by_shores(a, b) for a, b in combinations(family, 2))
            assert solver._pairwise_nested(family) == expected, [m.shore_mask for m in family]
            seen.add((size, expected, any(m.shore_mask & 1 for m in family)))
        assert {(0, True, False), (1, True, True), (2, False, True)} <= seen
        assert {(s, v, True) for s in (2, 3) for v in (True, False)} <= seen

    def test_preconditions_are_named(self):
        d = diamond()
        with pytest.raises(PreconditionViolated):
            uncross(d, {0, 2}, [Dicut(d, {"t"}), Dicut(d, {"a", "t"})])
        with pytest.raises(PreconditionViolated):
            uncross(d, {0, 3}, [Dicut(d, {"t"})])

    def test_full_class_precondition_matches_the_scan(self):
        # Without a class, uncross decides "dijoin for the full class" by
        # strong connectivity; the scan over DibondClass.full is the reference.
        rng = random.Random(23)
        verdicts = set()
        for _ in range(200):
            d = random_weak_digraph(rng, max_n=8, max_extra=8)
            f = {e for e in d.edge_ids() if rng.random() < 0.5}
            ok, _missed = is_dijoin(d, f, DibondClass.full(d))
            verdicts.add(ok)
            if ok:
                assert uncross(d, f, []) == []
            else:
                with pytest.raises(PreconditionViolated, match="ambient class"):
                    uncross(d, f, [])
        assert verdicts == {True, False}

    def test_full_class_precondition_refuses_disconnected_input(self):
        d = Digraph.from_edges([("a", "b"), ("c", "d")])
        with pytest.raises(PreconditionViolated, match="weakly connected"):
            uncross(d, {0, 1}, [])


class TestCornerClosure:
    def test_diamond_seed_closes_to_the_full_class(self):
        d = diamond()
        seed = [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})]
        closed = corner_closure(d, seed)
        assert closed.corner_closed
        assert len(closed) == 4

    def test_seed_is_checked_and_the_cap_counts_the_closure(self):
        d = diamond()
        seed = [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})]
        assert len(corner_closure(d, seed, cap=4)) == 4
        for cap in (1, 3):
            with pytest.raises(CapExceeded):
                corner_closure(d, seed, cap=cap)
        with pytest.raises(CapExceeded):
            corner_closure(d, DibondClass.full(d), cap=3)
        with pytest.raises(ValueError, match="is not a dibond"):
            corner_closure(d, seed + [Dicut(d, set())])
        other = Digraph.from_edges([("x", "y")])
        with pytest.raises(ValueError, match="belongs to a different digraph"):
            corner_closure(d, [Dicut(other, {"y"})])

    def test_closure_is_a_fixpoint(self):
        d = diamond()
        closed = corner_closure(d, [Dicut(d, {"a", "t"}), Dicut(d, {"b", "t"})])
        again = corner_closure(d, closed.members)
        assert {m.in_shore for m in again.members} == {
            m.in_shore for m in closed.members
        }


    def test_no_pair_of_members_is_met_twice(self, monkeypatch):
        # The pass over the seed's pairs is the closure check itself, so a
        # closure of k members meets each of its k(k-1)/2 pairs once; a
        # separate check before the fixpoint loop met the seed's pairs again.
        d = window(get_family("grid_d2"), 3).digraph
        bonds = enumerate_dibonds(d)
        seeds = [random.Random(i).sample(bonds, 6) for i in range(20)]
        counts = []
        meet = solver.meet

        def counted(a, b):
            counts[-1] += 1
            return meet(a, b)

        monkeypatch.setattr(solver, "meet", counted)
        closures = []
        for seed in seeds:
            counts.append(0)
            closures.append(corner_closure(d, seed))
        monkeypatch.undo()
        for seed, closed, count in zip(seeds, closures, counts):
            expected = corner_closure_by_passes(seed)
            assert [m.shore_mask for m in closed.members] == [m.shore_mask for m in expected]
            assert count == len(closed) * (len(closed) - 1) // 2
        assert sum(counts) <= 460

    def test_min_equals_max_on_closures_of_random_seeds(self):
        # The rule that a gap raises on every corner-closed class rests on
        # this: Lucchesi-Younger holds on crossing families (Edmonds and
        # Giles 1977), not only on the full class. Sizes come from the
        # brute-force oracles, independent of the solvers.
        rng = random.Random(41)
        closures = proper = 0
        while closures < 300:
            d = random_weak_digraph(rng, max_n=8, max_extra=8)
            bonds = enumerate_dibonds(d)
            if len(bonds) < 2:
                continue
            klass = corner_closure(d, rng.sample(bonds, rng.randint(2, min(len(bonds), 4))))
            assert DibondClass.from_members(d, klass.members).corner_closed
            members = list(klass.members)
            size = len(brute_min_dijoin(d, members))
            assert len(brute_max_packing(members)) == size
            pair = optimal_pair(d, klass)
            assert pair is not None and len(pair.dijoin) == size
            verify_optimal_pair(d, klass, pair)
            closures += 1
            proper += len(klass) < len(bonds)
        assert proper > 100


class TestNestedFamilyConstruction:
    def test_union_of_the_nested_family_is_a_dijoin(self):
        d = diamond()
        klass = DibondClass.full(d)
        family = maximal_nested_disjoint_family(d, klass)
        assert len(family) == len(max_disjoint_dicuts(d, klass))
        union = frozenset(e for m in family for e in m.edge_set)
        ok, _ = is_dijoin(d, union, klass)
        assert ok

    def test_requires_a_corner_closed_class(self):
        d, klass = gap_instance()
        with pytest.raises(NotCornerClosed):
            maximal_nested_disjoint_family(d, klass)


class TestDFTest:
    """_meets_every_dibond reads D plus the reverse of F; the earlier test
    contracted F into a new digraph and condensed it."""

    @staticmethod
    def agree(d, f, bonds):
        verdict = _meets_every_dibond(d, f)
        assert verdict is meets_every_dibond_by_contraction(d, f)
        assert verdict is all(b.edge_set & f for b in bonds)
        return verdict

    def test_seeded_digraphs(self):
        rng = random.Random(29)
        verdicts = []
        for _ in range(300):
            d = random_weak_digraph(rng, max_n=7, max_extra=7)
            bonds = brute_dibonds(d)
            for _ in range(4):
                f = frozenset(e for e in d.edge_ids() if rng.random() < 0.6)
                verdicts.append(self.agree(d, f, bonds))
        assert 300 < verdicts.count(True) < len(verdicts) - 300

    @pytest.mark.parametrize("name, nmax", [("grid_d2", 7), ("zigzag_d1", 12)])
    def test_every_named_set_of_the_family_windows(self, name, nmax):
        verdicts = []
        for n in range(1, nmax + 1):
            w = window(get_family(name), n)
            bonds = enumerate_dibonds(w.digraph)
            for f in w.named_edge_sets.values():
                verdicts.append(self.agree(w.digraph, f, bonds))
                # Without its lowest edge the set may miss a dibond.
                verdicts.append(self.agree(w.digraph, f - {min(f, default=0)}, bonds))
        assert True in verdicts and False in verdicts

    def test_the_empty_and_single_vertex_digraphs_pass(self):
        assert _meets_every_dibond(Digraph((), ()), frozenset())
        assert _meets_every_dibond(Digraph(("x",), ()), frozenset())

    def test_a_finitary_check_builds_no_digraph(self, monkeypatch):
        w = window(get_family("zigzag_d1"), 40)
        built = []
        init = Digraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Digraph, "__init__", counting_init)
        assert check_finitary_dijoin(w, "diagonals") == (True, None)
        assert not built
