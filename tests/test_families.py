"""Symbolic window families and the finite-approximation harness."""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from dicuts import (
    CapExceeded,
    DibondClass,
    Digraph,
    FAMILIES,
    PreconditionViolated,
    check_finitary_dijoin,
    compactness_run,
    condensation,
    dibond_growth,
    finite_dibonds_in_window,
    get_family,
    is_weakly_connected,
    min_dijoin,
    nested,
    nested_extension_search,
    nested_optimal_pair,
    optimal_pair,
    window,
    window_coherent,
)
from dicuts import core, enumeration, families, solver
from dicuts.enumeration import _successor_bits

from .oracles import (
    RAW_BY_FSTRINGS,
    brute_min_dijoin,
    dijoin_choices_by_product,
    disconnected_digraphs,
    finitary_by_scan,
    meets_every_dibond_by_contraction,
    nested_extension_by_recursion,
    random_dag,
    random_weak_digraph,
    selection_fault,
    unrooted_weak_digraphs,
    weakly_connected_by_labels,
    window_from_raw,
)


class TestRegistry:
    def test_known_families(self):
        assert sorted(FAMILIES) == [
            "grid_d2",
            "ladder",
            "transitive_tournament",
            "zigzag_d1",
        ]
        for name, spec in FAMILIES.items():
            assert spec.name == name
            assert spec.description

    def test_unknown_family_is_reported_with_the_known_names(self):
        with pytest.raises(ValueError, match="zigzag_d1"):
            get_family("nope")

    def test_window_index_must_be_positive(self):
        with pytest.raises(ValueError):
            window(get_family("zigzag_d1"), 0)


def _window_fields(w):
    """Every field of a built window; the class map as sorted items."""
    d = w.digraph
    return (
        w.spec,
        w.n,
        d.vertex_order,
        d.edges,
        sorted(w.class_map.items()),
        list(w.edge_provenance.items()),
        list(w.name_to_edge.items()),
        list(w.named_edge_sets.items()),
        w.dropped_edges,
    )


# The largest window index each family's generator is compared at.
_REFERENCE_TOPS = {"zigzag_d1": 60, "ladder": 60, "grid_d2": 30, "transitive_tournament": 20}


class TestGeneratorsAgreeWithTheEarlierOnes:
    """The generators that name each vertex and edge once, and window,
    against the earlier ones kept in the oracles."""

    @pytest.mark.parametrize("family", sorted(RAW_BY_FSTRINGS))
    def test_raw_windows(self, family):
        spec = get_family(family)
        for n in range(1, _REFERENCE_TOPS[family] + 1):
            got, want = spec._raw(n), RAW_BY_FSTRINGS[family](n)
            assert got.symbolic_edges == want.symbolic_edges, n
            assert list(got.named_sets.items()) == list(want.named_sets.items()), n
            # The earlier grid generator listed class_of in set order.
            assert sorted(got.class_of.items()) == sorted(want.class_of.items()), n

    @pytest.mark.parametrize("family", sorted(_REFERENCE_TOPS))
    def test_built_windows(self, family):
        spec = get_family(family)
        # The tournament's generator is unchanged; window is compared there.
        reference = RAW_BY_FSTRINGS.get(family, spec._raw)
        for n in range(1, _REFERENCE_TOPS[family] + 1):
            got = window(spec, n)
            assert _window_fields(got) == _window_fields(window_from_raw(spec, n, reference(n))), n


def _counting(monkeypatch, module, name: str) -> list:
    """Patch module.name to record the arguments of each call; the list."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestConnectivityAndComponentsAreKept:
    """A digraph's weak connectivity verdict and its own strong components
    are found once and kept on it."""

    @pytest.mark.parametrize(
        "family, n, set_name",
        [
            ("zigzag_d1", 10, "diagonals"),
            ("zigzag_d1", 6, "spokes_without_first"),
            ("grid_d2", 6, "horizontal_steps"),
        ],
    )
    def test_one_component_search_per_finitary_check(self, monkeypatch, family, n, set_name):
        searches = _counting(monkeypatch, core, "_components")
        check_finitary_dijoin(window(get_family(family), n), set_name)
        assert len(searches) == 1

    @pytest.mark.parametrize(
        "family, n, set_name",
        [
            ("zigzag_d1", 10, "diagonals"),
            ("zigzag_d1", 10, "verticals_and_first_spoke"),
            ("zigzag_d1", 6, "spokes_without_first"),
            ("grid_d2", 6, "horizontal_steps"),
        ],
    )
    def test_one_component_search_per_nested_check(self, monkeypatch, family, n, set_name):
        searches = _counting(monkeypatch, core, "_components")
        nested_extension_search(window(get_family(family), n), set_name)
        assert len(searches) == 1

    def test_connectivity_verdicts_and_refusals_are_unchanged(self):
        rng = random.Random(12)
        digraphs = list(disconnected_digraphs()) + [random_weak_digraph(rng) for _ in range(80)]
        for d in digraphs:
            connected = weakly_connected_by_labels(d)
            # The refusal decides first on a fresh digraph, then reads the slot.
            for _ in range(2):
                if connected:
                    assert DibondClass.full(d).implicit
                else:
                    with pytest.raises(PreconditionViolated):
                        DibondClass.full(d)
                assert is_weakly_connected(d) is connected

    def test_a_ladder_window_is_condensed_once(self, monkeypatch):
        walks = _counting(monkeypatch, enumeration, "_strong_components")
        w = window(get_family("ladder"), 20)
        assert len(condensation(w.digraph).components) == 1
        assert finite_dibonds_in_window(w) == []
        assert len(walks) == 1

    def test_the_cutting_planes_leave_the_kept_successor_bits_alone(self, monkeypatch):
        loops = _counting(monkeypatch, solver, "_cutting_planes")
        digraphs = unrooted_weak_digraphs(random.Random(33), 20, max_n=8, max_extra=8)
        for d in digraphs:
            before = _successor_bits(d)
            pair = nested_optimal_pair(d)
            assert pair.dijoin
            assert enumeration._own_components(d)[0] == before
        assert len(loops) == len(digraphs)


class TestZigzagWindows:
    def test_window_two_structure(self):
        w = window(get_family("zigzag_d1"), 2)
        assert sorted(w.digraph.vertices) == ["a0", "a1", "b0", "b1", "b2", "rest"]
        assert w.digraph.edges == (
            ("a0", "b0"),
            ("a1", "b1"),
            ("rest", "b2"),
            ("a0", "b1"),
            ("a1", "b2"),
            ("b0", "rest"),
            ("b1", "rest"),
            ("b2", "rest"),
        )
        assert w.name_to_edge == {
            "a0->b0": 0,
            "a1->b1": 1,
            "a2->b2": 2,
            "a0->b1": 3,
            "a1->b2": 4,
            "b0->r": 5,
            "b1->r": 6,
            "b2->r": 7,
        }

    def test_windows_are_weakly_connected_and_class_maps_are_onto(self):
        for name in FAMILIES:
            for n in (1, 2, 3):
                w = window(get_family(name), n)
                assert is_weakly_connected(w.digraph)
                assert set(w.class_map.values()) == set(w.digraph.vertices)

    def test_dibond_counts_follow_the_quadratic(self):
        spec = get_family("zigzag_d1")
        counts = [
            len(finite_dibonds_in_window(window(spec, n))) for n in (1, 2, 3, 4)
        ]
        assert counts == [2, 5, 9, 14]
        assert counts == [n * (n + 3) // 2 for n in (1, 2, 3, 4)]

    def test_dibond_enumeration_is_cached_per_window(self):
        w = window(get_family("zigzag_d1"), 3)
        first = finite_dibonds_in_window(w)
        second = finite_dibonds_in_window(w)
        assert [d.in_shore for d in first] == [d.in_shore for d in second]

    def test_named_sets_at_window_two(self):
        w = window(get_family("zigzag_d1"), 2)
        assert {k: sorted(v) for k, v in w.named_edge_sets.items()} == {
            "verticals": [0, 1, 2],
            "diagonals": [3, 4],
            "spokes": [5, 6, 7],
            "verticals_and_first_spoke": [0, 1, 2, 5],
            "spokes_without_first": [6, 7],
        }

    def test_unknown_named_set_is_rejected(self):
        w = window(get_family("zigzag_d1"), 2)
        with pytest.raises(ValueError, match="diagonals"):
            check_finitary_dijoin(w, "nope")


class TestZigzagChecks:
    def test_diagonals_hit_every_dibond(self):
        spec = get_family("zigzag_d1")
        for n in (1, 2, 3, 4, 5):
            ok, miss = check_finitary_dijoin(window(spec, n), "diagonals")
            assert ok and miss is None

    def test_verticals_with_first_spoke_hit_every_dibond(self):
        spec = get_family("zigzag_d1")
        for n in (1, 2, 3, 4, 5):
            ok, miss = check_finitary_dijoin(
                window(spec, n), "verticals_and_first_spoke"
            )
            assert ok and miss is None

    def test_dropping_the_first_spoke_misses_the_first_star(self):
        w = window(get_family("zigzag_d1"), 3)
        ok, miss = check_finitary_dijoin(w, "spokes_without_first")
        assert not ok
        assert {w.digraph.edges[e] for e in miss.edge_set} == {
            ("a0", "b0"),
            ("a0", "b1"),
        }

    def test_diagonals_extend_to_a_nested_selection(self):
        spec = get_family("zigzag_d1")
        for n in (1, 2, 3, 4):
            w = window(spec, n)
            selection = nested_extension_search(w, "diagonals")
            assert selection is not None
            assert set(selection) == set(w.named_edge_sets["diagonals"])
            members = list(selection.values())
            for i, b1 in enumerate(members):
                assert b1.is_dibond
                for b2 in members[i + 1 :]:
                    assert nested(b1, b2)
                    assert not (b1.edge_set & b2.edge_set)
            for e, b in selection.items():
                assert e in b.edge_set
                diag = frozenset(w.named_edge_sets["diagonals"])
                assert len(diag & b.edge_set) == 1

    def test_verticals_with_first_spoke_never_extend(self):
        spec = get_family("zigzag_d1")
        for n in (1, 2, 3, 4, 5):
            assert nested_extension_search(
                window(spec, n), "verticals_and_first_spoke"
            ) is None


class TestFinitaryByStrongConnectivity:
    WINDOWS = [("zigzag_d1", n) for n in range(1, 13)] + [
        ("grid_d2", n) for n in range(1, 7)
    ]

    def test_named_sets_agree_with_the_dibond_scan(self):
        for family, n in self.WINDOWS:
            w = window(get_family(family), n)
            for set_name in sorted(w.named_edge_sets):
                assert check_finitary_dijoin(w, set_name) == finitary_by_scan(w, set_name)

    def test_random_edge_sets_agree_with_the_dibond_scan(self):
        rng = random.Random(17)
        windows = [window(get_family(family), n) for family, n in self.WINDOWS]
        verdicts = set()
        for _ in range(200):
            w = rng.choice(windows)
            p = rng.random()
            sample = frozenset(e for e in range(w.digraph.m) if rng.random() < p)
            w = replace(w, named_edge_sets={"sample": sample})
            got = check_finitary_dijoin(w, "sample")
            assert got == finitary_by_scan(w, "sample")
            verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_only_a_refutation_enumerates_and_so_meets_the_cap(self):
        w = window(get_family("zigzag_d1"), 3)
        assert len(finite_dibonds_in_window(w)) > 1
        assert check_finitary_dijoin(w, "diagonals", cap=1) == (True, None)
        with pytest.raises(CapExceeded):
            check_finitary_dijoin(w, "spokes_without_first", cap=1)

    def test_a_refutation_without_a_missed_dibond_is_an_internal_error(self, monkeypatch):
        # is_dijoin decides check_finitary_dijoin, so this reaches its error.
        monkeypatch.setattr(solver, "_meets_every_dibond", lambda digraph, f: False)
        w = window(get_family("zigzag_d1"), 4)
        with pytest.raises(RuntimeError, match="internal error"):
            check_finitary_dijoin(w, "diagonals")


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _agrees_with_the_recursion(w, set_name):
    """The search's answer, held against the recursion's.

    A set that misses a dibond is still decided by the search, so it must
    make the recursion's selection. A dijoin is decided by the min-max
    instead: it must get the recursion's verdict, and any selection it
    returns must pass the independent check.
    """
    got = nested_extension_search(w, set_name)
    want = nested_extension_by_recursion(w, set_name)
    if finitary_by_scan(w, set_name)[0]:
        assert (got is None) == (want is None)
        if got is not None:
            assert selection_fault(w.digraph, w.named_edge_sets[set_name], got) is None
    else:
        assert got == want
    return got


class TestNestedExtensionSearch:
    def test_selections_agree_with_the_recursion(self):
        for family, n in TestFinitaryByStrongConnectivity.WINDOWS:
            w = window(get_family(family), n)
            for set_name in sorted(w.named_edge_sets):
                _agrees_with_the_recursion(w, set_name)

    def test_random_edge_sets_agree_with_the_recursion(self):
        # Small random sets reach every outcome: a selection, no selection,
        # and an edge that no dibond meets without another edge of the set.
        rng = random.Random(23)
        windows = [
            window(get_family(family), n) for family, n in TestFinitaryByStrongConnectivity.WINDOWS
        ]
        outcomes = set()
        for _ in range(200):
            w = rng.choice(windows)
            sample = frozenset(rng.sample(range(w.digraph.m), min(w.digraph.m, rng.randint(1, 4))))
            w = replace(w, named_edge_sets={"sample": sample})
            got = _agrees_with_the_recursion(w, "sample")
            dibonds = finite_dibonds_in_window(w)
            orphan = any(
                all(len(b.edge_set & sample) != 1 or e not in b.edge_set for b in dibonds)
                for e in sample
            )
            outcomes.add("orphan" if orphan else got is not None)
        assert outcomes == {True, False, "orphan"}

    def test_zigzag_window_60_stays_within_the_recursion_limit(self):
        # The search once recursed once per named edge: 59 levels here.
        # Without its last edge the diagonals miss a dibond, so the search,
        # not the min-max, decides them; the rest of the diagonals'
        # selection is a selection for them.
        w = window(get_family("zigzag_d1"), 60)
        sample = w.named_edge_sets["diagonals"] - {max(w.named_edge_sets["diagonals"])}
        w = replace(w, named_edge_sets={"sample": sample})
        assert not check_finitary_dijoin(w, "sample")[0]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 40)
        try:
            selection = nested_extension_search(w, "sample")
        finally:
            sys.setrecursionlimit(limit)
        assert selection is not None
        assert selection_fault(w.digraph, sample, selection) is None


def _greedy_minimal_dijoin(rng, digraph, start):
    """A minimal dijoin inside the dijoin `start`: its edges, in random
    order, are dropped while the rest still meets every dibond."""
    f = set(start)
    for e in rng.sample(sorted(f), len(f)):
        if meets_every_dibond_by_contraction(digraph, f - {e}):
            f.discard(e)
    return frozenset(f)


def _outcome(digraph, f, cuts=None):
    """Whether solver._dijoin_selection finds a selection for the dijoin
    f, "present" or "absent", once any selection it returns has passed
    the independent check and the verdict has been held against the
    brute-force minimum dijoin over `cuts` (all dicuts when None)."""
    got = solver._dijoin_selection(digraph, f)
    if got is not None:
        assert selection_fault(digraph, f, got) is None
    assert (got is not None) == (len(f) == len(brute_min_dijoin(digraph, cuts)))
    return "present" if got is not None else "absent"


class TestNestedSelectionOfADijoin:
    """solver._dijoin_selection, which nested_extension_search runs on every
    set that meets all window dibonds."""

    WINDOWS = [
        (family, n)
        for family in ("zigzag_d1", "grid_d2", "transitive_tournament")
        for n in range(1, 8)
    ]

    def test_random_window_dijoins_agree_with_the_recursion(self):
        # Supersets of a minimum dijoin, and minimal dijoins found greedily
        # from all edges: the first have a selection only when no edge was
        # added, the second whenever they happen to be minimum.
        rng = random.Random(29)
        verdicts = set()
        for family, n in self.WINDOWS:
            w = window(get_family(family), n)
            d = w.digraph
            least = optimal_pair(d).dijoin
            for _ in range(4):
                extra = frozenset(rng.sample(range(d.m), rng.randint(0, 2)))
                for f in (least | extra, _greedy_minimal_dijoin(rng, d, range(d.m))):
                    sample = replace(w, named_edge_sets={"sample": f})
                    got = _agrees_with_the_recursion(sample, "sample")
                    verdicts.add((got is not None, len(f) == len(least)))
        assert verdicts == {(True, True), (False, False)}

    def test_random_minimal_dijoins_get_valid_selections(self):
        # Parallel and antiparallel edges included; the verdict is held
        # against a brute-force minimum dijoin.
        rng = random.Random(31)
        exits = set()
        for i in range(300):
            if i % 2:
                d = random_weak_digraph(rng, 8, 9)
            else:
                d = random_dag(rng, rng.randint(2, 8), rng.randint(0, 8))
            f = _greedy_minimal_dijoin(rng, d, range(d.m))
            got = solver._dijoin_selection(d, f)
            assert (got is not None) == (len(f) == len(brute_min_dijoin(d)))
            if got is not None:
                assert selection_fault(d, f, got) is None
            exits.add(got is not None)
        assert exits == {True, False}

    # Edges are (tail, head) pairs.
    NAMED = [
        ("parallel pair", [(0, 1), (0, 1)], {0, 1}, "absent"),
        ("path", [(0, 1), (1, 2)], {0, 1}, "present"),
        ("diamond with a chord", [(0, 1), (0, 2), (2, 3), (1, 3), (1, 2)], {1, 2}, "present"),
        ("diamond", [(0, 1), (0, 2), (1, 3), (2, 3)], {1, 3}, "present"),
        ("transitive triangle", [(0, 1), (2, 0), (2, 1)], {0, 1}, "absent"),
    ]

    @pytest.mark.parametrize("edges, f, outcome", [x[1:] for x in NAMED], ids=[x[0] for x in NAMED])
    def test_each_outcome_on_a_named_input(self, edges, f, outcome):
        d = Digraph.from_edges(edges)
        assert meets_every_dibond_by_contraction(d, f)
        assert _outcome(d, frozenset(f)) == outcome

    def test_each_outcome_on_the_family_windows(self):
        zigzag, grid = get_family("zigzag_d1"), get_family("grid_d2")
        for spec, set_name, n, outcome in (
            (zigzag, "verticals_and_first_spoke", 3, "absent"),
            (zigzag, "diagonals", 1, "present"),
            (zigzag, "diagonals", 3, "present"),
            (grid, "vertical_drops", 4, "present"),
            (grid, "horizontal_steps", 3, "absent"),
            (grid, "horizontal_steps", 2, "absent"),
        ):
            w = window(spec, n)
            cuts = list(finite_dibonds_in_window(w))
            assert _outcome(w.digraph, w.named_edge_sets[set_name], cuts) == outcome

    def test_a_crossing_optimum_uncrosses_into_dibonds(self):
        # Two or more source and sink components, so cutting planes solve,
        # and their family sometimes crosses; nested_optimal_pair then
        # uncrosses it into meets and joins. A minimum dijoin meets each
        # of those once, so each is a dibond.
        rng = random.Random(41)
        crossed = 0
        for d in unrooted_weak_digraphs(rng, 200, max_n=12, max_extra=14):
            if optimal_pair(d).nested:
                continue
            crossed += 1
            least = brute_min_dijoin(d)
            for f in (least, _greedy_minimal_dijoin(rng, d, range(d.m))):
                got = solver._dijoin_selection(d, f)
                assert (got is not None) == (len(f) == len(least))
                if got is not None:
                    assert all(b.is_dibond for b in got.values())
                    assert selection_fault(d, f, got) is None
        assert crossed

    def test_an_antiparallel_twin_keeps_its_arc(self):
        # b->a is also the reversed arc of a->b, and a->b is redundant: D
        # has the one dicut, into {c}, so τ = 1 < |F|. With a parallel twin
        # instead, τ = 2 < |F| = 3.
        d = Digraph.from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        assert meets_every_dibond_by_contraction(d, {0, 2})
        assert solver._dijoin_selection(d, frozenset({0, 2})) is None
        twins = Digraph.from_edges([("a", "b"), ("a", "b"), ("b", "c")])
        assert solver._dijoin_selection(twins, frozenset({0, 1, 2})) is None

    def test_only_a_set_that_is_no_dijoin_lists_and_so_meets_the_cap(self):
        w = window(get_family("zigzag_d1"), 3)
        assert len(finite_dibonds_in_window(w)) > 1
        assert nested_extension_search(w, "diagonals", cap=1) is not None
        assert nested_extension_search(w, "verticals_and_first_spoke", cap=1) is None
        w = window(get_family("grid_d2"), 2)
        assert nested_extension_search(w, "horizontal_steps", cap=1) is None
        with pytest.raises(CapExceeded):
            nested_extension_search(window(get_family("zigzag_d1"), 3), "spokes_without_first", cap=1)

    def test_dijoins_are_decided_without_the_dibond_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the dibond walk ran")

        monkeypatch.setattr(enumeration, "_dibond_masks", walk)
        zigzag, grid = get_family("zigzag_d1"), get_family("grid_d2")
        assert nested_extension_search(window(zigzag, 60), "diagonals") is not None
        assert nested_extension_search(window(zigzag, 60), "verticals_and_first_spoke") is None
        assert nested_extension_search(window(grid, 12), "vertical_drops") is not None
        for n in (11, 12):
            assert nested_extension_search(window(grid, n), "horizontal_steps") is None


class TestGridWindows:
    def test_dibond_counts(self):
        spec = get_family("grid_d2")
        counts = [
            len(finite_dibonds_in_window(window(spec, n))) for n in (1, 2, 3, 4, 5)
        ]
        assert counts == [1, 7, 11, 41, 57]

    def test_named_set_sizes_at_window_three(self):
        w = window(get_family("grid_d2"), 3)
        assert len(w.named_edge_sets["vertical_drops"]) == 3
        assert len(w.named_edge_sets["horizontal_steps"]) == 6

    def test_both_families_are_finitary_dijoins(self):
        spec = get_family("grid_d2")
        for n in (1, 2, 3, 4):
            w = window(spec, n)
            assert check_finitary_dijoin(w, "vertical_drops")[0]
            assert check_finitary_dijoin(w, "horizontal_steps")[0]

    def test_only_the_drops_extend_to_a_nested_selection(self):
        spec = get_family("grid_d2")
        for n in (1, 2, 3, 4):
            w = window(spec, n)
            assert nested_extension_search(w, "vertical_drops") is not None
            assert nested_extension_search(w, "horizontal_steps") is None


class TestLadderWindows:
    def test_windows_are_strongly_connected(self):
        spec = get_family("ladder")
        for n in (1, 2, 3, 6, 10):
            w = window(spec, n)
            assert len(condensation(w.digraph).components) == 1
            assert finite_dibonds_in_window(w) == []

    def test_boundary_rungs_drop_as_loops(self):
        w = window(get_family("ladder"), 2)
        assert w.dropped_edges == ("w-2->u-2", "w2->u2")

    def test_growth_is_identically_zero(self):
        assert dibond_growth(get_family("ladder"), "w0->u0", 5) == (0, 0, 0, 0, 0)


class TestTournamentWindows:
    def test_every_dibond_contains_the_first_bundle(self):
        spec = get_family("transitive_tournament")
        w = window(spec, 3)
        bundle = w.name_to_edge["0->*"]
        bonds = finite_dibonds_in_window(w)
        assert len(bonds) == 4
        assert all(bundle in d.edge_set for d in bonds)

    def test_min_dijoin_is_the_first_bundle(self):
        spec = get_family("transitive_tournament")
        w = window(spec, 3)
        klass = DibondClass.from_members(
            w.digraph, finite_dibonds_in_window(w)
        )
        dijoin = min_dijoin(w.digraph, klass)
        assert dijoin == frozenset({w.name_to_edge["0->*"]})


class TestGrowth:
    def test_zigzag_first_spoke_count_grows_linearly(self):
        assert dibond_growth(get_family("zigzag_d1"), "b0->r", 6) == (
            1,
            2,
            3,
            4,
            5,
            6,
        )

    def test_unknown_edge_name_is_rejected(self):
        with pytest.raises(ValueError):
            dibond_growth(get_family("ladder"), "zzz", 3)

    def test_each_window_is_built_once(self, monkeypatch):
        built = []

        def counting_window(spec, n):
            built.append(n)
            return window(spec, n)

        monkeypatch.setattr(families, "window", counting_window)
        assert dibond_growth(get_family("zigzag_d1"), "b0->r", 6) == (1, 2, 3, 4, 5, 6)
        assert sorted(built) == [1, 2, 3, 4, 5, 6]


class TestCompactness:
    def test_threading_restricted_star_members(self):
        stars = [
            {"a0->b0", "a0->b1"},
            {"a1->b1", "a1->b2"},
            {"a2->b2", "a2->b3"},
        ]
        report = compactness_run(get_family("zigzag_d1"), 4, restrict_to=stars)
        assert [
            (r.n, r.member_count, r.family_size, r.choice_count, r.thread_count)
            for r in report.rows
        ] == [
            (1, 1, 1, 2, 2),
            (2, 2, 2, 4, 2),
            (3, 3, 3, 8, 2),
            (4, 3, 3, 8, 2),
        ]
        assert report.consistent
        assert report.unstable_at is None
        assert sorted(report.stable_dijoin) == ["a0->b0", "a1->b2", "a2->b3"]

    def test_full_zigzag_class_stabilizes_on_the_diagonals(self):
        report = compactness_run(get_family("zigzag_d1"), 3)
        assert report.consistent
        assert sorted(report.stable_dijoin) == ["a0->b1", "a1->b2", "a2->b3"]

    def test_ladder_needs_nothing(self):
        report = compactness_run(get_family("ladder"), 4)
        assert report.consistent
        assert report.stable_dijoin == frozenset()

    def test_tournament_threads_pin_the_first_bundle(self):
        report = compactness_run(get_family("transitive_tournament"), 4)
        assert report.consistent
        assert report.stable_dijoin == frozenset({"0->*"})

    def test_choice_cap_is_enforced(self):
        with pytest.raises(CapExceeded):
            compactness_run(get_family("zigzag_d1"), 3, choice_cap=3)

    @pytest.mark.parametrize(
        "family, n_max", [("zigzag_d1", 12), ("grid_d2", 8), ("transitive_tournament", 5)]
    )
    def test_choices_match_the_product_filter(self, monkeypatch, family, n_max):
        picks_per_window = []

        def recording_picks(slots, fits):
            picks = list(solver._picks(slots, fits))
            picks_per_window.append(picks)
            return iter(picks)

        monkeypatch.setattr(families, "_picks", recording_picks)
        report = compactness_run(get_family(family), n_max)
        assert len(picks_per_window) == n_max
        for n, picks, row in zip(range(1, n_max + 1), picks_per_window, report.rows):
            w = window(get_family(family), n)
            got = [frozenset(w.edge_provenance[e] for e in pick) for pick in picks]
            assert got == dijoin_choices_by_product(w, DibondClass.full(w.digraph))
            assert row.choice_count == len(got)


class TestCoherence:
    def test_quotient_style_families_are_coherent(self):
        assert window_coherent(get_family("zigzag_d1"), 2, 5)
        assert window_coherent(get_family("ladder"), 2, 5)
        assert window_coherent(get_family("grid_d2"), 2, 4)

    def test_identity_window_is_coherent(self):
        assert window_coherent(get_family("zigzag_d1"), 3, 3)

    def test_tournament_bundles_break_exact_coherence(self):
        assert not window_coherent(get_family("transitive_tournament"), 2, 4)

    def test_a_contraction_defect_is_not_a_verdict(self, monkeypatch):
        def broken(digraph, edge_ids):
            raise RuntimeError("internal error: contraction kept an edge outside the target set")

        monkeypatch.setattr(families, "contract_to", broken)
        with pytest.raises(RuntimeError, match="internal error"):
            window_coherent(get_family("zigzag_d1"), 2, 5)
