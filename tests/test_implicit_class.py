"""The implicit full class: the branching on rooted digraphs, cutting
planes, the warm-started master and the tight packing, checked against
the listed class and brute force."""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from dicuts import (
    CapExceeded,
    DibondClass,
    Dicut,
    Digraph,
    DualityGapDetected,
    OptimalPair,
    PreconditionViolated,
    VerificationFailed,
    decompose_dicut,
    enumerate_dibonds,
    get_family,
    is_dijoin,
    min_dijoin,
    nested,
    nested_optimal_pair,
    optimal_pair,
    uncross,
    verify_optimal_pair,
    window,
)
from dicuts import enumeration, solver
from dicuts.core import bit_positions
from dicuts.enumeration import _successor_bits, _walk_tables
from dicuts.solver import _min_hitting_mask

from .oracles import (
    brute_dicuts,
    brute_max_packing,
    brute_min_dijoin,
    dibond_by_labels,
    disconnected_digraphs,
    end_component_counts,
    entering_and_leaving,
    kosaraju_scc,
    meets_every_dicut,
    min_hitting_mask_by_rows,
    random_dag,
    random_multigraph_edges,
    random_weak_digraph,
    unrooted_weak_digraphs,
)

DIAMOND = [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]


def listed_full(d):
    """The full class with its members listed, so that the solvers search them."""
    return DibondClass._known(d, DibondClass.full(d).members, True)


@pytest.fixture
def no_walk(monkeypatch):
    """Make the dibond walk raise, so that any listing of a class fails."""

    def walk(*args, **kwargs):
        raise AssertionError("the dibond walk ran")

    monkeypatch.setattr(enumeration, "_dibond_masks", walk)


def differential_inputs():
    """(name, digraph) pairs: bench-sized random DAGs for two seeds, random
    weak digraphs with parallel edges, zigzag and grid windows, and the
    strongly connected and trivial digraphs."""
    for seed in (1, 7919):
        rng = random.Random(f"implicit:{seed}")
        for i in range(40):
            n = rng.randint(12, 24)
            yield f"dag-{seed}-{i}", random_dag(rng, n, n)
    rng = random.Random("implicit:weak")
    for i in range(300):
        yield f"weak-{i}", random_weak_digraph(rng, max_n=7, max_extra=8, parallels=True)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        yield f"zigzag-{n}", window(get_family("zigzag_d1"), n).digraph
    for n in range(1, 11):
        yield f"grid-{n}", window(get_family("grid_d2"), n).digraph
    yield "strong", Digraph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
    yield "one vertex", Digraph.from_edges([], isolated=["a"])
    yield "empty", Digraph([], [])


def check_pair(d, pair):
    """The pair is a verified nested optimal pair of the full class."""
    assert pair is not None and pair.nested
    # The oracle counts no strong component in the empty digraph.
    assert d.n == 0 or meets_every_dicut(d, pair.dijoin)
    family = list(pair.family)
    assert all(nested(a, b) for i, a in enumerate(family) for b in family[i + 1:])
    verify_optimal_pair(d, None, pair)


class TestAgainstTheListedClass:
    def test_same_size_and_both_classes_verify(self, monkeypatch):
        self.check_against_the_listed_class(monkeypatch)

    def test_cutting_planes_agree_on_rooted_inputs_too(self, monkeypatch):
        # Most inputs above are rooted and take the branching; here every
        # input takes the cutting-plane loop.
        monkeypatch.setattr(solver, "_rooting", lambda tables: None)
        self.check_against_the_listed_class(monkeypatch)

    def check_against_the_listed_class(self, monkeypatch):
        inputs = list(differential_inputs())
        listed = [listed_full(d) for _name, d in inputs]
        taus = [len(min_dijoin(d, klass)) for (_name, d), klass in zip(inputs, listed)]
        dibond_masks = enumeration._dibond_masks

        def walk(*args, **kwargs):
            raise AssertionError("the dibond walk ran")

        monkeypatch.setattr(enumeration, "_dibond_masks", walk)
        pairs = [nested_optimal_pair(d, DibondClass.full(d)) for _name, d in inputs]
        monkeypatch.setattr(enumeration, "_dibond_masks", dibond_masks)
        for (name, d), klass, tau, pair in zip(inputs, listed, taus, pairs):
            assert len(pair.dijoin) == len(pair.family) == tau, name
            check_pair(d, pair)
            verify_optimal_pair(d, klass, pair)

    def test_no_class_means_the_implicit_full_class(self, no_walk):
        d = window(get_family("zigzag_d1"), 20).digraph
        pair = optimal_pair(d)
        assert pair.dijoin == optimal_pair(d, DibondClass.full(d)).dijoin
        assert nested_optimal_pair(d).dijoin == nested_optimal_pair(d, DibondClass.full(d)).dijoin
        verify_optimal_pair(d, None, pair)

    def test_trivial_digraphs_have_the_empty_pair(self, no_walk):
        for d in (
            Digraph([], []),
            Digraph.from_edges([], isolated=["a"]),
            Digraph.from_edges([("a", "b"), ("b", "a")]),
        ):
            pair = nested_optimal_pair(d, DibondClass.full(d))
            assert pair.dijoin == frozenset() and pair.family == () and pair.nested


class TestConstruction:
    def test_disconnected_input_is_refused_with_the_walk_s_message(self):
        for d in disconnected_digraphs(count=20):
            with pytest.raises(PreconditionViolated) as walk:
                enumerate_dibonds(d)
            with pytest.raises(PreconditionViolated) as full:
                DibondClass.full(d)
            assert str(full.value) == str(walk.value) == "dibonds need a weakly connected digraph"
            with pytest.raises(PreconditionViolated):
                optimal_pair(d)

    def test_members_are_listed_on_first_read_under_the_cap(self, no_walk, monkeypatch):
        d = window(get_family("zigzag_d1"), 10).digraph
        klass = DibondClass.full(d, cap=3)
        assert klass.implicit and klass.corner_closed
        assert "members" not in vars(klass)
        monkeypatch.undo()
        assert DibondClass.full(d).members == tuple(
            sorted(enumerate_dibonds(d), key=solver._member_key)
        )
        with pytest.raises(CapExceeded):
            len(klass)


class TestIsDijoin:
    def test_agrees_with_the_listed_class_and_lists_only_on_failure(self, monkeypatch):
        rng = random.Random("implicit:is_dijoin")
        for _ in range(150):
            d = random_weak_digraph(rng)
            listed = listed_full(d)
            f = {e for e in range(d.m) if rng.random() < 0.5}
            want = is_dijoin(d, f, listed)
            implicit = DibondClass.full(d)
            assert is_dijoin(d, f, implicit) == want
            assert ("members" in vars(implicit)) == (not want[0])

    def test_a_dijoin_is_decided_without_listing(self, no_walk):
        d = window(get_family("zigzag_d1"), 40).digraph
        klass = DibondClass.full(d)
        pair = optimal_pair(d, klass)
        assert is_dijoin(d, pair.dijoin, klass) == (True, None)


class TestFailedDijoinIsNotListed:
    """The verifier and uncross decide a failing dijoin on the implicit
    class by D/F, never by listing the class to name a missed member."""

    def test_the_diamond_under_a_cap_of_one(self):
        d = Digraph.from_edges(DIAMOND)
        with pytest.raises(VerificationFailed, match="dijoin misses a class member"):
            verify_optimal_pair(d, DibondClass.full(d, 1), OptimalPair(frozenset({0}), (), False))
        with pytest.raises(PreconditionViolated, match="dijoin for the ambient class"):
            uncross(d, [0], [], klass=DibondClass.full(d, 1))
        # is_dijoin still lists the class to name the member it misses.
        with pytest.raises(CapExceeded):
            is_dijoin(d, {0}, DibondClass.full(d, 1))

    def test_a_probe_dag_whose_class_is_too_large_to_list(self, no_walk):
        d = random_dag(random.Random("probe:60:0"), 60, 60)
        for klass in (None, DibondClass.full(d)):
            with pytest.raises(VerificationFailed, match="dijoin misses a class member"):
                verify_optimal_pair(d, klass, OptimalPair(frozenset(), (), False))
            with pytest.raises(PreconditionViolated, match="dijoin for the ambient class"):
                uncross(d, [], [], klass=klass)


class TestVerifiedOnce:
    # A digraph with two source and two sink components, so solved by
    # cutting planes, whose tight packing from the constraints crosses.
    CROSSING = [("v1", "v0"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"),
                ("v5", "v3"), ("v3", "v6"), ("v0", "v7"), ("v7", "v4")]

    def test_each_pair_is_verified_once_per_solve(self, monkeypatch):
        calls = []
        verify = solver.verify_optimal_pair

        def counted(*args):
            calls.append(args[2])
            verify(*args)

        monkeypatch.setattr(solver, "verify_optimal_pair", counted)
        d = Digraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        klass = DibondClass.full(d)
        assert optimal_pair(d, klass) is not None and len(calls) == 1
        calls.clear()
        pair = nested_optimal_pair(d, klass)
        assert pair is calls[0] and len(calls) == 1
        crossing = Digraph.from_edges(self.CROSSING)
        calls.clear()
        pair = nested_optimal_pair(crossing, DibondClass.full(crossing))
        assert [p.nested for p in calls] == [False, True] and pair is calls[1]


class TestCertificate:
    def test_the_listed_fallback_packs_the_tight_members(self, monkeypatch):
        rng = random.Random("implicit:fallback")
        tight_picks = solver._tight_picks
        klass = None

        def members_only(candidates, f, also=None):
            # Only the fallback's call, on the members it just listed, searches.
            if candidates is vars(klass).get("members"):
                return tight_picks(candidates, f, also)
            return None

        monkeypatch.setattr(solver, "_tight_picks", members_only)
        # Rooted draws would be solved by the branching, with no fallback.
        for d in unrooted_weak_digraphs(rng, 40):
            klass = DibondClass.full(d)
            pair = nested_optimal_pair(d, klass)
            assert len(pair.dijoin) == len(min_dijoin(d, listed_full(d)))
            check_pair(d, pair)
            assert "members" in vars(klass)

    def test_a_short_fallback_packing_is_a_duality_gap(self, monkeypatch):
        # Two sources and two sinks, so solved by cutting planes; tau = 2.
        d = Digraph.from_edges([("s", "t"), ("s", "u"), ("r", "t"), ("r", "u")])
        monkeypatch.setattr(solver, "_tight_picks", lambda candidates, f, also=None: None)
        monkeypatch.setattr(solver, "_largest_disjoint", lambda masks, stop=None, also=None: [0])
        with pytest.raises(DualityGapDetected) as info:
            optimal_pair(d, DibondClass.full(d))
        assert (info.value.min_dijoin_size, info.value.max_packing_size) == (2, 1)


class TestWarmStart:
    def test_start_and_lower_keep_the_optimum(self):
        rng = random.Random("implicit:warm")
        for _ in range(300):
            masks = sorted(
                {sum(1 << p for p in rng.sample(range(9), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 10))},
                key=lambda m: (m.bit_count(), bit_positions(m)),
            )
            size = min_hitting_mask_by_rows(masks).bit_count()
            union = 0
            for m in masks:
                union |= m
            start = sum(1 << p for p in bit_positions(union) if rng.random() < 0.3)
            for lower in (0, size - 1, size):
                got = _min_hitting_mask(masks, max(lower, 0), start)
                assert got.bit_count() == size
                assert all(got & m for m in masks)


class TestScale:
    def test_probe_dags_past_the_listing_wall(self, no_walk):
        # Listing the class of the n=120 draw 0 passes the default cap after about 30 s.
        start = perf_counter()
        for n in (80, 120):
            for s in range(3):
                d = random_dag(random.Random(f"probe:{n}:{s}"), n, n)
                pair = nested_optimal_pair(d, DibondClass.full(d))
                assert len(pair.dijoin) == len(pair.family) > 0
                check_pair(d, pair)
        assert perf_counter() - start < 5



def reversed_digraph(d):
    """D with every edge turned round, edge ids kept."""
    return Digraph(d.vertices, [(h, t) for t, h in d.edges])


class TestRootedBranching:
    """A digraph with one source or one sink strong component is solved by
    the branching's ascent and expansion, every other by cutting planes."""

    def small_inputs(self):
        rng = random.Random("implicit:rooted")
        for _ in range(150):
            yield random_weak_digraph(rng, max_n=6, max_extra=6)
            vertices, edges = random_multigraph_edges(rng, max_n=6, max_m=9)
            # Random orientations give parallel and antiparallel edges.
            yield Digraph(vertices, [e if rng.random() < 0.5 else e[::-1] for e in edges])
        yield Digraph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        yield Digraph.from_edges([("a", "b")])
        yield Digraph.from_edges([("a", "b"), ("b", "a"), ("a", "b")])

    def test_agrees_with_brute_force_in_both_orientations(self, monkeypatch):
        calls = []
        rooted_optimum = solver._rooted_optimum

        def counted(*args):
            calls.append(args)
            return rooted_optimum(*args)

        monkeypatch.setattr(solver, "_rooted_optimum", counted)
        rooted = unrooted = 0
        for d in self.small_inputs():
            for dd in (d, reversed_digraph(d)):
                calls.clear()
                pair = nested_optimal_pair(dd)
                # Exactly the rooted inputs take the branching.
                assert bool(calls) == (1 in end_component_counts(dd)), dd.edges
                cuts = [c for c in brute_dicuts(dd) if c.edge_set]
                tau = len(brute_min_dijoin(dd, cuts))
                assert len(pair.dijoin) == len(pair.family) == tau == len(brute_max_packing(cuts))
                check_pair(dd, pair)
                if not calls:
                    unrooted += 1
                    continue
                rooted += 1
                assert all(dibond_by_labels(m) for m in pair.family)
                assert solver._pairwise_nested(list(pair.family))
        assert rooted > 400 and unrooted > 50

    def test_probe_dags_that_stall_the_cutting_planes(self, no_walk, monkeypatch):
        # Cutting planes gave no answer in 15 s on each of these.
        def refuse(*args, **kwargs):
            raise AssertionError("a rooted digraph reached the loop or uncross")

        monkeypatch.setattr(solver, "_cutting_planes", refuse)
        monkeypatch.setattr(solver, "uncross", refuse)
        taus = {(300, 1): 84, (300, 2): 97, (400, 0): 116, (400, 1): 114, (600, 0): 184}
        for (n, s), tau in taus.items():
            d = random_dag(random.Random(f"probe:{n}:{s}"), n, n)
            pair = nested_optimal_pair(d)
            assert len(pair.dijoin) == len(pair.family) == tau, (n, s)
            check_pair(d, pair)


def plus_reversed(d, f):
    """D plus the reverse of each edge of F, on D's vertices."""
    return Digraph(d.vertices, d.edges + tuple((d.head(e), d.tail(e)) for e in sorted(f)))


def reach(d, v, backward=False):
    """The vertices reachable from v in d, or reaching v when backward."""
    seen, todo = {v}, [v]
    while todo:
        u = todo.pop()
        for t, h in d.edges:
            a, b = (h, t) if backward else (t, h)
            if a == u and b not in seen:
                seen.add(b)
                todo.append(b)
    return frozenset(seen)


class TestStallRule:
    def test_zigzag_windows_take_at_most_three_master_calls(self, no_walk, monkeypatch):
        # Each sink-and-source round adds two constraints while |F| = n
        # stays put, so the parent loop called the master n/2 + 1 times.
        # Zigzag windows are rooted, so the branching is turned off here.
        monkeypatch.setattr(solver, "_rooting", lambda tables: None)
        calls = []

        def counted(*args):
            calls.append(args)
            return _min_hitting_mask(*args)

        monkeypatch.setattr(solver, "_min_hitting_mask", counted)
        for n in (10, 60, 120, 240):
            calls.clear()
            d = window(get_family("zigzag_d1"), n).digraph
            pair = nested_optimal_pair(d, DibondClass.full(d))
            assert len(pair.dijoin) == n
            check_pair(d, pair)
            assert len(calls) <= 3, (n, len(calls))

    def test_closure_shores_are_closed_and_their_dibonds_are_missed(self, monkeypatch):
        rng = random.Random("implicit:closures")
        searches = []
        search = solver._reach_within

        def counted(nbrs, subset, start, stop):
            searches.append(subset)
            return search(nbrs, subset, start, stop)

        monkeypatch.setattr(solver, "_reach_within", counted)
        for _ in range(200):
            d = random_weak_digraph(rng)
            f = frozenset(e for e in range(d.m) if rng.random() < 0.3)
            plus = plus_reversed(d, f)
            comps = kosaraju_scc(plus)
            trivial = {frozenset(), d.vertices}
            ends = {c for c in comps if not entering_and_leaving(plus, c)[1]}
            ends |= {d.vertices - c for c in comps if not entering_and_leaving(plus, c)[0]}
            ends -= trivial
            closures = {reach(plus, v) for v in d.vertices}
            closures |= {d.vertices - reach(plus, v, backward=True) for v in d.vertices}
            closures -= trivial
            assert ends <= closures
            for on in (False, True):
                shores = closures if on else ends
                for shore in shores:
                    assert not entering_and_leaving(plus, shore)[1]
                searches.clear()
                missed = solver._missed_dibonds(d, _walk_tables(d, _successor_bits(plus)), on)
                # One search per separated shore, on the side not known
                # to be connected.
                assert len(searches) == len(shores)
                firsts = {decompose_dicut(Dicut(d, shore))[0] for shore in shores}
                assert len(set(missed)) == len(missed)
                assert {(m.shore_mask, m.edge_mask) for m in missed} == {
                    (m.shore_mask, m.edge_mask) for m in firsts
                }
                assert bool(missed) == (len(comps) > 1)
                for member in missed:
                    entering, leaving = entering_and_leaving(d, member.in_shore)
                    assert member.edge_set == entering and not leaving
                    assert dibond_by_labels(member) and not member.edge_set & f


class TestFirstDibond:
    def test_dibond_shores_keep_their_edge_masks(self, monkeypatch):
        # Every shore either round separates on the diamond is a dibond,
        # so no edge mask is read off again.
        def no_cut_masks(*args):
            raise AssertionError("the edges of a dibond were read off again")

        d = Digraph.from_edges(DIAMOND)
        bonds = {c.in_shore: c for c in enumerate_dibonds(d)}
        monkeypatch.setattr(solver, "_cut_masks", no_cut_masks)
        for on, shores in (
            (False, [{"t"}, {"a", "b", "t"}]),
            (True, [{"t"}, {"a", "t"}, {"b", "t"}, {"a", "b", "t"}]),
        ):
            missed = solver._missed_dibonds(d, _walk_tables(d), on)
            assert sorted((m.shore_mask, m.edge_mask) for m in missed) == sorted(
                (bonds[s].shore_mask, bonds[s].edge_mask) for s in map(frozenset, shores)
            )
