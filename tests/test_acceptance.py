"""End-to-end acceptance sweep.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line; run with ``pytest -v -s`` to see the verdict lines next to
the per-test results.  The checks lean on the independent brute-force
oracles in ``tests/oracles.py`` rather than on the package's own machinery
wherever a second opinion is possible.
"""

import itertools
import random
import time

import pytest

from dicuts import (
    DibondClass,
    Dicut,
    Digraph,
    block_cut_tree,
    check_finitary_dijoin,
    condensation,
    corner_closure,
    decompose_dicut,
    dibond_growth,
    dibond_hypergraph,
    enumerate_dibonds,
    enumerate_dicuts,
    equivalence_classes,
    finite_dibonds_in_window,
    get_family,
    is_dijoin,
    join,
    konig_property,
    max_disjoint_dicuts,
    maximal_nested_disjoint_family,
    meet,
    menger_hypergraph,
    min_dijoin,
    nested,
    nested_extension_search,
    optimal_pair,
    nested_optimal_pair,
    split_solve_merge,
    verify_optimal_pair,
    window,
)

from .oracles import (
    brute_dibond_partitions,
    brute_dibonds,
    connected_subset,
    exhaustive_simple_digraphs,
    exhaustive_three_vertex_corpus,
    kosaraju_scc,
    max_disjoint_path_count,
    random_multigraph_edges,
    random_weak_digraph,
)


class _verdict:
    """Context manager that prints one pass/fail line per criterion."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        outcome = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {outcome} - {self.label}")
        return False


@pytest.fixture(scope="module")
def corpus3():
    return exhaustive_three_vertex_corpus()


@pytest.fixture(scope="module")
def random7():
    rng = random.Random(20260818)
    digraphs = [random_weak_digraph(rng, max_n=7, max_extra=7) for _ in range(1000)]
    assert all(len(d.vertices) <= 7 and len(d.edges) <= 14 for d in digraphs)
    return digraphs


@pytest.fixture(scope="module")
def simple4():
    out = []
    for n in (2, 3, 4):
        out.extend(exhaustive_simple_digraphs(n, 6))
    return out


def _two_vertex_multi_corpus():
    """All weakly connected digraphs on {a, b} with arc multiplicity <= 2."""
    out = []
    for fwd in range(3):
        for back in range(3):
            if fwd + back == 0:
                continue
            edges = [("a", "b")] * fwd + [("b", "a")] * back
            out.append(Digraph.from_edges(edges))
    return out


def test_criterion_01_min_dijoin_equals_max_packing(corpus3, random7):
    with _verdict(
        1,
        "min dijoin size equals max disjoint dicut packing on 410 exhaustive "
        "+ 1000 random digraphs",
    ):
        start = time.time()
        for d in itertools.chain(corpus3, random7):
            klass = DibondClass.full(d)
            assert len(min_dijoin(d, klass)) == len(max_disjoint_dicuts(d, klass))
        assert time.time() - start < 300


def test_criterion_02_optimal_pairs_verify(corpus3, random7):
    with _verdict(
        2,
        "optimal_pair and nested_optimal_pair verified on the same corpus, "
        "nested flag set",
    ):
        for d in itertools.chain(corpus3, random7):
            klass = DibondClass.full(d)
            pair = optimal_pair(d, klass)
            npair = nested_optimal_pair(d, klass)
            assert pair is not None and npair is not None
            if not klass.members:
                assert pair.family == () and not pair.dijoin
            verify_optimal_pair(d, klass, pair)
            verify_optimal_pair(d, klass, npair)
            assert npair.nested
            fam = list(npair.family)
            for i, b1 in enumerate(fam):
                for b2 in fam[i + 1 :]:
                    assert nested(b1, b2)


def test_criterion_03_corner_identities(corpus3, simple4):
    with _verdict(
        3,
        "corner set and cardinality identities exhaustive over dicut pairs "
        "and all edge subsets, |V| <= 4",
    ):
        popcount = bytes(bin(i).count("1") for i in range(64))
        for d in itertools.chain(_two_vertex_multi_corpus(), corpus3, simple4):
            m = len(d.edges)
            assert m <= 6
            cuts = enumerate_dicuts(d)
            masks = [
                sum(1 << e for e in c.edge_set) for c in cuts
            ]
            for i, c1 in enumerate(cuts):
                for j in range(i, len(cuts)):
                    c2 = cuts[j]
                    lo = meet(c1, c2)
                    hi = join(c1, c2)
                    assert (c1.edge_set & c2.edge_set) == (lo.edge_set & hi.edge_set)
                    assert (c1.edge_set | c2.edge_set) == (lo.edge_set | hi.edge_set)
                    b1, b2 = masks[i], masks[j]
                    bl = sum(1 << e for e in lo.edge_set)
                    bh = sum(1 << e for e in hi.edge_set)
                    for f in range(1 << m):
                        assert (
                            popcount[b1 & f] + popcount[b2 & f]
                            == popcount[bl & f] + popcount[bh & f]
                        )
                    if not (c1.edge_set & c2.edge_set):
                        assert not (lo.edge_set & hi.edge_set)
                    if i != j and not nested(c1, c2):
                        assert lo.edge_set and hi.edge_set


def test_criterion_04_decomposition_matches_brute_force(corpus3, simple4):
    with _verdict(
        4,
        "decompose_dicut reproduces a brute-force dibond partition on every "
        "dicut, |V| <= 5",
    ):
        rng = random.Random(54321)
        small = [d for d in simple4 if len(d.vertices) <= 4]
        randoms5 = [random_weak_digraph(rng, max_n=5, max_extra=6) for _ in range(300)]
        for d in itertools.chain(corpus3, small, randoms5):
            bonds = brute_dibonds(d)
            for cut in enumerate_dicuts(d):
                parts = decompose_dicut(cut)
                seen = set()
                for p in parts:
                    assert p.is_dibond
                    assert not (p.edge_set & seen)
                    seen |= p.edge_set
                assert seen == cut.edge_set
                covers = {
                    frozenset(b.edge_set for b in cover)
                    for cover in brute_dibond_partitions(d, cut.edge_set, bonds)
                }
                ours = frozenset(p.edge_set for p in parts)
                assert ours in covers
                if len(covers) == 1:
                    assert {ours} == covers


def _random_generators(rng, d):
    bonds = [c for c in enumerate_dicuts(d) if c.is_dibond]
    if not bonds:
        return []
    return rng.sample(bonds, rng.randint(1, min(3, len(bonds))))


def test_criterion_05_quotients_and_blocks():
    with _verdict(
        5,
        "SCC partition on 500 randoms, five quotient statements, 200 "
        "multi-block merges match direct solves",
    ):
        rng = random.Random(505)
        for _ in range(500):
            d = random_weak_digraph(rng)
            qm = equivalence_classes(d, enumerate_dicuts(d))
            ours = {frozenset(members) for members in qm.classes().values()}
            theirs = {frozenset(c) for c in kosaraju_scc(d)}
            assert ours == theirs

        rng = random.Random(515)
        for _ in range(120):
            d = random_weak_digraph(rng)
            gens = _random_generators(rng, d)
            qm = equivalence_classes(d, gens)
            q = qm.quotient
            assert connected_subset(q, set(q.vertices))
            expand = {cid: frozenset(ms) for cid, ms in qm.classes().items()}
            images = []
            for g in gens:
                image = Dicut(q, frozenset(qm.class_of[v] for v in g.in_shore))
                images.append(image)
                assert (
                    frozenset(qm.edge_provenance[e] for e in image.edge_set)
                    == g.edge_set
                )
            for qcut in enumerate_dicuts(q):
                shore = frozenset().union(*(expand[c] for c in qcut.in_shore))
                lifted = Dicut(d, shore)
                assert (
                    frozenset(qm.edge_provenance[e] for e in qcut.edge_set)
                    == lifted.edge_set
                )
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    assert nested(gens[i], gens[j]) == nested(images[i], images[j])
            reps = sorted(qm.classes())
            for c1, c2 in itertools.combinations(reps, 2):
                v = qm.classes()[c1][0]
                w = qm.classes()[c2][0]
                assert any((v in g.in_shore) != (w in g.in_shore) for g in gens)

        rng = random.Random(525)
        merged_count = 0
        while merged_count < 200:
            d = random_weak_digraph(rng, max_n=7, max_extra=3)
            if len(block_cut_tree(d).blocks) < 2:
                continue
            merged_count += 1
            klass = DibondClass.full(d)
            merged = split_solve_merge(d, klass)
            direct = optimal_pair(d, klass)
            if direct is None:
                assert merged is None or not merged.family
                continue
            assert merged is not None and merged.nested
            assert len(merged.dijoin) == len(direct.dijoin)
            verify_optimal_pair(d, klass, merged)


def test_criterion_06_zigzag_windows():
    with _verdict(
        6,
        "zigzag: diagonals finitary and nested through n<=20; verticals "
        "plus first spoke finitary but never nested (absent from n=1 on, "
        "covering every n>=3)",
    ):
        start = time.time()
        spec = get_family("zigzag_d1")
        first_absent = None
        for n in range(1, 21):
            w = window(spec, n)
            ok, miss = check_finitary_dijoin(w, "diagonals")
            assert ok and miss is None
            ok, miss = check_finitary_dijoin(w, "verticals_and_first_spoke")
            assert ok and miss is None
            assert nested_extension_search(w, "diagonals") is not None
            absent = nested_extension_search(w, "verticals_and_first_spoke") is None
            if absent and first_absent is None:
                first_absent = n
            if n >= 3:
                assert absent
        assert first_absent == 1
        assert time.time() - start < 120


def test_criterion_07_grid_windows():
    with _verdict(
        7,
        "grid: vertical drops nested through n<=10; horizontal steps "
        "finitary with nested extension absent (threshold reported below)",
    ) as v:
        spec = get_family("grid_d2")
        first_absent = None
        for n in range(1, 11):
            w = window(spec, n)
            assert check_finitary_dijoin(w, "vertical_drops")[0]
            assert check_finitary_dijoin(w, "horizontal_steps")[0]
            assert nested_extension_search(w, "vertical_drops") is not None
            if (
                first_absent is None
                and nested_extension_search(w, "horizontal_steps") is None
            ):
                first_absent = n
        assert first_absent is not None
        assert first_absent == 1
        v.label += f"; first absent window n={first_absent}"


def test_criterion_08_ladder_windows():
    with _verdict(
        8,
        "ladder: every window n<=50 strongly connected with zero finite "
        "dibonds; growth profile identically zero",
    ):
        spec = get_family("ladder")
        for n in range(1, 51):
            w = window(spec, n)
            assert len(condensation(w.digraph).components) == 1
            assert finite_dibonds_in_window(w) == []
        growth = dibond_growth(spec, "w0->u0", 50)
        assert len(growth) == 50 and set(growth) == {0}


def test_criterion_09_konig_machinery(corpus3, random7):
    with _verdict(
        9,
        "Konig pairs on every dibond hypergraph match the packing number; "
        "Menger hypergraphs match the flow oracle on 100 random graphs; "
        "corner closures reach a fixpoint",
    ):
        for d in itertools.chain(corpus3, random7):
            hg = dibond_hypergraph(d)
            kp = konig_property(hg)
            assert kp is not None
            assert len(kp.matching) == len(max_disjoint_dicuts(d, DibondClass.full(d)))

        rng = random.Random(909)
        pairs_seen = 0
        for _ in range(100):
            vertices, edges = random_multigraph_edges(rng, max_n=8, max_m=12)
            k = rng.randint(1, max(1, len(vertices) // 2))
            a_set = frozenset(rng.sample(vertices, k))
            b_set = frozenset(rng.sample(vertices, k))
            hg = menger_hypergraph(Digraph(vertices, edges), a_set, b_set)
            kp = konig_property(hg)
            if kp is not None:
                pairs_seen += 1
                assert len(kp.matching) == max_disjoint_path_count(
                    edges, a_set, b_set
                )
        assert pairs_seen >= 25

        rng = random.Random(919)
        closures_checked = 0
        for d in itertools.chain(corpus3, random7[:300]):
            bonds = enumerate_dibonds(d)
            if not bonds:
                continue
            seed = rng.sample(bonds, rng.randint(1, min(3, len(bonds))))
            closed = corner_closure(d, seed)
            assert closed.corner_closed
            again = corner_closure(d, closed.members)
            assert set(again.members) == set(closed.members)
            closures_checked += 1
        assert closures_checked >= 400


def test_criterion_10_nested_family_construction(corpus3, random7):
    with _verdict(
        10,
        "maximal nested disjoint family unions are dijoins and match the "
        "packing number on corner-closed classes",
    ):
        rng = random.Random(1010)
        for d in itertools.chain(corpus3, random7[:400]):
            classes = [DibondClass.full(d)]
            bonds = enumerate_dibonds(d)
            if bonds:
                seed = rng.sample(bonds, rng.randint(1, min(3, len(bonds))))
                classes.append(corner_closure(d, seed))
            for klass in classes:
                family = maximal_nested_disjoint_family(d, klass)
                union = frozenset(e for member in family for e in member.edge_set)
                ok, missed = is_dijoin(d, union, klass)
                assert ok and missed is None
                assert len(family) == len(max_disjoint_dicuts(d, klass))
                for i, b1 in enumerate(family):
                    for b2 in family[i + 1 :]:
                        assert nested(b1, b2)
                        assert not (b1.edge_set & b2.edge_set)
