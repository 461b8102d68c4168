"""Self-test of the benchmark: its oracles, corpus and window generators.

    python3 -m pytest -q bench/test_bench.py

Not part of the package's test suite; it checks the benchmark itself.
"""

from __future__ import annotations

import os
import random
import sys
from itertools import combinations

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import dicuts  # noqa: E402

import corpus  # noqa: E402
import oracles  # noqa: E402


def _solved(edges):
    digraph = dicuts.Digraph.from_edges(edges)
    pair = dicuts.nested_optimal_pair(digraph, dicuts.DibondClass.full(digraph))
    return oracles.vertices_of(edges), sorted(pair.dijoin), [m.in_shore for m in pair.family]


def _solved_dags(count):
    rng = random.Random("self-test")
    found = []
    while len(found) < count:
        edges = corpus.random_dag(rng, rng.randint(5, 8), 6)
        try:
            found.append((edges,) + _solved(edges))
        except dicuts.DualityGapDetected:
            continue
    return found


def test_optimal_pair_oracle_accepts_the_package_answer():
    for edges, vertices, dijoin, shores in _solved_dags(20):
        assert oracles.check_optimal_pair(vertices, edges, dijoin, shores) is None


def test_oracle_rejects_a_dijoin_with_one_edge_removed():
    for edges, vertices, dijoin, shores in _solved_dags(20):
        for e in dijoin:
            smaller = [x for x in dijoin if x != e]
            # A minimum dijoin is minimal, so the D/F test alone must fail.
            assert not oracles.meets_every_dicut(vertices, edges, frozenset(smaller))
            assert oracles.check_optimal_pair(vertices, edges, smaller, shores) is not None


def _crossing_swap(edges, vertices, dijoin, shores):
    """The family with two members replaced by a crossing pair that keeps every
    other property: nonempty dicuts, edge-disjoint, each meeting F once."""
    f = frozenset(dijoin)
    cuts = {y: oracles.entering(edges, y) for y in oracles.brute_force_cuts(edges, False)}
    usable = [y for y, c in cuts.items() if len(c & f) == 1]
    for i, j in combinations(range(len(shores)), 2):
        rest = [s for k, s in enumerate(shores) if k not in (i, j)]
        taken = frozenset().union(*(oracles.entering(edges, s) for s in rest))
        for y1, y2 in combinations(usable, 2):
            crossing = not (y1 <= y2 or y2 <= y1 or not (y1 & y2) or y1 | y2 == vertices)
            if crossing and not (cuts[y1] & cuts[y2]) and not ((cuts[y1] | cuts[y2]) & taken):
                return rest + [y1, y2]
    return None


def test_oracle_rejects_a_family_with_a_crossing_pair():
    swapped = 0
    for edges, vertices, dijoin, shores in _solved_dags(40):
        family = _crossing_swap(edges, vertices, dijoin, shores)
        if family is None:
            continue
        swapped += 1
        assert oracles.check_optimal_pair(vertices, edges, dijoin, family, nested=False) is None
        assert "cross" in oracles.check_optimal_pair(vertices, edges, dijoin, family)
    assert swapped >= 3


def _corpus_bytes(seed, directory):
    files, ops = corpus.cli_corpus(seed)
    corpus.write_cli_files(files, directory, dicuts)
    written = b"".join(name.encode() + (directory / name).read_bytes() for name in sorted(files))
    return b"\n".join([repr(corpus.solve_corpus(seed)).encode(),
                       repr(corpus.window_sweep_corpus(seed)).encode(),
                       repr(ops).encode(), written])


def test_one_seed_regenerates_a_byte_identical_corpus(tmp_path):
    assert _corpus_bytes(7, tmp_path / "a") == _corpus_bytes(7, tmp_path / "b")


def test_another_seed_gives_another_corpus(tmp_path):
    first, second = _corpus_bytes(7, tmp_path / "a"), _corpus_bytes(8, tmp_path / "b")
    assert first != second
    for build in (corpus.solve_corpus, corpus.window_sweep_corpus):
        assert build(7) != build(8)


def test_window_generators_match_the_package():
    for family, top in (("zigzag_d1", 40), ("grid_d2", 10), ("ladder", 12)):
        for n in range(1, top + 1):
            w = dicuts.window(dicuts.get_family(family), n)
            edges, named = corpus.WINDOWS[family](n)
            assert tuple(edges) == w.digraph.edges
            assert named == dict(w.named_edge_sets)


def test_block_chains_have_the_promised_blocks():
    rng = random.Random(3)
    for _ in range(20):
        edges, cutvertices = corpus.block_chain(rng, rng.randint(2, 5))
        tree = dicuts.block_cut_tree(dicuts.Digraph.from_edges(edges))
        assert len(tree.blocks) == len(cutvertices) + 1
        assert tree.cutvertices == cutvertices
