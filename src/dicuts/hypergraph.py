"""Finite hypergraph machinery: matchings, covers, and the Koenig property.

A hypergraph has the Koenig property when some maximum matching M admits a
cover A built by picking exactly one vertex from each member of M. Such a
pair forces the matching and cover optima to coincide, which is the
hypergraph form of an optimal pair: the dibond hypergraph of a digraph
turns dijoins into covers and disjoint dicut families into matchings, and
the path hypergraph of a digraph's underlying undirected multigraph turns
Menger's theorem into the same statement.

Any cover meets the members of a matching in distinct vertices, so the
cover number tau is at least the matching number nu (weak duality). The
property therefore holds exactly when tau = nu, and then every maximum
matching has a one-per-member cover: a least cover meets each of its nu
disjoint members and has only nu vertices. So one maximum matching
decides the property, and no search over maximum matchings is needed.
The cover is the first pick of one vertex per matching member, in
lexicographic order (solver._picks), that meets every hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .core import Digraph
from .enumeration import DEFAULT_CAP, enumerate_dibonds
from .errors import CapExceeded
from .solver import _meets_all, _picks, _set_key, exact_max_set_packing, exact_min_hitting_set


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """A finite hypergraph; every hyperedge is a finite nonempty vertex set."""

    vertices: frozenset
    hyperedges: tuple

    def __post_init__(self) -> None:
        for h in self.hyperedges:
            if not h:
                raise ValueError("hyperedges must be nonempty")
            if not h <= self.vertices:
                raise ValueError("hyperedge contains undeclared vertices")

    @staticmethod
    def from_edges(hyperedges: Iterable[Iterable], vertices: Iterable = ()) -> "Hypergraph":
        edges = tuple(frozenset(h) for h in hyperedges)
        verts = set(vertices)
        for h in edges:
            verts |= h
        return Hypergraph(vertices=frozenset(verts), hyperedges=edges)

    @cached_property
    def _matching(self) -> tuple:
        """The distinct hyperedges in canonical order and their first maximum
        matching, searched once for konig_property and fin_parameter_check."""
        edges = sorted(set(self.hyperedges), key=_set_key)
        return edges, [edges[i] for i in exact_max_set_packing(edges)]


@dataclass(frozen=True, eq=False)
class KonigPair:
    """A matching and a cover picking exactly one vertex per matching member."""

    matching: tuple
    cover: frozenset


def konig_property(hypergraph: Hypergraph) -> Optional[KonigPair]:
    """A maximum matching with a one-vertex-per-member cover, or None.

    Only the canonical maximum matching, the first that exact set packing
    finds among the hyperedges in canonical order, is searched for such a
    cover. That decides the property: a one-per-member cover of a maximum
    matching has nu vertices, so tau = nu; conversely when tau = nu, a
    least cover meets each of the nu disjoint members of every maximum
    matching and has only nu vertices, so it meets each exactly once.
    """
    edges, members = hypergraph._matching
    slots = [sorted(m) for m in members]
    cover = next(_picks(slots, _meets_all(slots, edges)), None)
    if cover is None:
        return None
    return KonigPair(matching=tuple(members), cover=frozenset(cover))


def dibond_hypergraph(digraph: Digraph, cap: int = DEFAULT_CAP) -> Hypergraph:
    """Vertices are the digraph's edge ids; hyperedges are its dibond edge sets."""
    dibonds = enumerate_dibonds(digraph, cap)
    return Hypergraph(
        vertices=frozenset(digraph.edge_ids()),
        hyperedges=tuple(b.edge_set for b in dibonds),
    )


def menger_hypergraph(graph: Digraph, a_set: Iterable, b_set: Iterable, cap: int = DEFAULT_CAP) -> Hypergraph:
    """Hyperedges are the vertex sets of paths from A to B, internally avoiding both.

    The paths live in the underlying undirected multigraph of the digraph,
    so edge directions are ignored, as in the block-cut tree. A path meets
    A and B only at its endpoints; a vertex in both A and B is itself a
    single-vertex path. Hyperedges are deduplicated by vertex set
    and the hypergraph's vertices are exactly those lying on some path.
    The cap counts distinct vertex sets, not paths.
    """
    a_set = frozenset(a_set)
    b_set = frozenset(b_set)
    if not a_set <= graph.vertices or not b_set <= graph.vertices:
        raise ValueError("endpoint sets must be vertices of the graph")
    blocked = a_set | b_set
    found: set = set()

    def record(path: list) -> None:
        vertex_set = frozenset(path)
        if vertex_set in found:
            return
        if len(found) >= cap:
            raise CapExceeded(cap, "enumerating paths")
        found.add(vertex_set)

    for a in sorted(a_set):
        if a in b_set:
            record([a])
        path, on_path, untried = [a], {a}, [iter(graph.und_neighbors(a))]
        while untried:
            step = next(untried[-1], None)
            if step is None:
                untried.pop()
                on_path.discard(path.pop())
                continue
            w = step[0]
            if w in on_path:
                continue
            if w in b_set:
                record(path + [w])
                continue
            if w in blocked:
                continue
            path.append(w)
            on_path.add(w)
            untried.append(iter(graph.und_neighbors(w)))
    hyperedges = tuple(sorted(found, key=_set_key))
    vertices: set = set()
    for h in hyperedges:
        vertices |= h
    return Hypergraph(vertices=frozenset(vertices), hyperedges=hyperedges)


def fin_parameter_check(hypergraph: Hypergraph) -> bool:
    """Validate the finite matching-cover relationship on a finite hypergraph.

    Checks that the exact minimum cover is at least as large as the exact
    maximum matching, and that the union of an inclusion-maximal matching
    is a cover. Both hold on every finite hypergraph; the check exists to
    validate the solvers against each other.
    """
    edges, matching = hypergraph._matching
    if not edges:
        return True
    cover_size = len(exact_min_hitting_set(edges))
    union: set = set()
    for h in edges:
        if not (h & union):
            union |= h
    union_covers = all(h & union for h in edges)
    return cover_size >= len(matching) and union_covers
