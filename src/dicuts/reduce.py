"""Reductions that preserve cut structure: quotients, contraction minors, 2-blocks.

A family of dicuts induces an equivalence on vertices (never separated by any
family member); the quotient keeps exactly the non-internal edges and every
generating cut survives with an identical edge set. Contracting to an edge
set N collapses each weak component of the digraph minus N, and cuts inside
N correspond exactly between the digraph and the minor. Dibonds live in
single 2-blocks of the underlying multigraph, and a block's contraction
minor is the block itself, which yields a pipeline that solves each
block's minor, lifts and merges the pairs, and re-verifies the result
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Digraph,
    Dicut,
    _components,
    _edge_mask,
    _neighbour_masks,
    _require_edge_ids,
    bit_positions,
    dicut_from_edge_set,
)
from .errors import PreconditionViolated, VerificationFailed
from .solver import DibondClass, OptimalPair, _class_for, nested_optimal_pair, verify_optimal_pair


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """A vertex identification of one digraph together with the quotient.

    class_of sends every original vertex to its class id (the least vertex
    of the class); class ids are the quotient's vertices. edge_provenance
    sends each quotient edge id to the original edge it came from; edges
    internal to a class are dropped as loops and have no image. generators
    records the cuts that induced the identification, when any did.
    """

    digraph: Digraph
    quotient: Digraph
    class_of: dict
    edge_provenance: dict
    generators: tuple

    def classes(self) -> dict:
        """Class id -> sorted tuple of original vertices in that class."""
        out: dict = {}
        for v, c in self.class_of.items():
            out.setdefault(c, []).append(v)
        return {c: tuple(sorted(vs)) for c, vs in out.items()}


def _quotient_from_classes(digraph: Digraph, class_of: dict, generators: tuple) -> QuotientMap:
    edges = []
    provenance = {}
    for e, (t, h) in enumerate(digraph.edges):
        ct, ch = class_of[t], class_of[h]
        if ct == ch:
            continue
        provenance[len(edges)] = e
        edges.append((ct, ch))
    quotient = Digraph(set(class_of.values()), edges)
    return QuotientMap(
        digraph=digraph,
        quotient=quotient,
        class_of=dict(class_of),
        edge_provenance=provenance,
        generators=generators,
    )


def equivalence_classes(digraph: Digraph, cuts: Iterable[Dicut]) -> QuotientMap:
    """Quotient by a family of dicuts: identify vertices no family member separates.

    Two vertices share a class iff every listed dicut has both on the same
    shore. With no dicuts everything collapses to one vertex; with all
    dicuts of a finite digraph the classes are exactly the strongly
    connected components.
    """
    cuts = tuple(cuts)
    for cut in cuts:
        if cut.digraph != digraph:
            raise ValueError("cut belongs to a different digraph")
    shores = [cut.in_shore for cut in cuts]
    by_signature: dict = {}
    for v in reversed(digraph.vertex_order):
        sig = tuple(v in y for y in shores)
        by_signature.setdefault(sig, []).append(v)
    class_of = {}
    for group in by_signature.values():
        cid = group[0]
        for v in group:
            class_of[v] = cid
    return _quotient_from_classes(digraph, class_of, generators=cuts)


def contract_to(digraph: Digraph, edge_ids: Iterable[int]) -> QuotientMap:
    """The contraction minor keeping exactly the given edges.

    Every weak component of the digraph minus the kept edges collapses to
    one vertex; kept edges that end up inside one component are dropped as
    loops. Keeping every edge is the identity; keeping none collapses a
    weakly connected digraph to a single vertex.
    """
    kept = frozenset(edge_ids)
    _require_edge_ids(digraph, kept, "edge set contains unknown edge ids")
    order = digraph.vertex_order
    class_of = {}
    for comp in _components(_neighbour_masks(digraph, kept), (1 << digraph.n) - 1):
        # The highest bit stands for the least vertex, the class id.
        least = order[comp.bit_length() - 1]
        for j in bit_positions(comp):
            class_of[order[j]] = least
    qm = _quotient_from_classes(digraph, class_of, generators=())
    if set(qm.edge_provenance.values()) - kept:
        raise RuntimeError("internal error: contraction kept an edge outside the target set")
    return qm


def verify_cut_lift(digraph: Digraph, edge_ids: Iterable[int], b: Iterable[int]) -> bool:
    """Check that dicut and dibond status of an edge set agree between D and D.N.

    For B inside N, B is a dicut (respectively dibond) of the digraph iff
    the corresponding edges form one of the contraction minor to N. Returns
    whether both biconditionals hold.
    """
    kept = frozenset(edge_ids)
    b = frozenset(b)
    if not b <= kept:
        raise ValueError("the checked edge set must lie inside the kept edges")
    qm = contract_to(digraph, kept)
    original = dicut_from_edge_set(digraph, b)
    inverse = {orig: q for q, orig in qm.edge_provenance.items()}
    if all(e in inverse for e in b):
        minor = dicut_from_edge_set(qm.quotient, frozenset(inverse[e] for e in b))
    else:
        minor = None
    dicut_match = (original is not None) == (minor is not None)
    dibond_match = (original is not None and original.is_dibond) == (
        minor is not None and minor.is_dibond
    )
    return dicut_match and dibond_match


@dataclass(frozen=True, eq=False)
class BlockTree:
    """The 2-blocks and cutvertices of the underlying multigraph, as a tree.

    Blocks partition the edge set: a block is either a maximal 2-connected
    subgraph or the parallel class of a bridge. tree_edges lists the
    (cutvertex, block index) incidences of the block-cutvertex tree.
    """

    digraph: Digraph
    blocks: tuple
    cutvertices: frozenset
    tree_edges: tuple


def block_cut_tree(digraph: Digraph) -> BlockTree:
    """Blocks via a depth-first lowpoint sweep of the underlying multigraph.

    Requires a weakly connected digraph: the sweep starts from the least
    vertex only, and PreconditionViolated is raised when it does not
    reach every vertex. Blocks are ordered by their least edge id;
    parallel edges are distinct, so a doubled bridge forms one two-edge
    block.
    """
    disc: dict = {}
    low: dict = {}
    edge_stack: list = []
    raw_blocks: list = []
    counter = 0
    for root in digraph.vertex_order[-1:]:
        disc[root] = low[root] = counter
        counter += 1
        frames = [(root, None, iter(digraph.und_neighbors(root)))]
        while frames:
            v, entry_edge, neighbors = frames[-1]
            descended = False
            for w, e in neighbors:
                if e == entry_edge:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    edge_stack.append(e)
                    frames.append((w, e, iter(digraph.und_neighbors(w))))
                    descended = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(e)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == entry_edge:
                            break
                    raw_blocks.append(frozenset(block))
    if len(disc) != digraph.n:
        raise PreconditionViolated("block decomposition requires a weakly connected digraph")
    if edge_stack:
        raise RuntimeError("internal error: block sweep left unassigned edges")
    raw_blocks.sort(key=min)
    block_vertices = []
    for block in raw_blocks:
        verts = set()
        for e in block:
            verts.add(digraph.tail(e))
            verts.add(digraph.head(e))
        block_vertices.append(frozenset(verts))
    membership: dict = {}
    for i, verts in enumerate(block_vertices):
        for v in verts:
            membership.setdefault(v, []).append(i)
    cutvertices = frozenset(v for v, bs in membership.items() if len(bs) >= 2)
    tree_edges = tuple(
        (v, i) for v in sorted(cutvertices) for i in membership[v]
    )
    return BlockTree(
        digraph=digraph,
        blocks=tuple(raw_blocks),
        cutvertices=cutvertices,
        tree_edges=tree_edges,
    )


def split_solve_merge(digraph: Digraph, klass: DibondClass) -> Optional[OptimalPair]:
    """Solve each 2-block as its own digraph and merge, re-verifying against the whole class.

    Every dibond lies inside one block B, and contract_to(digraph, B) is B
    itself, whose dibonds are exactly the digraph's dibonds inside B
    (verify_cut_lift). An implicit class is solved on each minor's
    implicit full class, so no dibond is listed. Any other class gives
    each minor its members inside B, projected; minor edge ids follow the
    digraph's, so they keep the class order. They inherit corner_closed:
    the corners of two dibonds of one block have their edges in that
    block, and a closed sub-class that reads False only skips the defect
    check. Each block's pair is lifted back, a minor vertex standing for
    its class. Members in different blocks are automatically disjoint and
    nested, which the final verification re-checks rather than assumes.
    Returns None exactly when nested_optimal_pair does on some block: a
    genuine duality gap, or no nested pair of the dijoin's size, both
    possible only when the class is not corner-closed.
    """
    klass = _class_for(digraph, klass)
    dijoin: set = set()
    family: list = []
    for block in block_cut_tree(digraph).blocks:
        qm = contract_to(digraph, block)
        minor = qm.quotient
        sub = None
        if not klass.implicit:
            mask = _edge_mask(digraph, block)
            inside = tuple(
                Dicut(minor, _project_in_shore(qm, member.in_shore))
                for member in klass.members
                if not member.edge_mask & ~mask
            )
            sub = DibondClass._known(minor, inside, klass.corner_closed)
        pair = nested_optimal_pair(minor, sub)
        if pair is None:
            return None
        # Per minor vertex bit, the mask of the digraph's vertices it stands
        # for. The masks are disjoint, and so are the edge bits: sums are ORs.
        lift = [0] * minor.n
        for v, c in qm.class_of.items():
            lift[minor.vertex_bit[c]] |= 1 << digraph.vertex_bit[v]
        provenance = qm.edge_provenance
        dijoin.update(provenance[e] for e in pair.dijoin)
        for member in pair.family:
            shore = sum(lift[j] for j in bit_positions(member.shore_mask))
            edges = sum(1 << provenance[e] for e in bit_positions(member.edge_mask))
            family.append(Dicut._known(digraph, shore, edges))
    merged = OptimalPair(dijoin=frozenset(dijoin), family=family, nested=True)
    verify_optimal_pair(digraph, klass, merged)
    return merged


def _lift_in_shore(qm: QuotientMap, q_in_shore: frozenset) -> frozenset:
    return frozenset(v for v, c in qm.class_of.items() if c in q_in_shore)


def _project_in_shore(qm: QuotientMap, in_shore: frozenset) -> frozenset:
    touched = frozenset(c for v, c in qm.class_of.items() if v in in_shore)
    if any(c in touched for v, c in qm.class_of.items() if v not in in_shore):
        raise VerificationFailed("family member in-shore is not a union of quotient classes")
    return touched


def quotient_lift(
    digraph: Digraph, qm: QuotientMap, pair: OptimalPair, direction: str = "lift"
) -> OptimalPair:
    """Restate an optimal pair across a quotient by its generating dibonds.

    direction "lift" takes a pair stated on the quotient back to the
    original digraph; "project" takes a pair stated on the original down to
    the quotient. Either way the restated pair is re-verified against the
    generator class on the target digraph, since a pair is optimal for the
    class exactly when its restatement is.
    """
    if direction not in ("lift", "project"):
        raise ValueError("direction must be 'lift' or 'project'")
    generators = qm.generators
    if not generators:
        raise PreconditionViolated("quotient has no generating cuts")
    for g in generators:
        if not isinstance(g, Dicut) or not g.is_dibond:
            raise PreconditionViolated("quotient generators must be dibonds")
    if direction == "lift":
        for e in pair.dijoin:
            if e not in qm.edge_provenance:
                raise ValueError("dijoin contains unknown quotient edge ids")
        new_dijoin = frozenset(qm.edge_provenance[e] for e in pair.dijoin)
        new_family = [Dicut(digraph, _lift_in_shore(qm, member.in_shore)) for member in pair.family]
        klass = DibondClass.from_members(digraph, generators)
        target = digraph
    else:
        inverse = {orig: q for q, orig in qm.edge_provenance.items()}
        for e in pair.dijoin:
            if e not in inverse:
                raise VerificationFailed("dijoin edge does not survive in the quotient")
        new_dijoin = frozenset(inverse[e] for e in pair.dijoin)
        new_family = [
            Dicut(qm.quotient, _project_in_shore(qm, member.in_shore)) for member in pair.family
        ]
        projected_generators = [
            Dicut(qm.quotient, _project_in_shore(qm, g.in_shore)) for g in generators
        ]
        klass = DibondClass.from_members(qm.quotient, projected_generators)
        target = qm.quotient
    restated = OptimalPair(dijoin=new_dijoin, family=new_family, nested=pair.nested)
    verify_optimal_pair(target, klass, restated)
    return restated
