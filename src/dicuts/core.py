"""Finite multidigraphs and the dicut primitives built on them.

A dicut is stored by its in shore; on it rest dibonds, nestedness, the
meet and join of two dicuts, and the split of a dicut into dibonds.

Vertex identifiers are opaque values that must be hashable and mutually
sortable within one digraph. Edges are (tail, head) pairs stored in a fixed
order; the edge id is the index into that order, so ids are dense ints
0..m-1 and stable. Parallel edges are distinct ids; loops are rejected.

All values are treated as immutable once constructed, and every operation
is a pure function of its inputs. A digraph builds its out, in and
undirected adjacency when it is constructed, and a dicut its edge mask,
an int with bit e set for each edge e of the cut; the edge set is derived
on first read. So lookups never build tables, and a search that reads
only masks never builds an edge set. Iteration orders follow sorted
vertex ids and ascending edge ids throughout, so results are
deterministic.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Hashable, Iterable, Optional

from .errors import PreconditionViolated

Vertex = Hashable
EdgeId = int


class Digraph:
    """A loopless multidigraph with stable vertex and edge identifiers."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple]):
        self.vertices: frozenset = frozenset(vertices)
        self.edges: tuple = tuple((t, h) for (t, h) in edges)
        out: dict = {v: [] for v in self.vertices}
        inc: dict = {v: [] for v in self.vertices}
        und: dict = {v: [] for v in self.vertices}
        for e, (t, h) in enumerate(self.edges):
            if t == h:
                raise ValueError(f"edge {e} is a loop at {t!r}")
            if t not in self.vertices:
                raise ValueError(f"edge {e} has undeclared tail {t!r}")
            if h not in self.vertices:
                raise ValueError(f"edge {e} has undeclared head {h!r}")
            out[t].append(e)
            inc[h].append(e)
            und[t].append((h, e))
            und[h].append((t, e))
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._und = {v: tuple(ps) for v, ps in und.items()}
        self._hash: Optional[int] = None

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], isolated: Iterable[Vertex] = ()) -> "Digraph":
        """Build a digraph whose vertex set is the endpoints plus any isolated vertices."""
        edges = tuple(edges)
        vertices = set(isolated)
        for t, h in edges:
            vertices.add(t)
            vertices.add(h)
        return cls(vertices, edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def tail(self, e: EdgeId) -> Vertex:
        return self.edges[e][0]

    def head(self, e: EdgeId) -> Vertex:
        return self.edges[e][1]

    def edge_ids(self) -> range:
        return range(len(self.edges))

    def out_edges(self, v: Vertex) -> tuple:
        return self._out[v]

    def in_edges(self, v: Vertex) -> tuple:
        return self._in[v]

    def und_neighbors(self, v: Vertex) -> tuple:
        """Pairs (other endpoint, edge id) over all incident edges, ignoring direction."""
        return self._und[v]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def bit_positions(mask: int) -> list:
    """The positions of the set bits of a nonnegative int, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _edge_mask(digraph: Digraph, edge_ids: frozenset) -> int:
    """The mask, bit e for edge e, of the digraph's edges whose ids lie in
    `edge_ids`. Values that are no edge id of the digraph are left out,
    never shifted by, so a caller can still refuse them with its own
    error."""
    return sum(1 << e for e in digraph.edge_ids() if e in edge_ids)


def _component_labels(
    digraph: Digraph, within: Optional[frozenset] = None, removed: frozenset = frozenset()
) -> dict:
    """Vertex -> least vertex of its weak component, for the vertices of `within`.

    The components are those of the subdigraph induced on `within` (every
    vertex when None) without the `removed` edges. Seeds are taken in
    sorted order, so the labels, in insertion order, list the components
    in ascending order of their least vertex.
    """
    vertices = digraph.vertices if within is None else within
    label: dict = {}
    for v in sorted(vertices):
        if v in label:
            continue
        label[v] = v
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w, e in digraph.und_neighbors(u):
                if w not in label and w in vertices and e not in removed:
                    label[w] = v
                    queue.append(w)
    return label


def weak_components_within(digraph: Digraph, subset: frozenset) -> list:
    """Weak components of the induced subdigraph on `subset`, each a frozenset.

    Deterministic: components are discovered from sorted seeds and returned
    in that discovery order.
    """
    comps: dict = {}
    for v, c in _component_labels(digraph, subset).items():
        comps.setdefault(c, []).append(v)
    return [frozenset(comp) for comp in comps.values()]


def is_weakly_connected(digraph: Digraph) -> bool:
    """True iff the underlying undirected graph is connected.

    The empty digraph and a single vertex both count as connected.
    """
    return len(set(_component_labels(digraph).values())) <= 1


def _leaving_edge(digraph: Digraph, shore: frozenset) -> Optional[EdgeId]:
    """Some edge from the shore to its complement, or None when no edge leaves it."""
    for v in shore:
        for e in digraph.out_edges(v):
            if digraph.head(e) not in shore:
                return e
    return None


class Dicut:
    """A directed cut: no edge leaves the in shore.

    Stored canonically by the in shore Y; the edges entering Y are kept as
    edge_mask, bit e for edge e, and edge_set is derived from the mask on
    first read. Degenerate shores (empty or the whole vertex set) are
    permitted so that meets and joins always have a value; such a dicut
    has no edges and is reported by `is_empty`.
    """

    def __init__(self, digraph: Digraph, in_shore: Iterable[Vertex]):
        in_shore = frozenset(in_shore)
        if not in_shore <= digraph.vertices:
            raise ValueError("in shore contains undeclared vertices")
        e = _leaving_edge(digraph, in_shore)
        if e is not None:
            raise ValueError(f"edge {e} leaves the in shore; not a dicut")
        self.digraph = digraph
        self.in_shore = in_shore
        self.edge_mask = sum(
            1 << e for v in in_shore for e in digraph.in_edges(v) if digraph.tail(e) not in in_shore
        )
        self._is_dibond: Optional[bool] = None

    @classmethod
    def _known(
        cls,
        digraph: Digraph,
        in_shore: frozenset,
        edge_mask: int,
        is_dibond: Optional[bool] = None,
    ) -> "Dicut":
        """A dicut whose caller has already checked that no edge leaves the
        in shore, with its edge mask and, when given, its dibond status."""
        cut = cls.__new__(cls)
        cut.digraph = digraph
        cut.in_shore = in_shore
        cut.edge_mask = edge_mask
        cut._is_dibond = is_dibond
        return cut

    @cached_property
    def edge_set(self) -> frozenset:
        """The ids of the edges entering the in shore."""
        return frozenset(bit_positions(self.edge_mask))

    @property
    def out_shore(self) -> frozenset:
        return self.digraph.vertices - self.in_shore

    @property
    def is_empty(self) -> bool:
        return not self.edge_mask

    @property
    def is_dibond(self) -> bool:
        """True iff the dicut is nonempty and both shores induce weakly connected subdigraphs.

        No edge leaves the in shore, so the digraph minus the cut edges is
        the two induced shores side by side: exactly two weak components.
        """
        if self._is_dibond is None:
            self._is_dibond = not self.is_empty and (
                len(set(_component_labels(self.digraph, removed=self.edge_set).values())) == 2
            )
        return self._is_dibond

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Dicut):
            return NotImplemented
        return self.in_shore == other.in_shore and self.digraph == other.digraph

    def __hash__(self) -> int:
        return hash(self.in_shore)

    def __repr__(self) -> str:
        return f"Dicut(in_shore={sorted(self.in_shore)!r}, edges={bit_positions(self.edge_mask)!r})"


def dicut_from_shore(digraph: Digraph, in_shore: Iterable[Vertex]) -> Optional[Dicut]:
    """The dicut with in shore Y, or None if some edge leaves Y.

    Y must be a nonempty proper subset of the vertices.
    """
    y = frozenset(in_shore)
    if not y <= digraph.vertices:
        raise ValueError("in shore contains undeclared vertices")
    if not y or y == digraph.vertices:
        raise ValueError("in shore must be a nonempty proper vertex subset")
    if _leaving_edge(digraph, y) is not None:
        return None
    return Dicut(digraph, y)


def dicut_from_edge_set(digraph: Digraph, edge_set: Iterable[EdgeId]) -> Optional[Dicut]:
    """Reconstruct the dicut whose edge set is exactly `edge_set`, if one exists.

    On a weakly connected digraph a dicut is determined by its edge set: the
    weak components of the digraph minus the edge set are each forced onto
    one shore by the cut edges incident to them. Returns None when the
    labelling is inconsistent or the candidate shores fail the dicut checks.
    """
    b = frozenset(edge_set)
    if not b:
        return None
    if not all(0 <= e < digraph.m for e in b):
        raise ValueError("edge set contains unknown edge ids")
    comp_of = _component_labels(digraph, removed=b)
    label: dict = {}
    for e in b:
        t_comp = comp_of[digraph.tail(e)]
        h_comp = comp_of[digraph.head(e)]
        if t_comp == h_comp:
            return None
        if label.get(t_comp, "out") != "out" or label.get(h_comp, "in") != "in":
            return None
        label[t_comp] = "out"
        label[h_comp] = "in"
    if any(comp not in label for comp in set(comp_of.values())):
        return None
    y = frozenset(v for v in digraph.vertices if label[comp_of[v]] == "in")
    if not y or y == digraph.vertices or _leaving_edge(digraph, y) is not None:
        return None
    cut = Dicut(digraph, y)
    if cut.edge_mask != sum(1 << e for e in b):
        return None
    return cut


def nested(c1: Dicut, c2: Dicut) -> bool:
    """True iff some shore of one dicut is contained in some shore of the other.

    In terms of the in shores Y1, Y2 this is: Y1 <= Y2, or Y2 <= Y1, or Y1
    and Y2 are disjoint, or Y1 union Y2 covers every vertex.
    """
    if c1.digraph != c2.digraph:
        raise ValueError("dicuts are over different digraphs")
    y1, y2 = c1.in_shore, c2.in_shore
    if y1 <= y2 or y2 <= y1:
        return True
    inter = len(y1 & y2)
    if inter == 0:
        return True
    return len(y1) + len(y2) - inter == c1.digraph.n


def crossing(c1: Dicut, c2: Dicut) -> bool:
    """True iff the two dicuts are not nested."""
    return not nested(c1, c2)


def meet(b1: Dicut, b2: Dicut) -> Dicut:
    """The dicut on the intersection of the in shores.

    May be the empty dicut (empty in shore) when the in shores are disjoint.
    """
    if b1.digraph != b2.digraph:
        raise ValueError("dicuts are over different digraphs")
    return Dicut(b1.digraph, b1.in_shore & b2.in_shore)


def join(b1: Dicut, b2: Dicut) -> Dicut:
    """The dicut on the union of the in shores.

    May be the empty dicut (in shore equal to the whole vertex set) when the
    out shores are disjoint.
    """
    if b1.digraph != b2.digraph:
        raise ValueError("dicuts are over different digraphs")
    return Dicut(b1.digraph, b1.in_shore | b2.in_shore)


def decompose_dicut(dicut: Dicut) -> list:
    """Partition a nonempty dicut into the dibonds it contains.

    Repeatedly splits along disconnected shores: a disconnected in shore
    splits the edge set by head component, a disconnected out shore by tail
    component. Every edge of the input lands in exactly one returned dibond.
    Deterministic: the result is sorted by edge id tuples. On a weakly
    connected digraph every part of a split has an entering edge. A part
    without one raises PreconditionViolated: the digraph has no dibond,
    and its splits could cycle forever.
    """
    if dicut.is_empty:
        raise ValueError("cannot decompose an empty dicut")
    digraph = dicut.digraph
    parts = []
    stack = [dicut]
    while stack:
        cur = stack.pop()
        in_comps = weak_components_within(digraph, cur.in_shore)
        if len(in_comps) > 1:
            split = [Dicut(digraph, comp) for comp in in_comps]
        else:
            out_comps = weak_components_within(digraph, cur.out_shore)
            if len(out_comps) == 1:
                parts.append(cur)
                continue
            split = [Dicut(digraph, digraph.vertices - comp) for comp in out_comps]
        if any(part.is_empty for part in split):
            raise PreconditionViolated("dibonds need a weakly connected digraph")
        stack.extend(split)
    # The parts are disjoint, so their lowest edges already order them.
    parts.sort(key=lambda d: d.edge_mask & -d.edge_mask)
    return parts

