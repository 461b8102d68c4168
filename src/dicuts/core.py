"""Finite multidigraphs and the dicut primitives built on them.

A dicut is stored by its in shore; on it rest dibonds, nestedness, the
meet and join of two dicuts, and the split of a dicut into dibonds.

Vertex identifiers are opaque values that must be hashable and mutually
sortable within one digraph. Edges are (tail, head) pairs stored in a fixed
order; the edge id is the index into that order, so ids are dense ints
0..m-1 and stable. Parallel edges are distinct ids; loops are rejected.

All values are treated as immutable once constructed, and every operation
is a pure function of its inputs. A digraph builds its vertex order,
the vertices sorted descending, when it is constructed: bit j of a
vertex mask stands for the j-th largest vertex, so ids that cannot be
sorted raise TypeError when the digraph is built. Its undirected
adjacency is built on first read, and so are two results that many
callers ask of one digraph: whether it is weakly connected
(is_weakly_connected) and its own successor bits with their strong
components (enumeration._own_components). Each is computed once per
digraph and kept in a slot that __init__ sets to None; the kept lists
are shared, so no caller may change them. A dicut stores two int masks,
shore_mask over the vertices of its in shore and edge_mask with bit e
set for each edge e of the cut, and derives the in-shore set and the
edge set from them on first read, so a search that reads only masks (equality, nestedness,
the solvers) never builds a set. Every connectivity test is one search,
_reach_within, over vertex masks and a table of neighbour masks that a
digraph builds on its first search. Every cut check is _cut_masks, which
ORs the digraph's end masks (per vertex, the edge masks of the edges
whose tail, and of those whose head, is there, built on first read)
over the smaller shore, so meet, join and the split of a dicut build no
shore set either, and a check costs one step per vertex of that shore.
Iteration orders follow sorted vertex ids and ascending edge ids
throughout, so results are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Hashable, Iterable, Iterator, Optional

from .errors import PreconditionViolated

Vertex = Hashable
EdgeId = int

_BITS = bytes.maketrans(b"01", b"\0\1")


class Digraph:
    """A loopless multidigraph with stable vertex and edge identifiers."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple]):
        self.vertices: frozenset = frozenset(vertices)
        self.edges: tuple = tuple((t, h) for (t, h) in edges)
        for e, (t, h) in enumerate(self.edges):
            if t == h:
                raise ValueError(f"edge {e} is a loop at {t!r}")
            if t not in self.vertices:
                raise ValueError(f"edge {e} has undeclared tail {t!r}")
            if h not in self.vertices:
                raise ValueError(f"edge {e} has undeclared head {h!r}")
        try:
            self.vertex_order: tuple = tuple(sorted(self.vertices, reverse=True))
        except TypeError as exc:
            raise TypeError("vertex ids must be mutually sortable") from exc
        # Vertex -> j, its bit in vertex masks: bit j is vertex_order[j].
        self.vertex_bit: dict = dict(zip(self.vertex_order, range(len(self.vertex_order))))
        self._hash: Optional[int] = None
        self._und: Optional[dict] = None
        self._nbrs: Optional[list] = None
        self._ends: Optional[list] = None
        # Filled on first read by is_weakly_connected and by
        # enumeration._own_components.
        self._weak: Optional[bool] = None
        self._strong: Optional[tuple] = None

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

    def und_neighbors(self, v: Vertex) -> tuple:
        """Pairs (other endpoint, edge id) over all incident edges, ignoring
        direction, in edge id order; the table is built on first read into
        the slot __init__ sets, as neighbour_masks is."""
        if self._und is None:
            und: dict = {u: [] for u in self.vertices}
            for e, (t, h) in enumerate(self.edges):
                und[t].append((h, e))
                und[h].append((t, e))
            self._und = {u: tuple(ps) for u, ps in und.items()}
        return self._und[v]

    @property
    def neighbour_masks(self) -> list:
        """Per vertex bit j, the mask of the neighbours of vertex_order[j], built on first read."""
        # Not a cached_property: on CPython 3.11 an attribute first set after
        # __init__ slows every later attribute read, condensation's included.
        if self._nbrs is None:
            self._nbrs = _neighbour_masks(self)
        return self._nbrs

    @property
    def end_masks(self) -> list:
        """Per vertex bit j, the pair (edge mask of the edges whose tail is
        vertex_order[j], edge mask of those whose head is), built on first
        read into the slot __init__ sets, as neighbour_masks is."""
        if self._ends is None:
            bit = self.vertex_bit
            tails = [0] * self.n
            heads = [0] * self.n
            for e, (t, h) in enumerate(self.edges):
                tails[bit[t]] |= 1 << e
                heads[bit[h]] |= 1 << e
            self._ends = list(zip(tails, heads))
        return self._ends

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


def _vertex_mask(digraph: Digraph, vertices: Iterable[Vertex]) -> int:
    """The vertex mask, bit vertex_bit[v] for each v, of vertices of the digraph."""
    bit = digraph.vertex_bit
    return sum(1 << bit[v] for v in vertices)


def _select(items, mask: int) -> Iterator:
    """The items whose index bit is set in a nonnegative mask, in index order."""
    # bin() lists the bits high to low; reversed and mapped to bytes 0 and
    # 1 they select the items in C.
    return compress(items, bin(mask)[:1:-1].encode().translate(_BITS))


def _mask_vertices(digraph: Digraph, mask: int) -> Iterator[Vertex]:
    """The vertices of a vertex mask, largest first."""
    return _select(digraph.vertex_order, mask)


def _edge_mask(digraph: Digraph, edge_ids: frozenset) -> int:
    """The mask, bit e for edge e, of the digraph's edges whose ids lie in
    `edge_ids`. Values that are no edge id of the digraph are left out,
    never shifted by, so a caller can still refuse them with its own
    error."""
    return sum(1 << e for e in digraph.edge_ids() if e in edge_ids)


def _neighbour_masks(digraph: Digraph, removed: frozenset = frozenset()) -> list:
    """Per vertex bit j, the vertex mask of the undirected neighbours of
    vertex_order[j] along the edges whose ids are not in `removed`."""
    bit = digraph.vertex_bit
    nbrs = [0] * digraph.n
    for e, (t, h) in enumerate(digraph.edges):
        if e not in removed:
            i, j = bit[t], bit[h]
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    return nbrs


def _neighbours(nbrs: list, mask: int) -> int:
    """The union of the table entries of the bits in `mask`."""
    step = 0
    while mask:
        low = mask & -mask
        step |= nbrs[low.bit_length() - 1]
        mask ^= low
    return step


def _reach_within(nbrs: list, subset: int, start: int, stop: int) -> int:
    """The bits of `subset` joined to the `start` bits by a path of table steps inside it.

    The search returns all of `subset` once it has seen every bit of
    `stop`: the caller passes a stop set that every component of `subset`
    touches, so one search reaching all of it has joined them all. With
    `subset` itself as the stop set this is a plain search. Each layer
    ORs the table entries of the frontier's bits in this loop, as
    _neighbours does, without a call per layer.
    """
    seen = frontier = start
    while frontier and stop & ~seen:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = step & subset & ~seen
        seen |= frontier
    return seen if stop & ~seen else subset


def _components(nbrs: list, mask: int) -> list:
    """The components of the vertex mask under the table, as masks, the least vertex's first."""
    comps = []
    while mask:
        # The highest bit stands for the least vertex.
        comp = _reach_within(nbrs, mask, 1 << (mask.bit_length() - 1), mask)
        comps.append(comp)
        mask ^= comp
    return comps


def is_weakly_connected(digraph: Digraph) -> bool:
    """True iff the underlying undirected graph is connected.

    The empty digraph and a single vertex both count as connected. The
    verdict is kept in the slot Digraph.__init__ sets, so a digraph is
    searched once however many callers ask.
    """
    if digraph._weak is None:
        digraph._weak = len(_components(digraph.neighbour_masks, (1 << digraph.n) - 1)) <= 1
    return digraph._weak


def _cut_masks(digraph: Digraph, shore_mask: int) -> tuple:
    """The edge masks of the edges entering, and of those leaving, the
    in shore with this vertex mask.

    ORs the end masks over the smaller shore X: an edge with both ends in
    X is in both ORs, so the edges leaving X are the tail OR minus the
    head OR, and those entering X the head OR minus the tail OR. The
    edges entering Y are the edges leaving its complement.
    """
    other = ((1 << digraph.n) - 1) ^ shore_mask
    small = shore_mask.bit_count() <= other.bit_count()
    tails = heads = 0
    for t, h in _select(digraph.end_masks, shore_mask if small else other):
        tails |= t
        heads |= h
    into, out_of = heads & ~tails, tails & ~heads
    return (into, out_of) if small else (out_of, into)


def _require_edge_ids(digraph: Digraph, ids: Iterable, message: str) -> None:
    """ValueError(message) unless every id is an int edge id of the digraph."""
    m = digraph.m
    if not all(isinstance(e, int) and 0 <= e < m for e in ids):
        raise ValueError(message)


def _entering(digraph: Digraph, shore_mask: int) -> int:
    """The edge mask of the edges entering the in shore with this vertex
    mask; ValueError, naming the lowest edge, when one leaves it."""
    entering, leaving = _cut_masks(digraph, shore_mask)
    if leaving:
        e = (leaving & -leaving).bit_length() - 1
        raise ValueError(f"edge {e} leaves the in shore; not a dicut")
    return entering


class Dicut:
    """A directed cut: no edge leaves the in shore.

    Stored canonically by the in shore Y, as shore_mask, the vertex mask of
    Y (bit j for the digraph's vertex_order[j]), with the edges entering Y
    as edge_mask, bit e for edge e. The in_shore and edge_set sets are
    derived from the masks on first read, and equality, hashing, nested,
    meet and join read only the masks. Degenerate shores (empty or the
    whole vertex set) are permitted so that meets and joins always have a
    value; such a dicut has no edges and is reported by `is_empty`.
    """

    def __init__(self, digraph: Digraph, in_shore: Iterable[Vertex]):
        in_shore = frozenset(in_shore)
        if not in_shore <= digraph.vertices:
            raise ValueError("in shore contains undeclared vertices")
        self.digraph = digraph
        self.shore_mask = _vertex_mask(digraph, in_shore)
        self.edge_mask = _entering(digraph, self.shore_mask)
        # The set is at hand, so it is kept rather than derived again.
        self.in_shore = in_shore
        self._is_dibond: Optional[bool] = None

    @classmethod
    def _known(
        cls,
        digraph: Digraph,
        shore_mask: int,
        edge_mask: int,
        is_dibond: Optional[bool] = None,
    ) -> "Dicut":
        """A dicut whose caller has already checked that no edge leaves the
        in shore with this vertex mask, with its edge mask and, when given,
        its dibond status."""
        cut = cls.__new__(cls)
        cut.digraph = digraph
        cut.shore_mask = shore_mask
        cut.edge_mask = edge_mask
        cut._is_dibond = is_dibond
        return cut

    @cached_property
    def in_shore(self) -> frozenset:
        """The vertices of the in shore."""
        return frozenset(_mask_vertices(self.digraph, self.shore_mask))

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
        the two induced shores side by side.
        """
        if self._is_dibond is None:
            nbrs = self.digraph.neighbour_masks
            out_shore = ((1 << self.digraph.n) - 1) ^ self.shore_mask
            self._is_dibond = not self.is_empty and (
                len(_components(nbrs, self.shore_mask)) == 1 == len(_components(nbrs, out_shore))
            )
        return self._is_dibond

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Dicut):
            return NotImplemented
        return self.shore_mask == other.shore_mask and self.digraph == other.digraph

    def __hash__(self) -> int:
        return hash(self.shore_mask)

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
    shore_mask = _vertex_mask(digraph, y)
    entering, leaving = _cut_masks(digraph, shore_mask)
    return None if leaving else Dicut._known(digraph, shore_mask, entering)


def dicut_from_edge_set(digraph: Digraph, edge_set: Iterable[EdgeId]) -> Optional[Dicut]:
    """Reconstruct the dicut whose edge set is exactly `edge_set`, if one exists.

    On a weakly connected digraph a dicut is determined by its edge set:
    its in shore is the union of the weak components of the digraph minus
    the edge set that hold a head of it. Returns None when one of those
    components also holds a tail, or when some component holds neither.
    """
    b = frozenset(edge_set)
    if not b:
        return None
    _require_edge_ids(digraph, b, "edge set contains unknown edge ids")
    bit = digraph.vertex_bit
    heads = tails = 0
    for e in b:
        t, h = digraph.edges[e]
        tails |= 1 << bit[t]
        heads |= 1 << bit[h]
    comps = _components(_neighbour_masks(digraph, b), (1 << digraph.n) - 1)
    y = sum(comp for comp in comps if comp & heads)
    if y & tails or not all(comp & (heads | tails) for comp in comps):
        return None
    # Each edge of b enters y and every other edge lies in a component: the mask is b's.
    return Dicut._known(digraph, y, _entering(digraph, y))


def nested(c1: Dicut, c2: Dicut) -> bool:
    """True iff some shore of one dicut is contained in some shore of the other.

    In terms of the in shores Y1, Y2 this is: Y1 <= Y2, or Y2 <= Y1, or Y1
    and Y2 are disjoint, or Y1 union Y2 covers every vertex.
    """
    if c1.digraph != c2.digraph:
        raise ValueError("dicuts are over different digraphs")
    a, b = c1.shore_mask, c2.shore_mask
    i = a & b
    return i == a or i == b or not i or (a | b).bit_count() == c1.digraph.n


def crossing(c1: Dicut, c2: Dicut) -> bool:
    """True iff the two dicuts are not nested."""
    return not nested(c1, c2)


def meet(b1: Dicut, b2: Dicut) -> Dicut:
    """The dicut on the intersection of the in shores.

    May be the empty dicut (empty in shore) when the in shores are disjoint.
    """
    if b1.digraph != b2.digraph:
        raise ValueError("dicuts are over different digraphs")
    shore = b1.shore_mask & b2.shore_mask
    return Dicut._known(b1.digraph, shore, _entering(b1.digraph, shore))


def join(b1: Dicut, b2: Dicut) -> Dicut:
    """The dicut on the union of the in shores.

    May be the empty dicut (in shore equal to the whole vertex set) when the
    out shores are disjoint.
    """
    if b1.digraph != b2.digraph:
        raise ValueError("dicuts are over different digraphs")
    shore = b1.shore_mask | b2.shore_mask
    return Dicut._known(b1.digraph, shore, _entering(b1.digraph, shore))


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
    nbrs = digraph.neighbour_masks
    full = (1 << digraph.n) - 1
    parts = []
    stack = [dicut]
    while stack:
        cur = stack.pop()
        shores = _components(nbrs, cur.shore_mask)
        if len(shores) == 1:
            out_comps = _components(nbrs, full ^ cur.shore_mask)
            if len(out_comps) == 1:
                parts.append(cur)
                continue
            shores = [full ^ comp for comp in out_comps]
        split = [Dicut._known(digraph, y, _entering(digraph, y)) for y in shores]
        if any(part.is_empty for part in split):
            raise PreconditionViolated("dibonds need a weakly connected digraph")
        stack.extend(split)
    # The parts are disjoint, so their lowest edges already order them.
    parts.sort(key=lambda d: d.edge_mask & -d.edge_mask)
    return parts

