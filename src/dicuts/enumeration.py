"""Exhaustive enumeration of dicuts and dibonds via the strong component DAG.

Dicut in shores are exactly the successor-closed unions of strong
components that some edge enters, so enumeration happens on the
condensation. Dibonds are the dicuts whose two shores both induce weakly
connected subdigraphs; a dedicated walk over connected predecessor-closed
component sets enumerates them, because on the window digraphs of
interest the dicut count grows exponentially while the dibond count
stays polynomial. The walk drops every branch that can no longer reach a
dibond, so on the family windows it visits a few sets per dibond emitted.
It starts from a list of roots: the anchors, for every dibond, or one
root at an edge's tail with its head forbidden, for the dibonds through
that edge, so a per-edge query walks only towards the dibonds it returns.

One set-up pass serves both walks, and the solver's cutting-plane
rounds too, which run it on D plus the reversed edges of a candidate
dijoin, as do the rounds of the branching's dual ascent, on the
reversed D plus its tight edges. Tarjan's walk over vertex bits, on lists indexed by bit, finds
the strong components in one pass and completes them in reverse
topological order, each after every component it reaches. A digraph's
own successor bits and components are found once and kept on it
(_own_components), so condensation, both walks and the solver's first
round read one walk. The
components are indexed by least vertex, ascending, and each gets the
int masks of its DAG successors and predecessors, of its vertices (bit
j for the j-th largest vertex) and, from the digraph's end masks, of
the edges (bit e for edge e) whose tail, and whose head, lies in it.
Only the dibond walk ORs the first two into undirected neighbours. One
pass in completion order gives each component its descendant closure,
and one in the reverse order its ancestor closure, each with the union
of each mask over it. Every set of components is a mask, bit i for the
i-th component, so every branch order is that of the component indices.
Strong components are connected, so the component graph is weakly
connected exactly when the digraph is, and the dibond walk checks that
with one mask search.
The search is core's _reach_within, the one every connectivity test
runs, here on the table of component neighbours.

A set's reach, the weak component of its complement that holds its
start, is found from its parent's: removing a closure from a connected
set can split it only at the closure's neighbours, so the search inside
the parent's reach stops once it has joined those neighbours up again
(the observation behind decremental connectivity; Even and Shiloach,
"An on-line edge-deletion problem", JACM 1981). When the closure has
one neighbour there, every weak component of the rest holds it, so the
rest is connected and no search runs.

For a shore Y with tail mask T and head mask H, the edges entering Y are
H & ~T and the edges leaving it T & ~H, so each emitted cut gets its
edge mask, and the dicut check that no edge leaves its in shore, in a few
int operations; a failed check raises an internal error. One helper sorts
the emitted (vertex mask, edge mask) pairs by shore size, then sorted
shore, and builds each Dicut once, keeping both masks as they are: no
shore set or edge set is built until someone reads it. Every walk uses
an explicit stack. Every enumeration takes a cap and raises CapExceeded
as soon as the result count would pass it; a capped call never returns
a truncated list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Optional

from .core import Digraph, Dicut, EdgeId, _neighbours, _reach_within, _require_edge_ids
from .errors import CapExceeded, PreconditionViolated

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class Condensation:
    """Strong components of a digraph and the DAG between them.

    Component ids are the smallest contained vertex id, so the numbering is
    deterministic. dag_edges holds each inter-component adjacency once.
    """

    digraph: Digraph
    scc_of: dict
    dag_edges: frozenset
    component_members: dict

    @property
    def components(self) -> list:
        return sorted(self.component_members)


def _successor_bits(digraph: Digraph) -> list:
    """Per vertex bit j, the bits of the heads of the edges leaving
    vertex_order[j], in edge id order."""
    bit = digraph.vertex_bit
    out: list = [[] for _ in range(digraph.n)]
    for t, h in digraph.edges:
        out[bit[t]].append(bit[h])
    return out


def _strong_components(out: list) -> tuple:
    """Strong components by Tarjan's walk (Tarjan, "Depth-first search and
    linear graph algorithms", SIAM J. Comput. 1972) over vertex bits, given
    _successor_bits.

    Returns (k, done_at): the number of components, and per vertex bit
    the position of its component in the order the walk completes them.
    That order is reverse topological: a component comes after every
    component it reaches. The walk takes its roots least vertex first
    (highest bit first) and each vertex's out edges in id order, on an
    explicit stack, with list state indexed by vertex bit. A vertex's low
    value is the least discovery number it reaches on the stack; once its
    component is complete it is set past every discovery number, so no
    later low value takes it. No vertex mask is built: the masks of a long
    path's components would take space quadratic in its length.
    """
    n = len(out)
    past = n + 1
    index = [0] * n  # discovery number, from 1; 0 before discovery
    low = [0] * n
    done_at = [0] * n
    stack: list = []
    k = counter = 0
    for root in range(n - 1, -1, -1):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, nexts = work[-1]
            for w in nexts:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        low[w] = past
                        done_at[w] = k
                        if w == v:
                            break
                    k += 1
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return k, done_at


def _own_components(digraph: Digraph) -> tuple:
    """(out, k, done_at): the digraph's _successor_bits and their
    _strong_components, from one walk on the first call, kept in the slot
    Digraph.__init__ sets and shared by every later call. No caller may
    change the lists: one that needs other successor lists copies these."""
    if digraph._strong is None:
        out = _successor_bits(digraph)
        digraph._strong = (out, *_strong_components(out))
    return digraph._strong


def condensation(digraph: Digraph) -> Condensation:
    """Strong components and the DAG between them, from the digraph's one
    Tarjan walk over vertex bits (_own_components); component_members
    lists the components in the order the walk completes them."""
    out, k, comp = _own_components(digraph)
    members: list = [[] for _ in range(k)]
    # Least vertex first, so each list is sorted and starts at its id.
    for v, c in zip(reversed(digraph.vertex_order), reversed(comp)):
        members[c].append(v)
    cids = [vs[0] for vs in members]
    scc_of = {v: cids[c] for v, c in zip(digraph.vertex_order, comp)}
    dag = {
        (cids[comp[j]], cids[comp[w]])
        for j, heads in enumerate(out)
        for w in heads
        if comp[w] != comp[j]
    }
    return Condensation(
        digraph=digraph,
        scc_of=scc_of,
        dag_edges=frozenset(dag),
        component_members={vs[0]: tuple(vs) for vs in members},
    )


def _walk_tables(digraph: Digraph, out: Optional[list] = None) -> Optional[tuple]:
    """The masks that both walks start from, described in the module
    docstring: succ, pred, verts, tails and heads per component,
    verts over the digraph's vertex_order, then the component indices in
    the order Tarjan's walk completed them, each after every component it
    reaches. None when there is at most one strong component, before any
    vertex or edge mask is built: no walk then has anything to emit.

    The components are those of `out`, successor bits as _successor_bits
    gives them, by default the digraph's own, whose walk is run once per
    digraph (_own_components) and so shared with condensation and every
    later call; tails and heads always come from the digraph's end masks.
    The cutting-plane rounds pass D plus the reversed F
    (solver._missed_dicuts), and the ascent's rounds the reversed D plus
    its tight edges (solver._rooted_optimum).
    """
    if out is None:
        out, k, done_at = _own_components(digraph)
    else:
        k, done_at = _strong_components(out)
    if k <= 1:
        return None
    # Components are indexed as their least vertices come, least first,
    # which is highest bit first; completed maps completion positions
    # to indices, so it lists the indices in completion order.
    completed = [-1] * k
    comp = [0] * len(out)
    verts: list = []
    for j in range(len(out) - 1, -1, -1):
        c = done_at[j]
        if completed[c] < 0:
            completed[c] = len(verts)
            verts.append(0)
        comp[j] = i = completed[c]
        verts[i] |= 1 << j
    succ = [0] * k
    pred = [0] * k
    tails = [0] * k
    heads = [0] * k
    for j, ((tail_edges, head_edges), nexts) in enumerate(zip(digraph.end_masks, out)):
        c = comp[j]
        tails[c] |= tail_edges
        heads[c] |= head_edges
        for w in nexts:
            d = comp[w]
            if d != c:
                succ[c] |= 1 << d
                pred[d] |= 1 << c
    return succ, pred, verts, tails, heads, completed


def _closures(step: list, tables: tuple, order) -> list:
    """Per component i, a tuple: the mask of the components reachable from
    i via `step`, i included, then the union of each table over them.

    One pass over `order`, which lists every `step` neighbour of a
    component before the component: each component's own entries are
    ORed with its neighbours' finished tuples.
    """
    closures = list(zip([1 << i for i in range(len(step))], *tables))
    for i in order:
        acc = closures[i]
        nexts = step[i]
        while nexts:
            low = nexts & -nexts
            acc = tuple(map(or_, acc, closures[low.bit_length() - 1]))
            nexts ^= low
        closures[i] = acc
    return closures


def _check_dicut(leaving: int) -> None:
    if leaving:
        raise RuntimeError("internal error: an edge leaves an enumerated in shore")


def _build(digraph: Digraph, found: list, is_dibond: Optional[bool] = None) -> list:
    """The dicuts given as (in shore vertex mask, edge mask) pairs, sorted by
    shore size, then sorted shore.

    Vertex bit j is the j-th largest vertex, so the least vertex where two
    shores of one size differ lies in the one with the larger mask: that
    shore comes first in sorted-tuple order.
    """
    found.sort(key=lambda item: (item[0].bit_count(), -item[0]))
    return [Dicut._known(digraph, shore, edges, is_dibond) for shore, edges in found]


def enumerate_dicuts(digraph: Digraph, cap: int = DEFAULT_CAP) -> list:
    """All dicuts of the digraph, exactly once each, in a deterministic order.

    In shores correspond to the successor-closed unions of strong
    components that some edge enters; a dicut has at least one edge, so on
    a digraph that is not weakly connected the edgeless shores are left
    out. Raises CapExceeded when the count would pass the cap.
    """
    tables = _walk_tables(digraph)
    if tables is None:
        return []
    succ, pred, verts, tails, heads, completed = tables
    k = len(succ)
    desc = _closures(succ, (verts, tails, heads), completed)
    anc = [closure[0] for closure in _closures(pred, (), reversed(completed))]
    found: list = []
    # Each entry is (next component index, in shore mask, out shore mask)
    # over the components decided so far, and the masks of the in shore's
    # vertices and of the edges whose tail, and whose head, lies in it.
    stack: list = [(0, 0, 0, 0, 0, 0)]
    while stack:
        i, ins, outs, vs, ts, hs = stack.pop()
        decided = ins | outs
        while i < k and decided >> i & 1:
            i += 1
        if i == k:
            entering = hs & ~ts
            if entering:
                if len(found) >= cap:
                    raise CapExceeded(cap, "enumerating dicuts")
                _check_dicut(ts & ~hs)
                found.append((vs, entering))
            continue
        down, dv, dt, dh = desc[i]
        if not down & outs:
            stack.append((i + 1, ins | down, outs, vs | dv, ts | dt, hs | dh))
        if not anc[i] & ins:
            stack.append((i + 1, ins, outs | anc[i], vs, ts, hs))
    return _build(digraph, found)


def _dibond_masks(digraph: Digraph, cap: int, edge: Optional[EdgeId] = None) -> list:
    """The dibond walk: each dibond as an (in shore vertex mask, edge mask)
    pair, in walk order; with `edge`, only the dibonds that contain it."""
    tables = _walk_tables(digraph)
    if tables is None:
        return []
    succ, pred, verts, tails, heads, completed = tables
    und = list(map(or_, succ, pred))
    k = len(und)
    full = (1 << k) - 1
    # Strong components are connected, so the component graph is weakly
    # connected exactly when the digraph is.
    if _reach_within(und, full, 1, full) != full:
        raise PreconditionViolated("dibonds need a weakly connected digraph")
    anc = _closures(pred, (und, verts, tails, heads), reversed(completed))
    all_vertices = (1 << digraph.n) - 1
    found: list = []
    # Each root is (forbidden components, the closure the walk starts from):
    # the anchors of enumerate_dibonds, or the one root of
    # dibonds_containing_edge, none when the edge lies in a strong component.
    if edge is None:
        roots = [((1 << i) - 1, anc[i]) for i in range(k) if not anc[i][0] & ((1 << i) - 1)]
    else:
        tail = next(i for i, mask in enumerate(tails) if mask >> edge & 1)
        head = next(i for i, mask in enumerate(heads) if mask >> edge & 1)
        roots = [] if tail == head else [(1 << head, anc[tail])]

    for forbidden, closure in roots:
        # Each entry is (forbidden components, the parent's reach, the
        # components this set removes from the parent's complement, the
        # grown set, and the masks of the grown set's undirected
        # neighbours, of its vertices and of the edges whose tail, and
        # whose head, lies in it).
        stack: list = [(forbidden, 0, 0) + closure]
        while stack:
            forbidden, parent_reach, removed, s, nbrs, vs, ts, hs = stack.pop()
            complement = full ^ s
            if not complement:
                continue
            start = forbidden or complement
            start &= -start
            if not start & parent_reach:
                reach = _reach_within(und, complement, start, complement)
            elif removed & parent_reach:
                # The parent's reach was connected, so every weak component
                # of what is left of it touches a neighbour of the removed
                # part: reaching all those neighbours reconnects it.
                rest = parent_reach & ~removed
                boundary = _neighbours(und, removed & parent_reach) & rest
                if boundary & (boundary - 1):
                    reach = _reach_within(und, rest, start, boundary)
                else:
                    # One neighbour: every weak component of the rest
                    # holds it, so the rest is connected.
                    reach = rest
            else:
                reach = parent_reach
            if forbidden & ~reach:
                continue
            if reach == complement:
                if len(found) >= cap:
                    raise CapExceeded(cap, "enumerating dibonds")
                # The in shore is the complement, so the dibond's edges
                # have their tail in s and their head outside it.
                _check_dicut(hs & ~ts)
                found.append((all_vertices ^ vs, ts & ~hs))
            blocked = forbidden
            candidates = nbrs & complement & ~forbidden
            while candidates:
                low = candidates & -candidates
                need, un, uv, ut, uh = anc[low.bit_length() - 1]
                if not need & blocked:
                    stack.append(
                        (blocked, reach, need & complement, s | need,
                         nbrs | un, vs | uv, ts | ut, hs | uh)
                    )
                blocked |= low
                candidates ^= low
    return found


def enumerate_dibonds(digraph: Digraph, cap: int = DEFAULT_CAP) -> list:
    """All dibonds, enumerated directly, equal as a set to the dibond filter of enumerate_dicuts.

    A dibond's out shore is a connected predecessor-closed union of strong
    components whose complement is also connected. Those sets are walked by
    rooted connected growth. Each root is an anchor component (the minimum
    id of the grown set) whose ancestor closure holds no lower component;
    the walk starts from that closure with the lower components forbidden
    and adds one undirected neighbor at a time together with its ancestor
    closure, a branch per candidate. Candidates passed over by earlier
    branches are forbidden in later ones, so no set is reached twice.

    Forbidden components can never join the out shore, so they all end up
    in the in shore, which must be a connected subset of the current
    complement. Growing the set only removes components from the
    complement, so once the forbidden components lie in two different weak
    components of the complement, no set grown from here is a dibond and
    the branch is dropped. The set's reach, the weak component of the
    complement that holds the least forbidden component (or the least
    complement component when nothing is forbidden), decides both that
    prune and whether the complement is connected, which selects the
    dibonds.

    Each set carries its parent's reach R and the components N that it
    removes from the parent's complement. When its start lies in R and N
    misses R, its reach is R. When N meets R, the reach lies in X = R - N,
    and the search there from the start stops as soon as it has seen every
    neighbour of N inside X: R was connected, so every weak component of
    X holds such a neighbour, and once they are all joined the reach is
    X. When N has exactly one neighbour in X, X is connected and no
    search runs. Only when the start lies outside R, at the roots and the
    few sets right after them, is the whole complement searched. On a
    directed path every set after the root has one such neighbour, so
    each costs a few mask operations, not a search.

    Alongside each grown set the walk carries the masks of its vertices and
    of the edges whose tail, and whose head, lies in it, ORing in those of
    each ancestor closure it adds. A dibond's edge set is then the tail
    mask minus the head mask, and the dicut check, that no edge leaves the
    in shore, is the head mask minus the tail mask being empty: a few int
    operations per dibond, with no pass over its vertices. Each Dicut is
    built once, from these masks, with its edge mask and dibond status
    filled in. Raises CapExceeded when the dibond count would pass the
    cap, and PreconditionViolated when the digraph is not weakly connected,
    where no nonempty dicut has two weakly connected shores: a search over
    the component graph's undirected masks decides that before the walk.
    A digraph with at most one strong component, the empty one included,
    is connected and has no dibond.
    """
    return _build(digraph, _dibond_masks(digraph, cap), True)


def dibonds_containing_edge(digraph: Digraph, e: EdgeId, cap: int = DEFAULT_CAP) -> list:
    """All dibonds whose edge set contains the edge id `e`, in enumerate_dibonds order.

    A dibond holds e = (t, h) exactly when its out shore, the set the walk
    grows, holds t's strong component and not h's. So the walk of
    enumerate_dibonds runs from one root: the ancestor closure of t's
    component, which every such out shore contains and which is connected,
    with h's component forbidden. Every connected predecessor-closed set
    that holds t's component and not h's is reached from that closure by
    the same steps, once each; a component reachable from h's never
    joins, since its ancestor closure holds h's. When t and h share a
    strong component no dicut holds e and the result is empty. The walk
    visits the sets around the dibonds through e, not every dibond of the
    digraph.

    Raises ValueError for an unknown edge id, before anything else, then
    PreconditionViolated when the digraph is not weakly connected, as
    enumerate_dibonds does. The cap counts the dibonds returned.
    """
    _require_edge_ids(digraph, (e,), f"unknown edge id {e!r}")
    return _build(digraph, _dibond_masks(digraph, cap, e), True)
