"""Exhaustive enumeration of dicuts and dibonds via the strong component DAG.

Dicut in shores are exactly the successor-closed unions of strong
components, so enumeration happens on the condensation. Dibonds are the
dicuts whose two shores both induce weakly connected subdigraphs; they are
enumerated by a dedicated walk over connected predecessor-closed component
sets rather than by filtering all dicuts, because on the window digraphs of
interest the dicut count grows exponentially while the dibond count stays
polynomial. The walk drops every branch that can no longer reach a
dibond, so on the family windows it visits a few sets per dibond emitted
instead of every connected predecessor-closed set.

Every walk uses an explicit stack, so recursion depth never grows with the
number of strong components. Every enumeration takes a cap and raises
CapExceeded as soon as the result count would pass it; a capped call never
returns a truncated list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Digraph, Dicut, EdgeId, is_weakly_connected
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


def condensation(digraph: Digraph) -> Condensation:
    """Strong components via an iterative Tarjan walk, in deterministic order."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = 0
    for root in sorted(digraph.vertices):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            out = digraph.out_edges(v)
            advanced = False
            while ei < len(out):
                w = digraph.head(out[ei])
                ei += 1
                if w not in index:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    scc_of: dict = {}
    members: dict = {}
    for comp in sccs:
        cid = min(comp)
        members[cid] = tuple(sorted(comp))
        for v in comp:
            scc_of[v] = cid
    dag = set()
    for t, h in digraph.edges:
        ct, ch = scc_of[t], scc_of[h]
        if ct != ch:
            dag.add((ct, ch))
    return Condensation(
        digraph=digraph,
        scc_of=scc_of,
        dag_edges=frozenset(dag),
        component_members=members,
    )


def _dag_maps(cond: Condensation) -> tuple:
    comps = cond.components
    succ: dict = {c: set() for c in comps}
    pred: dict = {c: set() for c in comps}
    und: dict = {c: set() for c in comps}
    for a, b in cond.dag_edges:
        succ[a].add(b)
        pred[b].add(a)
        und[a].add(b)
        und[b].add(a)
    return comps, succ, pred, und


def _transitive_closure(comps: list, step: dict) -> dict:
    """closure[c] = all components reachable from c via `step`, including c."""
    closure: dict = {}
    for root in comps:
        stack = [root]
        while stack:
            c = stack[-1]
            if c in closure:
                stack.pop()
                continue
            pending = [d for d in step[c] if d not in closure]
            if pending:
                stack.extend(pending)
                continue
            acc = {c}
            for d in step[c]:
                acc |= closure[d]
            closure[c] = frozenset(acc)
            stack.pop()
    return closure


def enumerate_dicuts(digraph: Digraph, cap: int = DEFAULT_CAP) -> list:
    """All dicuts of the digraph, exactly once each, in a deterministic order.

    In shores correspond to the successor-closed proper nonempty unions of
    strong components. Raises CapExceeded when the count would pass the cap.
    """
    cond = condensation(digraph)
    comps, succ, pred, und = _dag_maps(cond)
    k = len(comps)
    if k <= 1:
        return []
    desc = _transitive_closure(comps, succ)
    anc = _transitive_closure(comps, pred)
    shores: list = []
    # Each entry is (next component index, status); status maps a decided
    # component to True (in the in shore) or False (in the out shore).
    stack: list = [(0, {})]
    while stack:
        i, status = stack.pop()
        while i < k and comps[i] in status:
            i += 1
        if i == k:
            included = frozenset(c for c, s in status.items() if s)
            if included and len(included) < k:
                if len(shores) >= cap:
                    raise CapExceeded(cap, "enumerating dicuts")
                shores.append(included)
            continue
        c = comps[i]
        closure = desc[c]
        if all(status.get(d, True) for d in closure):
            trial = dict(status)
            for d in closure:
                trial[d] = True
            stack.append((i + 1, trial))
        closure = anc[c]
        if all(not status.get(d, False) for d in closure):
            trial = dict(status)
            for d in closure:
                trial[d] = False
            stack.append((i + 1, trial))

    dicuts = []
    for comp_set in shores:
        in_shore = frozenset(
            v for c in comp_set for v in cond.component_members[c]
        )
        dicuts.append(Dicut(digraph, in_shore))
    dicuts.sort(key=lambda d: (len(d.in_shore), tuple(sorted(d.in_shore))))
    return dicuts


def _reach_within(und: dict, subset: frozenset, start) -> set:
    """The components of `subset` joined to `start` by an undirected path inside it."""
    seen = {start}
    frontier = [start]
    while frontier:
        c = frontier.pop()
        for d in und[c]:
            if d in subset and d not in seen:
                seen.add(d)
                frontier.append(d)
    return seen


def enumerate_dibonds(digraph: Digraph, cap: int = DEFAULT_CAP) -> list:
    """All dibonds, enumerated directly, equal as a set to the dibond filter of enumerate_dicuts.

    A dibond's out shore is a connected predecessor-closed union of strong
    components whose complement is also connected. Those sets are walked by
    anchored connected growth: for each anchor component (the minimum id of
    the grown set) the walk starts from the anchor's ancestor closure and
    adds one undirected neighbor at a time together with its ancestor
    closure, a branch per candidate. Candidates passed over by earlier
    branches are forbidden in later ones, so no set is reached twice.

    Forbidden components can never join the out shore, so they all end up
    in the in shore, which must be a connected subset of the current
    complement. Growing the set only removes components from the
    complement, so once the forbidden components lie in two different weak
    components of the complement, no set grown from here is a dibond and
    the branch is dropped. One search from the least forbidden component
    (or the least complement component when nothing is forbidden) decides
    both that prune and whether the complement is connected, which selects
    the dibonds. Raises CapExceeded when the dibond count would pass the
    cap, and PreconditionViolated when the digraph is not weakly connected,
    where no nonempty dicut has two weakly connected shores.
    """
    if not is_weakly_connected(digraph):
        raise PreconditionViolated("dibonds need a weakly connected digraph")
    cond = condensation(digraph)
    comps, succ, pred, und = _dag_maps(cond)
    k = len(comps)
    if k <= 1:
        return []
    anc = _transitive_closure(comps, pred)
    all_comps = frozenset(comps)
    out_shores: list = []

    for idx, anchor in enumerate(comps):
        base = anc[anchor]
        below = frozenset(comps[:idx])
        if base & below:
            continue
        # Each entry is (grown set, forbidden components).
        stack: list = [(base, below)]
        while stack:
            s, forbidden = stack.pop()
            complement = all_comps - s
            if not complement:
                continue
            reach = _reach_within(
                und, complement, min(forbidden) if forbidden else min(complement)
            )
            if not forbidden <= reach:
                continue
            if len(reach) == len(complement):
                if len(out_shores) >= cap:
                    raise CapExceeded(cap, "enumerating dibonds")
                out_shores.append(s)
            candidates = sorted({d for c in s for d in und[c]} - s - forbidden)
            blocked = set(forbidden)
            for u in candidates:
                need = anc[u]
                if not need & blocked:
                    stack.append((s | need, frozenset(blocked)))
                blocked.add(u)

    dibonds = []
    for s in out_shores:
        in_shore = frozenset(
            v
            for c in all_comps - s
            for v in cond.component_members[c]
        )
        cut = Dicut(digraph, in_shore)
        dibonds.append(cut)
    dibonds.sort(key=lambda d: (len(d.in_shore), tuple(sorted(d.in_shore))))
    return dibonds


def dibonds_containing_edge(digraph: Digraph, e: EdgeId, cap: int = DEFAULT_CAP) -> list:
    """All dibonds whose edge set contains the edge id `e`."""
    if not 0 <= e < digraph.m:
        raise ValueError(f"unknown edge id {e}")
    return [b for b in enumerate_dibonds(digraph, cap) if e in b.edge_set]
