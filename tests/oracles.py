"""Brute-force oracles and corpus generators.

Everything in this module is deliberately independent of the package's
own algorithms: shores are enumerated as raw subsets, connectivity is
plain BFS, minima are found by exhausting subsets in size order, and
flows use integral augmenting paths.  A disagreement between an oracle
and the package therefore always indicts the fast path, never a shared
helper.  The exceptions are `finitary_by_scan`,
`nested_extension_by_recursion` and `dijoin_choices_by_product`, which
read the package's own window dibonds (checked against `brute_dibonds` in
the enumeration tests) because brute force cannot reach family windows;
the last also takes the package's nested family. `selection_fault`
checks a nested selection from its in-shores alone.
The set-solver references below are the package's earlier frozenset
kernels, kept so that the mask kernels can be required to return the
same answers, tie-breaks included; `min_hitting_mask_by_rows` keeps the
earlier row-form mask search, the reference for the column-table one;
`covering_transversal` keeps the earlier Koenig cover search,
`konig_by_matching_enumeration` the earlier
search over all maximum matchings, on that transversal search, and
`dibond_masks_by_rescan` the earlier dibond walk,
which searches the whole complement at every set, on the earlier set-up
kept here: `condensation_by_dicts` (the Tarjan walk over vertex dicts),
`walk_tables_by_reindexing` and `closures_by_post_order`, so it shares
no set-up with the walk under test; `cut_masks_by_edges` is the earlier
cut check, one pass over every edge; and `dibonds_containing_edge_by_filter` the
earlier per-edge query, which filters every dibond of the package's
walk on its edge mask. `nested_by_shores` is the earlier frozenset
test of nestedness, the reference for the one on shore masks, and
`corner_closure_by_passes` closes a seed by whole passes over every pair,
on the package's meet, join and split. `split_solve_merge_by_members` is
the earlier 2-block split, which sorts the members by block and solves
each block's share on the whole digraph, the reference for the split
that solves each block's minor. `component_labels` is the
package's earlier set-based search, kept unchanged as the reference for
the vertex-mask one, and the references built on it below are the
earlier set versions of weak connectivity, dibonds, dicut
reconstruction and the split of a dicut; `meets_every_dibond_by_contraction`
is the earlier D/F test, which contracts F into a new digraph and
counts its strong components with the package's condensation.
`end_component_counts` counts source and sink strong components on
`kosaraju_scc`, which tells the rooted digraphs, solved by the
branching, from the others. `zigzag_raw_by_fstrings`,
`grid_raw_by_fstrings` and `ladder_raw_by_fstrings`, with `grid_ymin`,
are the package's earlier window generators, copied verbatim but for
their names: they format a vertex name each time it is used, and the
grid tests each point's survival through neighbour closures. They are
the reference for the generators that name each vertex and edge once,
and `window_from_raw` is the earlier `window`, which copies class_of,
on a given raw window.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from dicuts import (
    CapExceeded,
    DibondClass,
    Dicut,
    Digraph,
    OptimalPair,
    PreconditionViolated,
    block_cut_tree,
    condensation,
    decompose_dicut,
    exact_max_set_packing,
    finite_dibonds_in_window,
    is_weakly_connected,
    join,
    maximal_nested_disjoint_family,
    meet,
    nested,
    nested_optimal_pair,
    verify_optimal_pair,
)
from dicuts.core import _edge_mask, bit_positions
from dicuts.enumeration import DEFAULT_CAP, Condensation, _build, _dibond_masks
from dicuts.families import FamilyWindow, RawWindow


# ---------------------------------------------------------------------------
# connectivity helpers


def und_adjacency(digraph):
    adj = {v: set() for v in digraph.vertices}
    for t, h in digraph.edges:
        adj[t].add(h)
        adj[h].add(t)
    return adj


def connected_subset(digraph, vertices):
    """True when the given vertices induce one weak component."""
    vertices = set(vertices)
    if not vertices:
        return True
    adj = und_adjacency(digraph)
    seen = {next(iter(sorted(vertices)))}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == vertices


def component_labels(digraph, within=None, removed=frozenset()):
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


def weakly_connected_by_labels(digraph):
    return len(set(component_labels(digraph).values())) <= 1


def dibond_by_labels(cut):
    """A nonempty dicut whose removal leaves exactly two weak components."""
    labels = component_labels(cut.digraph, removed=cut.edge_set)
    return bool(cut.edge_set) and len(set(labels.values())) == 2


def entering_and_leaving(digraph, shore):
    """The ids of the edges entering, and of those leaving, a vertex set."""
    edges = list(enumerate(digraph.edges))
    return (
        frozenset(e for e, (t, h) in edges if h in shore and t not in shore),
        frozenset(e for e, (t, h) in edges if t in shore and h not in shore),
    )


def dicut_from_edge_set_by_labels(digraph, edge_set):
    """The in shore of the dicut with exactly these edges, or None: each
    weak component of the digraph minus them goes to the shore its cut
    edges force it onto."""
    b = frozenset(edge_set)
    if not b:
        return None
    comp_of = component_labels(digraph, removed=b)
    label = {}
    for e in b:
        t_comp, h_comp = comp_of[digraph.tail(e)], comp_of[digraph.head(e)]
        if t_comp == h_comp:
            return None
        if label.get(t_comp, "out") != "out" or label.get(h_comp, "in") != "in":
            return None
        label[t_comp] = "out"
        label[h_comp] = "in"
    if any(comp not in label for comp in set(comp_of.values())):
        return None
    y = frozenset(v for v in digraph.vertices if label[comp_of[v]] == "in")
    if not y or y == digraph.vertices:
        return None
    return y if entering_and_leaving(digraph, y) == (b, frozenset()) else None


def decompose_by_labels(dicut):
    """The in shores of the dibonds a nonempty dicut splits into, sorted by
    their edges, splitting on the weak components of each shore set."""
    digraph = dicut.digraph

    def components(subset):
        comps = {}
        for v, c in component_labels(digraph, subset).items():
            comps.setdefault(c, set()).add(v)
        return [frozenset(comp) for comp in comps.values()]

    parts = []
    stack = [dicut.in_shore]
    while stack:
        y = stack.pop()
        in_comps = components(y)
        if len(in_comps) > 1:
            split = in_comps
        else:
            out_comps = components(digraph.vertices - y)
            if len(out_comps) == 1:
                parts.append(y)
                continue
            split = [digraph.vertices - comp for comp in out_comps]
        for shore in split:
            entering, leaving = entering_and_leaving(digraph, shore)
            assert not leaving
            if not entering:
                raise PreconditionViolated("dibonds need a weakly connected digraph")
        stack.extend(split)
    return sorted(parts, key=lambda y: min(entering_and_leaving(digraph, y)[0]))


def meets_every_dibond_by_contraction(digraph, f):
    """Whether D/F, D with the edges of F contracted, is strongly connected."""
    label = component_labels(digraph, removed=frozenset(digraph.edge_ids()).difference(f))
    contracted = Digraph(
        set(label.values()),
        [(label[t], label[h]) for t, h in digraph.edges if label[t] != label[h]],
    )
    return len(condensation(contracted).components) <= 1


def kosaraju_scc(digraph):
    """Strongly connected components as a frozenset of frozensets."""
    order = []
    seen = set()
    out = {v: [] for v in digraph.vertices}
    rev = {v: [] for v in digraph.vertices}
    for t, h in digraph.edges:
        out[t].append(h)
        rev[h].append(t)
    for root in sorted(digraph.vertices):
        if root in seen:
            continue
        stack = [(root, iter(out[root]))]
        seen.add(root)
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comps = []
    assigned = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = {root}
        queue = deque([root])
        assigned.add(root)
        while queue:
            v = queue.popleft()
            for w in rev[v]:
                if w not in assigned:
                    assigned.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return frozenset(comps)


def end_component_counts(digraph):
    """(source, sink) strong component counts: the components with no
    entering edge, and those with no leaving edge, by kosaraju_scc."""
    cuts = [entering_and_leaving(digraph, comp) for comp in kosaraju_scc(digraph)]
    return sum(not entering for entering, _ in cuts), sum(not leaving for _, leaving in cuts)


def unrooted_weak_digraphs(rng, count, **kwargs):
    """`count` random_weak_digraph draws, with the given keywords, that
    have at least two source and two sink strong components."""
    found = []
    while len(found) < count:
        d = random_weak_digraph(rng, **kwargs)
        if min(end_component_counts(d)) >= 2:
            found.append(d)
    return found


def meets_every_dicut(digraph, edge_ids):
    """Dijoin test on a weakly connected digraph, without enumerating dicuts.

    The edges meet every dicut iff contracting them leaves a strongly
    connected digraph, that is iff adding their reversals makes the
    digraph strongly connected.
    """
    back = [(digraph.head(e), digraph.tail(e)) for e in edge_ids]
    return len(kosaraju_scc(Digraph(digraph.vertices, digraph.edges + tuple(back)))) == 1


def finitary_by_scan(w, set_name):
    """(verdict, first miss) of a named window set, by scanning every window dibond.

    The enumeration scan that decides `check_finitary_dijoin` by
    definition: the first dibond in canonical order that the set misses,
    or (True, None) when it meets them all.
    """
    edge_set = w.named_edge_sets[set_name]
    for b in finite_dibonds_in_window(w):
        if not (b.edge_set & edge_set):
            return False, b
    return True, None


def nested_extension_by_recursion(w, set_name):
    """The recursive search that `nested_extension_search` replaced.

    The same candidates and the same fewest-candidates-first edge order,
    searched by one recursive call per named edge; kept so that the
    explicit-stack search can be required to make the same selection.
    """
    edge_set = w.named_edge_sets[set_name]
    if not edge_set:
        return {}
    dibonds = finite_dibonds_in_window(w)
    candidates = {}
    for e in sorted(edge_set):
        cands = [b for b in dibonds if e in b.edge_set and len(b.edge_set & edge_set) == 1]
        if not cands:
            return None
        candidates[e] = cands
    order = sorted(edge_set, key=lambda e: (len(candidates[e]), e))
    chosen = {}

    def search(i):
        if i == len(order):
            return True
        for b in candidates[order[i]]:
            if all(not (b.edge_set & c.edge_set) and nested(b, c) for c in chosen.values()):
                chosen[order[i]] = b
                if search(i + 1):
                    return True
                del chosen[order[i]]
        return False

    return dict(chosen) if search(0) else None


def selection_fault(digraph, f, selection):
    """None when `selection` is a nested selection for the edge set f, else
    its first fault: one dicut per edge of f, from its in-shore alone,
    that contains the edge and no other edge of f, whose removal leaves
    two weak components, and that is edge-disjoint from and nested with
    every other."""
    f = frozenset(f)
    if set(selection) != f:
        return "the selection's keys are not the set"
    cuts = []
    for e, b in sorted(selection.items()):
        shore = b.in_shore
        into, out = entering_and_leaving(digraph, shore)
        if out or not into or len(set(component_labels(digraph, removed=into).values())) != 2:
            return f"the member for edge {e} is no dibond"
        if into & f != {e}:
            return f"the member for edge {e} meets the set in {sorted(into & f)}"
        cuts.append((shore, into))
    for (y1, c1), (y2, c2) in itertools.combinations(cuts, 2):
        if c1 & c2:
            return "two members share an edge"
        if not (y1 <= y2 or y2 <= y1 or not y1 & y2 or len(y1 | y2) == digraph.n):
            return "two members cross"
    return None


def dijoin_choices_by_product(w, klass):
    """The dijoin choices of one compactness window, by filtering the product.

    Every pick of one edge from each member of the window's maximal nested
    disjoint family, in `itertools.product` order, that meets every class
    member, as a set of symbolic edge names: the filter that
    `compactness_run` ran before its choices came from the pruned search.
    """
    family = maximal_nested_disjoint_family(w.digraph, klass)
    member_sets = [m.edge_set for m in klass.members]
    choices = []
    for combo in itertools.product(*(sorted(b.edge_set) for b in family)):
        pick = frozenset(combo)
        if all(pick & ms for ms in member_sets):
            choices.append(frozenset(w.edge_provenance[e] for e in pick))
    return choices


def condensation_by_dicts(digraph):
    """The package's earlier `condensation`: an iterative Tarjan walk over
    vertex dicts, with the same roots and edge order as the one over
    vertex bits. Out-edges are read off `digraph.edges`, in id order."""
    out_edges: dict = {v: [] for v in digraph.vertices}
    for e, (t, _h) in enumerate(digraph.edges):
        out_edges[t].append(e)
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = 0
    for root in reversed(digraph.vertex_order):
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
            out = out_edges[v]
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


def walk_tables_by_reindexing(digraph):
    """The package's earlier `_walk_tables`: succ, pred, und, verts, tails
    and heads per component, re-indexed from `condensation_by_dicts`."""
    cond = condensation_by_dicts(digraph)
    comps = cond.components
    k = len(comps)
    if k <= 1:
        return None
    index = {c: i for i, c in enumerate(comps)}
    succ = [0] * k
    pred = [0] * k
    for a, b in cond.dag_edges:
        succ[index[a]] |= 1 << index[b]
        pred[index[b]] |= 1 << index[a]
    und = [s | p for s, p in zip(succ, pred)]
    comp_of = {v: index[c] for v, c in cond.scc_of.items()}
    verts = [0] * k
    tails = [0] * k
    heads = [0] * k
    for j, v in enumerate(digraph.vertex_order):
        verts[comp_of[v]] |= 1 << j
    for e, (t, h) in enumerate(digraph.edges):
        tails[comp_of[t]] |= 1 << e
        heads[comp_of[h]] |= 1 << e
    return succ, pred, und, verts, tails, heads


def closures_by_post_order(step, tables):
    """The package's earlier `_closures`: a post-order pass on an explicit
    stack, in any index order, each component finished once every `step`
    neighbour is."""
    closures: list = [None] * len(step)
    for root in range(len(step)):
        stack = [root]
        while stack:
            i = stack[-1]
            if closures[i] is not None:
                stack.pop()
                continue
            nexts = bit_positions(step[i])
            pending = [j for j in nexts if closures[j] is None]
            if pending:
                stack.extend(pending)
                continue
            acc = [1 << i, *(table[i] for table in tables)]
            for j in nexts:
                acc = [a | b for a, b in zip(acc, closures[j])]
            closures[i] = tuple(acc)
            stack.pop()
    return closures


def cut_masks_by_edges(digraph, shore_mask):
    """The package's earlier `_cut_masks`: one pass over every edge,
    testing both ends against the shore mask."""
    bit = digraph.vertex_bit
    entering = leaving = 0
    for e, (t, h) in enumerate(digraph.edges):
        inside = shore_mask >> bit[h] & 1
        if inside != shore_mask >> bit[t] & 1:
            if inside:
                entering |= 1 << e
            else:
                leaving |= 1 << e
    return entering, leaving


def dibond_masks_by_rescan(digraph, cap=10**6):
    """The dibond walk that `enumeration._dibond_masks` replaced.

    The same anchored growth, prune and emission, in the same order, but
    the reach of every set is a fresh search over its whole complement;
    kept so that the walk that carries each set's reach can be required
    to return the same (vertex mask, edge mask) list in the same order.
    """
    if not is_weakly_connected(digraph):
        raise ValueError("dibonds need a weakly connected digraph")
    tables = walk_tables_by_reindexing(digraph)
    if tables is None:
        return []
    _succ, pred, und, verts, tails, heads = tables
    k = len(und)
    anc = closures_by_post_order(pred, (und, verts, tails, heads))
    full = (1 << k) - 1
    all_vertices = (1 << digraph.n) - 1
    found = []

    def reach_within(subset, start):
        seen = frontier = start
        while frontier:
            step = 0
            for i in bit_positions(frontier):
                step |= und[i]
            frontier = step & subset & ~seen
            seen |= frontier
        return seen

    for idx in range(k):
        below = (1 << idx) - 1
        if anc[idx][0] & below:
            continue
        stack = [(below,) + anc[idx]]
        while stack:
            forbidden, s, nbrs, vs, ts, hs = stack.pop()
            complement = full ^ s
            if not complement:
                continue
            start = forbidden or complement
            reach = reach_within(complement, start & -start)
            if forbidden & ~reach:
                continue
            if reach == complement:
                if len(found) >= cap:
                    raise CapExceeded(cap, "enumerating dibonds")
                assert not hs & ~ts
                found.append((all_vertices ^ vs, ts & ~hs))
            blocked = forbidden
            for u in bit_positions(nbrs & complement & ~forbidden):
                need, un, uv, ut, uh = anc[u]
                if not need & blocked:
                    stack.append((blocked, s | need, nbrs | un, vs | uv, ts | ut, hs | uh))
                blocked |= 1 << u
    return found


def dibonds_containing_edge_by_filter(digraph, e, cap=DEFAULT_CAP):
    """The `dibonds_containing_edge` that walked every dibond and kept those
    whose edge mask has bit e; its cap counts every dibond."""
    if not 0 <= e < digraph.m:
        raise ValueError(f"unknown edge id {e}")
    found = _dibond_masks(digraph, cap)
    return _build(digraph, [item for item in found if item[1] >> e & 1], True)


# ---------------------------------------------------------------------------
# brute cut enumeration


def brute_dicuts(digraph):
    """Every dicut, found by testing all proper nonempty shores."""
    vertices = sorted(digraph.vertices)
    found = {}
    for r in range(1, len(vertices)):
        for combo in itertools.combinations(vertices, r):
            shore = frozenset(combo)
            closed = all(
                h in shore for t, h in digraph.edges if t in shore
            )
            if closed:
                found[shore] = Dicut(digraph, shore)
    return list(found.values())


def brute_dibonds(digraph):
    """Dicuts whose two shores each induce one weak component."""
    bonds = []
    for cut in brute_dicuts(digraph):
        if not cut.edge_set:
            continue
        if connected_subset(digraph, cut.in_shore) and connected_subset(
            digraph, cut.out_shore
        ):
            bonds.append(cut)
    return bonds


def brute_dibond_partitions(digraph, edge_set, bonds=None):
    """All ways to split edge_set into pairwise disjoint dibonds."""
    if bonds is None:
        bonds = brute_dibonds(digraph)
    usable = [b for b in bonds if b.edge_set <= edge_set]
    usable.sort(key=lambda b: sorted(b.edge_set))
    results = []

    def extend(remaining, chosen):
        if not remaining:
            results.append(tuple(chosen))
            return
        anchor = min(remaining)
        for b in usable:
            if anchor in b.edge_set and b.edge_set <= remaining:
                chosen.append(b)
                extend(remaining - b.edge_set, chosen)
                chosen.pop()

    extend(frozenset(edge_set), [])
    return results


def nested_by_shores(c1, c2):
    """The frozenset test that `core.nested` replaced: some shore of one
    dicut lies inside some shore of the other."""
    if c1.digraph != c2.digraph:
        raise ValueError("dicuts are over different digraphs")
    y1, y2 = c1.in_shore, c2.in_shore
    if y1 <= y2 or y2 <= y1:
        return True
    inter = len(y1 & y2)
    if inter == 0:
        return True
    return len(y1) + len(y2) - inter == c1.digraph.n


def corner_closure_by_passes(seed):
    """The seed's closure under split meets and joins, by whole passes over
    every pair until one adds nothing, in the canonical edge set order."""
    members = {cut.in_shore: cut for cut in seed}
    while True:
        new = {}
        for a, b in itertools.combinations(list(members.values()), 2):
            for corner in (meet(a, b), join(a, b)):
                if corner.edge_set:
                    for part in decompose_dicut(corner):
                        if part.in_shore not in members:
                            new[part.in_shore] = part
        if not new:
            return sorted(members.values(), key=lambda c: (len(c.edge_set), sorted(c.edge_set)))
        members.update(new)


def split_solve_merge_by_members(digraph, klass):
    """The package's earlier `reduce.split_solve_merge`: the members are
    split by block, each block's share is solved on the whole digraph as
    a sub-class in class order that inherits corner_closed, and the
    merged pair is verified against the whole class."""
    if klass.digraph != digraph:
        raise PreconditionViolated("class belongs to a different digraph")
    tree = block_cut_tree(digraph)
    block_masks = [_edge_mask(digraph, block) for block in tree.blocks]
    by_block: dict = {}  # each block's members, kept in class order
    for member in klass.members:
        home = None
        for i, block in enumerate(block_masks):
            if not member.edge_mask & ~block:
                home = i
                break
        if home is None:
            raise RuntimeError("internal error: a class member spans multiple blocks")
        by_block.setdefault(home, []).append(member)
    dijoin: set = set()
    family: list = []
    for i in sorted(by_block):
        sub = DibondClass._known(digraph, tuple(by_block[i]), klass.corner_closed)
        pair = nested_optimal_pair(digraph, sub)
        if pair is None:
            return None
        dijoin |= pair.dijoin
        family.extend(pair.family)
    merged = OptimalPair(dijoin=frozenset(dijoin), family=family, nested=True)
    verify_optimal_pair(digraph, klass, merged)
    return merged


# ---------------------------------------------------------------------------
# brute optimization


def hits_every(edge_ids, cuts):
    chosen = frozenset(edge_ids)
    return all(chosen & c.edge_set for c in cuts)


def brute_min_dijoin(digraph, cuts=None):
    """Smallest edge set meeting every nonempty dicut, by subset sweep."""
    if cuts is None:
        cuts = [c for c in brute_dicuts(digraph) if c.edge_set]
    ids = list(digraph.edge_ids())
    for r in range(0, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if hits_every(combo, cuts):
                return frozenset(combo)
    raise AssertionError("no hitting set found")


def brute_max_packing(cuts):
    """Largest pairwise edge-disjoint subfamily, by branch and bound."""
    cuts = [c for c in cuts if c.edge_set]
    cuts.sort(key=lambda c: len(c.edge_set))
    best = []

    def extend(i, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if i == len(cuts) or len(chosen) + (len(cuts) - i) <= len(best):
            return
        c = cuts[i]
        if not (c.edge_set & used):
            chosen.append(c)
            extend(i + 1, chosen, used | c.edge_set)
            chosen.pop()
        extend(i + 1, chosen, used)

    extend(0, [], frozenset())
    return best


# ---------------------------------------------------------------------------
# set-solver references: the frozenset kernels the mask kernels replaced


def greedy_cover_by_recount(sets):
    """Greedy cover of nonempty sets, recounting the uncovered sets after each pick."""
    uncovered = list(sets)
    chosen = set()
    while uncovered:
        counts = {}
        for s in uncovered:
            for e in s:
                counts[e] = counts.get(e, 0) + 1
        best_e = min(counts, key=lambda e: (-counts[e], e))
        chosen.add(best_e)
        uncovered = [s for s in uncovered if best_e not in s]
    return frozenset(chosen)


def _greedy_packing_size(sets):
    used = set()
    count = 0
    for s in sets:
        if not (s & used):
            used |= s
            count += 1
    return count


def min_hitting_set_by_recursion(sets):
    """Exact minimum hitting set, branching over a smallest unhit set's elements."""
    todo = sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s))))
    if not todo:
        return frozenset()
    best = greedy_cover_by_recount(todo)

    def search(chosen, uncovered):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = frozenset(chosen)
            return
        if len(chosen) + _greedy_packing_size(uncovered) >= len(best):
            return
        pivot = min(uncovered, key=lambda s: (len(s), tuple(sorted(s))))
        for e in sorted(pivot):
            chosen.add(e)
            search(chosen, [s for s in uncovered if e not in s])
            chosen.discard(e)

    search(set(), todo)
    return best


def min_hitting_mask_by_rows(masks):
    """The package's earlier row-form minimum hitting set of nonempty int masks.

    Kept as the reference for the column-table search: each node holds
    the list of unhit masks in the given order and filters it per branch;
    the greedy cover counts from a bit list per mask, and the lower bound
    is a greedy disjoint sub-packing of the unhit masks.
    """
    if not all(masks):
        raise ValueError("cannot hit an empty set")

    def greedy_cover(rows):
        counts = [0] * max((m.bit_length() for m, _positions in rows), default=0)
        for _m, positions in rows:
            for p in positions:
                counts[p] += 1
        cover = 0
        while rows:
            pick = 1 << counts.index(max(counts))
            cover |= pick
            uncovered = []
            for row in rows:
                if row[0] & pick:
                    for p in row[1]:
                        counts[p] -= 1
                else:
                    uncovered.append(row)
            rows = uncovered
        return cover

    def packing_lower_bound(unhit):
        used = 0
        count = 0
        for m in unhit:
            if not m & used:
                used |= m
                count += 1
        return count

    best = greedy_cover([(m, bit_positions(m)) for m in masks])
    stack = [(0, 0, masks)]
    while stack:
        chosen, size, uncovered = stack.pop()
        if not uncovered:
            if size < best.bit_count():
                best = chosen
            continue
        if size + packing_lower_bound(uncovered) >= best.bit_count():
            continue
        stack.extend(
            (chosen | 1 << p, size + 1, [m for m in uncovered if not m >> p & 1])
            for p in reversed(bit_positions(uncovered[0]))
        )
    return best


def largest_disjoint_by_recursion(sets, stop=None, also=None):
    """Indices of the lexicographically first largest disjoint subfamily.

    Pairs must also pass also(i, j) when given; stops at `stop` members.
    The greedy cover bound is computed at every level.
    """
    best = []
    chosen = []

    def search(cands):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) == stop:
            return True
        rest = [sets[i] for i in cands]
        cover = greedy_cover_by_recount([s for s in rest if s])
        if len(chosen) + len(cover) + sum(not s for s in rest) <= len(best):
            return False
        for pos, i in enumerate(cands):
            chosen.append(i)
            done = search([
                j for j in cands[pos + 1:]
                if not (sets[i] & sets[j]) and (also is None or also(i, j))
            ])
            chosen.pop()
            if done:
                return True
        return False

    search(list(range(len(sets))))
    return best


def covering_transversal(members, hyperedges):
    """One vertex per member such that every hyperedge is hit, or None.

    The package's earlier transversal search, kept as the reference for
    `konig_property`'s cover: levels in member order, vertices in sorted
    order, with a covered flag per hyperedge undone on backtracking.

    Every hyperedge intersects the union of a maximum matching, so a
    hyperedge can only be hit by choices at the members it meets; the
    search prunes as soon as a hyperedge has run out of meeting members.
    """
    k = len(members)
    meets = []
    for h in hyperedges:
        idx = tuple(i for i, m in enumerate(members) if m & h)
        if not idx:
            return None
        meets.append(idx)
    last_chance: dict = {}
    for hi, idx in enumerate(meets):
        if idx:
            last_chance.setdefault(idx[-1], []).append(hi)
    if not k:  # then there are no hyperedges either
        return frozenset()
    covered = [False] * len(hyperedges)
    picked: list = []  # the vertex chosen at each level
    undo: list = []  # the hyperedges each of those choices newly covered
    untried = [iter(sorted(members[0]))]
    while untried:
        i = len(untried) - 1
        if len(picked) > i:
            picked.pop()
            for hi in undo.pop():
                covered[hi] = False
        v = next(untried[i], None)
        if v is None:
            untried.pop()
            continue
        newly = [hi for hi, h in enumerate(hyperedges) if not covered[hi] and v in h]
        for hi in newly:
            covered[hi] = True
        if any(not covered[hi] for hi in last_chance.get(i, ())):
            for hi in newly:
                covered[hi] = False
            continue
        picked.append(v)
        undo.append(newly)
        if i + 1 < k:
            untried.append(iter(sorted(members[i + 1])))
        elif all(covered):
            return frozenset(picked)
    return None


def konig_by_matching_enumeration(hypergraph):
    """(matching, cover) the way `konig_property` once searched, or None.

    Walks the maximum matchings in canonical order, each as ascending
    indices into the hyperedges sorted by size and then elements, and
    returns the first with a one-vertex-per-member cover. The matching
    size and the transversal search are the package's own; what this
    keeps is the search over all maximum matchings that the single
    canonical matching replaced.
    """
    edges = sorted(set(hypergraph.hyperedges), key=lambda h: (len(h), tuple(sorted(h))))
    if not edges:
        return (), frozenset()
    size = len(exact_max_set_packing(edges))

    def extend(i, used, chosen):
        if len(chosen) == size:
            members = [edges[j] for j in chosen]
            cover = covering_transversal(members, edges)
            return None if cover is None else (tuple(members), cover)
        if i == len(edges):
            return None
        if not (edges[i] & used):
            found = extend(i + 1, used | edges[i], chosen + (i,))
            if found is not None:
                return found
        return extend(i + 1, used, chosen)

    return extend(0, frozenset(), ())


# ---------------------------------------------------------------------------
# corpora


def exhaustive_three_vertex_corpus():
    """All weakly connected digraphs on {a,b,c} with at most 6 edges.

    Parallel edges are included up to multiplicity 2 per ordered pair.
    """
    vertices = ("a", "b", "c")
    pairs = [(t, h) for t in vertices for h in vertices if t != h]
    corpus = []
    for mults in itertools.product(range(3), repeat=len(pairs)):
        total = sum(mults)
        if total == 0 or total > 6:
            continue
        edges = []
        for pair, k in zip(pairs, mults):
            edges.extend([pair] * k)
        digraph = Digraph.from_edges(edges, isolated=vertices)
        if connected_subset(digraph, digraph.vertices):
            corpus.append(digraph)
    return corpus


def exhaustive_simple_digraphs(n, max_edges):
    """All weakly connected simple digraphs on n labelled vertices."""
    vertices = tuple(f"v{i}" for i in range(n))
    arcs = [(t, h) for t in vertices for h in vertices if t != h]
    corpus = []
    for r in range(1, max_edges + 1):
        for combo in itertools.combinations(arcs, r):
            digraph = Digraph.from_edges(combo, isolated=vertices)
            if connected_subset(digraph, digraph.vertices):
                corpus.append(digraph)
    return corpus


def random_weak_digraph(rng, max_n=7, max_extra=7, parallels=True):
    """Random weakly connected digraph built from an oriented tree."""
    n = rng.randint(2, max_n)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        other = vertices[rng.randrange(i)]
        pair = (vertices[i], other)
        if rng.random() < 0.5:
            pair = (other, vertices[i])
        edges.append(pair)
    for _ in range(rng.randint(0, max_extra)):
        t, h = rng.sample(vertices, 2)
        if not parallels and (t, h) in edges:
            continue
        edges.append((t, h))
    return Digraph.from_edges(edges)


def disconnected_digraphs(seed=9, count=80):
    """Two random weak digraphs side by side, sometimes with an isolated
    vertex as well: never weakly connected."""
    rng = random.Random(seed)
    for _ in range(count):
        left, right = random_weak_digraph(rng, max_n=4), random_weak_digraph(rng, max_n=4)
        edges = list(left.edges) + [(f"w{t}", f"w{h}") for t, h in right.edges]
        yield Digraph.from_edges(edges, isolated=["z"] * rng.randint(0, 1))


def random_dag(rng, n, extra):
    """Random spanning tree on 0..n-1 plus `extra` edges, every edge low to high."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(extra):
        t, h = sorted(rng.sample(range(n), 2))
        edges.append((t, h))
    return Digraph.from_edges(edges)


def random_multigraph_edges(rng, max_n=8, max_m=12):
    """Random connected loopless undirected edge list on string names."""
    n = rng.randint(2, max_n)
    vertices = [f"u{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((vertices[rng.randrange(i)], vertices[i]))
    while len(edges) < rng.randint(n - 1, max_m):
        a, b = rng.sample(vertices, 2)
        edges.append((a, b))
    return vertices, edges


# ---------------------------------------------------------------------------
# disjoint path oracle


def max_disjoint_path_count(edges, a_set, b_set):
    """Maximum number of fully vertex-disjoint A-B paths.

    Paths may touch A and B only at their endpoints.  Computed with a
    unit-capacity node-split flow network and augmenting BFS, so the
    value is exact.
    """
    a_set = frozenset(a_set)
    b_set = frozenset(b_set)
    vertices = set(a_set) | set(b_set)
    for u, v in edges:
        vertices.add(u)
        vertices.add(v)

    capacity = {}

    def add(u, v):
        capacity.setdefault(u, {})[v] = capacity.get(u, {}).get(v, 0) + 1
        capacity.setdefault(v, {}).setdefault(u, 0)

    for v in vertices:
        add(("in", v), ("out", v))
    for u, v in edges:
        if u == v:
            continue
        if u not in a_set - b_set and v not in b_set - a_set:
            add(("out", v), ("in", u))
        if v not in a_set - b_set and u not in b_set - a_set:
            add(("out", u), ("in", v))
    for a in a_set:
        add("S", ("in", a))
    for b in b_set:
        add(("out", b), "T")

    flow = 0
    while True:
        parent = {"S": None}
        queue = deque(["S"])
        while queue and "T" not in parent:
            u = queue.popleft()
            for v, cap in capacity.get(u, {}).items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if "T" not in parent:
            return flow
        v = "T"
        while parent[v] is not None:
            u = parent[v]
            capacity[u][v] -= 1
            capacity[v][u] += 1
            v = u
        flow += 1


# ---------------------------------------------------------------------------
# family windows


def zigzag_raw_by_fstrings(n: int) -> RawWindow:
    class_of = {}
    for i in range(n):
        class_of[f"a{i}"] = f"a{i}"
    class_of[f"a{n}"] = "rest"
    for i in range(n + 1):
        class_of[f"b{i}"] = f"b{i}"
    class_of["r"] = "rest"
    edges = []
    for i in range(n + 1):
        edges.append((f"a{i}->b{i}", f"a{i}", f"b{i}"))
    for i in range(n):
        edges.append((f"a{i}->b{i+1}", f"a{i}", f"b{i+1}"))
    for i in range(n + 1):
        edges.append((f"b{i}->r", f"b{i}", "r"))
    verticals = tuple(f"a{i}->b{i}" for i in range(n + 1))
    spokes = tuple(f"b{i}->r" for i in range(n + 1))
    named = {
        "verticals": verticals,
        "diagonals": tuple(f"a{i}->b{i+1}" for i in range(n)),
        "spokes": spokes,
        "verticals_and_first_spoke": verticals + ("b0->r",),
        "spokes_without_first": spokes[1:],
    }
    return RawWindow(tuple(edges), class_of, named)


def grid_ymin(x: int) -> int:
    # lowest y with (x, y) in the half-plane x - 2y <= 2
    return (x - 1) // 2


def grid_raw_by_fstrings(n: int) -> RawWindow:
    depth = max(2, -(-n // 5))
    core = set()
    for x in range(-n, n + 1):
        y0 = grid_ymin(x)
        for y in range(y0, y0 + depth + 1):
            core.add((x, y))

    def in_plane(x: int, y: int) -> bool:
        return x - 2 * y <= 2

    def neighbors(x: int, y: int) -> list:
        # (x,y+1) and (x-1,y) are always in the half-plane
        out = [(x, y + 1), (x - 1, y)]
        if in_plane(x, y - 1):
            out.append((x, y - 1))
        if in_plane(x + 1, y):
            out.append((x + 1, y))
        return out

    survives = {v: all(u in core for u in neighbors(*v)) for v in core}

    def sym(v: tuple) -> str:
        return f"({v[0]},{v[1]})"

    class_of = {sym(v): (sym(v) if survives[v] else "rest") for v in core}
    edges = []
    for (x, y) in sorted(core):
        up = (x, y + 1)
        if up in core:
            edges.append((f"{sym(up)}->{sym((x, y))}", sym(up), sym((x, y))))
        left = (x - 1, y)
        if left in core:
            edges.append((f"{sym(left)}->{sym((x, y))}", sym(left), sym((x, y))))

    drops = []
    for k in range(-(n // 2) - 1, n // 2 + 2):
        top, corner = (2 * k, k), (2 * k, k - 1)
        if top in core and corner in core:
            drops.append(f"{sym(top)}->{sym(corner)}")
    steps = []
    for k in range(-(n + 1) // 2 - 1, (n + 1) // 2 + 2):
        into, corner = (2 * k - 1, k - 1), (2 * k, k - 1)
        if into in core and corner in core:
            steps.append(f"{sym(into)}->{sym(corner)}")
        top, beyond = (2 * k, k), (2 * k + 1, k)
        if top in core and beyond in core:
            steps.append(f"{sym(top)}->{sym(beyond)}")
    named = {"vertical_drops": tuple(drops), "horizontal_steps": tuple(steps)}
    return RawWindow(tuple(edges), class_of, named)


def ladder_raw_by_fstrings(n: int) -> RawWindow:
    def cls(prefix: str, i: int) -> str:
        if i == -n:
            return "left"
        if i == n:
            return "right"
        return f"{prefix}{i}"

    class_of = {}
    for i in range(-n, n + 1):
        class_of[f"u{i}"] = cls("u", i)
        class_of[f"w{i}"] = cls("w", i)
    edges = []
    for i in range(-n, n):
        edges.append((f"u{i}->u{i+1}", f"u{i}", f"u{i+1}"))
    for i in range(-n, n):
        edges.append((f"w{i+1}->w{i}", f"w{i+1}", f"w{i}"))
    for i in range(-n, n + 1):
        edges.append((f"w{i}->u{i}", f"w{i}", f"u{i}"))
    return RawWindow(tuple(edges), class_of, {})


def window_from_raw(spec, n, raw):
    """The package's earlier `window`, copied verbatim but for taking the
    raw window as an argument: it copies class_of into class_map."""
    if n < 1:
        raise ValueError("window index must be at least 1")
    pairs = []
    provenance = {}
    dropped = []
    for name, tail, head in raw.symbolic_edges:
        ct, ch = raw.class_of[tail], raw.class_of[head]
        if ct == ch:
            dropped.append(name)
            continue
        provenance[len(pairs)] = name
        pairs.append((ct, ch))
    digraph = Digraph.from_edges(pairs)
    if not is_weakly_connected(digraph):
        raise RuntimeError("window construction produced a disconnected digraph")
    name_to_edge = {name: e for e, name in provenance.items()}
    named_edge_sets = {
        set_name: frozenset(name_to_edge[m] for m in members if m in name_to_edge)
        for set_name, members in raw.named_sets.items()
    }
    return FamilyWindow(
        spec=spec,
        n=n,
        digraph=digraph,
        class_map=dict(raw.class_of),
        edge_provenance=provenance,
        name_to_edge=name_to_edge,
        named_edge_sets=named_edge_sets,
        dropped_edges=tuple(dropped),
    )


# The reference generator of each family whose generator was rewritten.
RAW_BY_FSTRINGS = {
    "zigzag_d1": zigzag_raw_by_fstrings,
    "grid_d2": grid_raw_by_fstrings,
    "ladder": ladder_raw_by_fstrings,
}
