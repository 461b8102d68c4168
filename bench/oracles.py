"""Correctness checks that do not trust the package.

Every check takes plain data (vertex names, an edge list whose index is
the edge id, in-shores, report text) and returns None when the result is
correct, or a one-line reason when it is not. The graph routines here are
the benchmark's own, so a defect in the package's SCC or cut code cannot
also hide in its judge.

The main theorem used (Schrijver, Combinatorial Optimization, ch. 55): in
a weakly connected digraph D an edge set F meets every dicut exactly when
D/F, the digraph with every edge of F contracted, is strongly connected.
So a dijoin F and a family of |F| pairwise edge-disjoint dicuts prove
each other optimal, at any size.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def vertices_of(edges, isolated=()) -> frozenset:
    return frozenset(isolated) | {v for e in edges for v in e}


def _reach(start, adjacency) -> set:
    seen, stack = {start}, [start]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected(vertices, edges) -> bool:
    """Every vertex reaches every other: one forward and one backward sweep."""
    if len(vertices) <= 1:
        return True
    fwd, bwd = {}, {}
    for t, h in edges:
        fwd.setdefault(t, []).append(h)
        bwd.setdefault(h, []).append(t)
    root = min(vertices)
    return len(_reach(root, fwd)) == len(vertices) == len(_reach(root, bwd))


def weakly_connected(vertices, edges) -> bool:
    vertices = frozenset(vertices)
    if len(vertices) <= 1:
        return True
    und = {}
    for t, h in edges:
        if t in vertices and h in vertices:
            und.setdefault(t, []).append(h)
            und.setdefault(h, []).append(t)
    return len(_reach(min(vertices), und)) == len(vertices)


def meets_every_dicut(vertices, edges, f) -> bool:
    """Whether F meets every dicut of the weakly connected digraph: D/F strongly connected."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in f:
        a, b = find(edges[e][0]), find(edges[e][1])
        parent[a] = b
    classes = {find(v) for v in vertices}
    contracted = [(find(t), find(h)) for e, (t, h) in enumerate(edges) if e not in f]
    return strongly_connected(classes, [(a, b) for a, b in contracted if a != b])


def entering(edges, shore) -> frozenset:
    """Edge ids entering the shore; None when some edge leaves it (not a dicut)."""
    into = []
    for e, (t, h) in enumerate(edges):
        if t in shore and h not in shore:
            return None
        if h in shore and t not in shore:
            into.append(e)
    return frozenset(into)


def _nested(y1, y2, n) -> bool:
    return y1 <= y2 or y2 <= y1 or not (y1 & y2) or len(y1 | y2) == n


def check_optimal_pair(vertices, edges, dijoin, shores, nested=True):
    """Lucchesi-Younger equality plus both sides rebuilt and checked."""
    f = frozenset(dijoin)
    if len(f) != len(dijoin) or not all(0 <= e < len(edges) for e in f):
        return "dijoin has repeated or unknown edge ids"
    if len(f) != len(shores):
        return f"min dijoin size {len(f)} != family size {len(shores)}"
    if not meets_every_dicut(vertices, edges, f):
        return "dijoin misses a dicut (D/F is not strongly connected)"
    cuts = []
    for y in shores:
        y = frozenset(y)
        cut = entering(edges, y) if y <= vertices and 0 < len(y) < len(vertices) else None
        if not cut:
            return f"family member {sorted(y)} is not a nonempty dicut"
        if len(cut & f) != 1:
            return f"family member {sorted(y)} meets the dijoin {len(cut & f)} times"
        cuts.append((y, cut))
    for (y1, c1), (y2, c2) in combinations(cuts, 2):
        if c1 & c2:
            return "family members share an edge"
        if nested and not _nested(y1, y2, len(vertices)):
            return f"family members {sorted(y1)} and {sorted(y2)} cross"
    return None


def is_dibond(vertices, edges, shore) -> bool:
    cut = entering(edges, shore) if 0 < len(shore) < len(vertices) else None
    return bool(cut) and weakly_connected(shore, edges) and \
        weakly_connected(vertices - shore, edges)


def check_selection(vertices, edges, named, selection):
    """A nested selection: one dibond per named edge, meeting the set there only,
    pairwise edge-disjoint and nested."""
    if set(selection) != set(named):
        return "selection keys differ from the named set"
    cuts = []
    for e, shore in sorted(selection.items()):
        shore = frozenset(shore)
        if not is_dibond(vertices, edges, shore):
            return f"selected member for edge {e} is not a dibond"
        cut = entering(edges, shore)
        if cut & named != {e}:
            return f"selected member for edge {e} meets the named set in {sorted(cut & named)}"
        cuts.append((shore, cut))
    for (y1, c1), (y2, c2) in combinations(cuts, 2):
        if c1 & c2 or not _nested(y1, y2, len(vertices)):
            return "selected members overlap or cross"
    return None


# ------------------------------------------------------------ report text

def edge_labels(edges) -> dict:
    """The CLI's edge labels: `t->h`, or `t->h#k` for the k-th of parallel twins."""
    twins = {}
    for e, pair in enumerate(edges):
        twins.setdefault(pair, []).append(e)
    labels = {}
    for (t, h), ids in twins.items():
        for k, e in enumerate(ids):
            labels[f"{t}->{h}" if len(ids) == 1 else f"{t}->{h}#{k}"] = e
    return labels


def parse_set(text: str) -> list:
    """`{a, b}` -> ['a', 'b']; names never contain ', '."""
    inner = text.strip()[1:-1]
    return inner.split(", ") if inner else []


def report_fields(text: str) -> list:
    return [tuple(line.split(": ", 1)) for line in text.splitlines() if ": " in line]


def _first(fields, key):
    return next((v for k, v in fields if k == key), None)


def _member(value):
    shore, edges = value.split(" edges=")
    return parse_set(shore[len("in_shore="):]), parse_set(edges)


def check_pair_report(text, edges, isolated=(), nested=True):
    """A `solve`, `uncross` or `blocks` report: parse the pair and check it."""
    fields = report_fields(text)
    labels = edge_labels(edges)
    vertices = vertices_of(edges, isolated)
    dijoin_text = _first(fields, "dijoin")
    if dijoin_text is None:
        return "report has no dijoin"
    try:
        dijoin = [labels[x] for x in parse_set(dijoin_text)]
        members = [_member(v) for k, v in fields if k == "family_member"]
        for shore, member_edges in members:
            if frozenset(labels[x] for x in member_edges) != entering(edges, frozenset(shore)):
                return f"member edges of {shore} do not match its in-shore"
    except KeyError as exc:
        return f"report names unknown edge {exc}"
    for key in ("min_dijoin_size", "max_packing_size"):
        value = _first(fields, key)
        if value is not None and int(value) != len(dijoin):
            return f"{key} {value} != dijoin size {len(dijoin)}"
    if nested and _first(fields, "nested") not in (None, "true"):
        return "report claims a non-nested family"
    return check_optimal_pair(vertices, edges, dijoin, [frozenset(s) for s, _ in members],
                              nested=nested)


def check_class_pair_report(text, edges, class_shores):
    """A `solve --class-file` report: optimal for the class, not for all dicuts.

    The dijoin must meet every class member, and each family member must
    contain a class member, so the family bounds every class dijoin from
    below and equal sizes prove both sides optimal for the class.
    """
    fields = report_fields(text)
    labels = edge_labels(edges)
    members = [entering(edges, frozenset(s)) for s in class_shores]
    try:
        dijoin = frozenset(labels[x] for x in parse_set(_first(fields, "dijoin") or "{}"))
        family = [frozenset(s) for s, _ in
                  (_member(v) for k, v in fields if k == "family_member")]
    except KeyError as exc:
        return f"report names unknown edge {exc}"
    if not all(m & dijoin for m in members):
        return "dijoin misses a class member"
    cuts = [entering(edges, y) for y in family]
    if not all(cuts) or not all(any(m <= c for m in members) for c in cuts):
        return "a family member is not a dicut containing a class member"
    if len(cuts) != len(dijoin) or any(len(c & dijoin) != 1 for c in cuts):
        return "family and dijoin sizes differ or a member meets the dijoin twice"
    if any(a & b for a, b in combinations(cuts, 2)):
        return "family members share an edge"
    n = len(vertices_of(edges))
    if _first(fields, "nested") == "true" and \
            not all(_nested(a, b, n) for a, b in combinations(family, 2)):
        return "report claims a nested family but members cross"
    return None


def brute_force_cuts(edges, dibonds: bool) -> set:
    """Every dicut (or dibond) in-shore, by trying all vertex subsets."""
    vertices = sorted(vertices_of(edges))
    found = set()
    for r in range(1, len(vertices)):
        for shore in combinations(vertices, r):
            shore = frozenset(shore)
            cut = entering(edges, shore)
            if cut and (not dibonds or is_dibond(frozenset(vertices), edges, shore)):
                found.add(shore)
    return found


def check_enumerate_report(text, edges, kind):
    fields = report_fields(text)
    labels = {e: label for label, e in edge_labels(edges).items()}
    members = [_member(v) for k, v in fields if k == "member"]
    want = brute_force_cuts(edges, kind == "dibonds")
    got = [frozenset(shore) for shore, _ in members]
    if _first(fields, "count") != str(len(got)) or len(set(got)) != len(got) or set(got) != want:
        return f"{kind} differ from brute force ({len(got)} listed, {len(want)} exist)"
    for shore, member_edges in members:
        if set(member_edges) != {labels[e] for e in entering(edges, frozenset(shore))}:
            return f"member edges of {shore} do not match its in-shore"
    return None


def check_blocks_report(text, edges, cutvertices):
    fields = report_fields(text)
    blocks = sum(1 for k, _ in fields if k == "block")
    if _first(fields, "blocks") != str(blocks) or blocks != len(cutvertices) + 1:
        return f"{blocks} blocks listed for a chain of {len(cutvertices) + 1}"
    if frozenset(parse_set(_first(fields, "cutvertices") or "{}")) != cutvertices:
        return "cutvertices differ from the glue vertices"
    return check_pair_report(text, edges)


def _konig(fields, hyperedges):
    """The matching and cover of a hypergraph report, checked against the hyperedges."""
    if _first(fields, "fin_check") != "true" or _first(fields, "konig") != "present":
        return "report lacks a passing fin_check and a Koenig pair", None
    matching = [frozenset(parse_set(v)) for k, v in fields if k == "matching_member"]
    cover = frozenset(parse_set(_first(fields, "cover")))
    if _first(fields, "matching_size") != str(len(matching)) or len(cover) != len(matching):
        return "matching and cover sizes differ", None
    if any(a & b for a, b in combinations(matching, 2)):
        return "matching members overlap", None
    if any(len(m & cover) != 1 for m in matching):
        return "cover does not pick one vertex per matching member", None
    if hyperedges is not None:
        if not all(m in hyperedges for m in matching):
            return "a matching member is not a hyperedge", None
        if not all(h & cover for h in hyperedges):
            return "cover misses a hyperedge", None
    return None, (matching, cover)


def check_hypergraph_report(text, hyperedges):
    fields = report_fields(text)
    if _first(fields, "hyperedges") != str(len(hyperedges)):
        return "hyperedge count differs from the input"
    return _konig(fields, hyperedges)[0]


def check_menger_report(text, graph_edges, sides):
    """Menger mode: disjoint A-B paths and a separator of the same size."""
    fields = report_fields(text)
    a_side, b_side = (frozenset(part.split(",")) for part in sides.split(";"))
    reason, found = _konig(fields, None)
    if reason:
        return reason
    matching, cover = found
    for path in matching:
        if len(path & a_side) != 1 or len(path & b_side) != 1 or \
                not weakly_connected(path, graph_edges):
            return f"matching member {sorted(path)} is not an A-B path"
    und = {}
    for a, b in graph_edges:
        if a not in cover and b not in cover:
            und.setdefault(a, []).append(b)
            und.setdefault(b, []).append(a)
    for a in a_side - cover:
        if _reach(a, und) & b_side:
            return "cover does not separate A from B"
    return None
