"""Exact minimum dijoins, maximum disjoint dicut packings, and nested optimal pairs.

A dibond class fixes which dicuts must be met: a dijoin for the class is an
edge set meeting every member. On the full dibond class of a finite weakly
connected digraph the minimum dijoin size equals the maximum number of
pairwise disjoint dicuts (the Lucchesi-Younger equality), and an optimal
pair can always be uncrossed into a nested one. Both solvers here are exact
branch and bound searches intended for desk-scale instances, and every
produced pair is re-checked by an independent verifier rather than trusted
by construction.

The full class is implicit: DibondClass.full lists its members only when
they are first read. optimal_pair, nested_optimal_pair,
verify_optimal_pair and uncross never list it, and is_dijoin lists it
only to name the member that a failing set misses. F meets every dibond
of a weakly connected D exactly when D/F is strongly connected
(Schrijver, Combinatorial Optimization, ch. 55).

A rooted D, one with exactly one source strong component, is solved as
an optimum branching (Edmonds, "Optimum branchings", 1967), whose dual
is a packing of rooted cuts (Fulkerson, "Packing rooted directed cuts in
a weighted directed graph", Math. Programming 1974; Schrijver chs. 52
and 55). A vertex r of that component reaches every vertex of D, so F
is a dijoin exactly when r reaches every vertex in the reversed D plus
F. _rooted_optimum runs a dual ascent on Z, which holds the reversed
edges of D and the tight edges of D, none at first. Each round takes
the strong components of Z and raises every source component S but r's,
making tight every edge of D that enters S; a round that raises nothing
ends the ascent. Z only grows, so the raised sets are laminar. Nothing
enters S in Z, so no edge of D leaves S: S is the in-shore of a dicut
of D. A raise needs every edge entering S to be not yet tight, so the
raised dicuts are pairwise edge-disjoint, and each tight edge enters
exactly one raised set. Each raised dicut is a dibond: S is strongly
connected in Z, and every vertex outside S reaches r in the reversed D
by a path that never enters S, so both shores are connected. The
expansion is Edmonds': a search from r in the final Z, with each
largest raised set contracted and entered once, recursing into each set
from the vertex it was entered at. An edge of Z entering a raised set
is a tight edge of D that enters no raised set inside it, so F, the
edges the search enters the raised sets by, meets each raised dicut
exactly once, and |F| is their number. By weak duality both are
optimal, and the family is nested by construction: nothing is listed
and nothing is uncrossed. A D with more source components but exactly
one sink component is solved on its reversal, whose dicuts are D's with
the shores swapped. _rooting tells the cases apart from D's strong
components, which the first round of the ascent, or of the cutting
planes below, reuses, so the choice costs no extra pass.

Every other D is solved by plain cutting planes (Kelley's loop). Each
round condenses D plus the reversed edges of F, and each sink and each
source component bounds a dicut that F misses. That dicut joins the
constraints whole, kept in class order, with its edges read off the
component tables of the dibond walks (enumeration._walk_tables,
_missed_dicuts). The hitting set search then re-solves the constraints
cold. Every constraint is a dicut, so every optimum is a lower bound;
the loop ends when D/F is strongly connected, and that F is a minimum
dijoin.

A re-solve that returns the last optimum size has stalled: the lower
bound did not rise. The round after a stall separates with every strong
component instead. No edge of D plus the reversed F leaves a
component's descendant closure or enters its ancestor closure, so F
misses the dicut of the first and of the complement of the second
(_missed_dicuts). On a zigzag window, sink and source rounds add two
constraints each while |F| = n stays put, so they alone would take
n/2 + 1 master calls; the stall rule takes 3. Closures in every round
would add many constraints at once, and that stalls the branch and bound
on random DAGs it otherwise solves in milliseconds.

The certificate is |F| disjoint dicuts each met once by F. By
complementary slackness such a family has, for each edge e of F, a
member meeting F only in e, so _tight_picks fills one slot per edge of
F with the constraints that meet F only there, or else with the listed
class's members; if both fail, DualityGapDetected is raised. A
constraint met once by F is a dibond: a dicut is a disjoint union of
dibonds, and F meets each of them. So the family holds dibonds although
the loop separates whole dicuts. A crossing family is uncrossed with
the D/F test as its dijoin check. Whether a family is cross-free is one
near-linear test (_pairwise_nested): with every shore that holds a
fixed vertex complemented, the family is cross-free exactly when it is
laminar.

A dijoin F has a nested selection, one dibond through each of its edges
meeting F only there, all disjoint and nested, exactly when |F| is the
minimum dijoin size τ (Lucchesi and Younger 1978). _dijoin_selection
decides that for the window checks by τ alone: it compares |F| with
nested_optimal_pair's dijoin and, when they agree, keys that pair's
members by the edge of F each holds. Each member is then met exactly
once by the dijoin F, so it is a dibond.

Both searches work on int masks, and every tie-break and branch order is
that of the lowest bit position. On the class path the masks are the
members' edge masks as the dibond walk made them, bit e for edge e, with
no conversion. The public set functions, exact_min_hitting_set and
exact_max_set_packing, map their elements once to bits in _rows, bit i
for the i-th smallest element, and call the same searches. Either map is
monotone in the element order, so both give the picks that sorted
elements would. Both searches keep their path on an explicit stack, so
no input size reaches the recursion limit.

The hitting set search runs on the transposed table of its masks,
_columns: entry p is an int with bit i set when set i holds element p.
A node's unhit sets are one int, so each branch is one AND with a
column's complement, and the greedy cover and the disjoint-packing
bound count and clear whole columns. The search branches over the
elements of the first unhit set: the sets come sorted by size, then
elements (the class order on the class path), so the lowest unhit bit
is a smallest set.

Every largest disjoint family (set packings, dicut packings, nested
families) comes from one search. Each level picks the next member from a
candidate list in ascending index order, and the level below keeps only
the later candidates compatible with it. A level is pruned when the
family so far plus a greedy cover of its candidates cannot beat the
incumbent: each member of a disjoint family contains a different cover
element. The cover is the hitting set's greedy cover, on a column table
built once per search, at its first bound. It is computed only when the
incumbent is larger than the family so far (on a first dive they are
equal, and the bound cannot prune) and the family plus all its
candidates would beat it. The candidate loop stops once the family plus
the candidates left cannot beat the incumbent, before the next level's
candidates are built. Each check drops only branches that the cover
bound would drop, so the answer and its tie-breaks are those of the
plain search. The search also stops once the family reaches a given
size. The dicut family searches pass the minimum dijoin size, which
weak duality makes an upper bound: a dijoin meets each member of a
disjoint family in a different edge. exact_max_set_packing passes none,
so that hypergraph checks can compare it with the hitting set.

Every pick of one item per member (Koenig covers, nested selections,
compactness choices) comes from one search, _picks. It fills the members
in order, each from its items in order, keeps an item only while a test
passed by the caller accepts it, and yields the picks in lexicographic
order. _meets_all is the test for picks that must meet every target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Optional

from .core import (
    Digraph,
    Dicut,
    _cut_masks,
    _edge_mask,
    _neighbours,
    _reach_within,
    _require_edge_ids,
    bit_positions,
    decompose_dicut,
    is_weakly_connected,
    join,
    meet,
    nested,
)
from .enumeration import (
    DEFAULT_CAP,
    _closures,
    _own_components,
    _walk_tables,
    enumerate_dibonds,
)
from .errors import (
    CapExceeded,
    DualityGapDetected,
    NotCornerClosed,
    PreconditionViolated,
    VerificationFailed,
)


def _set_key(s) -> tuple:
    """The canonical set order: size, then sorted elements."""
    return (len(s), tuple(sorted(s)))


def _member_key(d: Dicut) -> tuple:
    """The class order: the canonical order of the edge sets, read off the edge mask.

    Of two edge sets of one size, the one holding the least edge where
    they differ comes first in sorted-tuple order. The mask's binary
    digits written lowest bit first, padded to m digits, form a number
    whose leading digit is edge 0, so that set has the larger number,
    and the key negates it. Distinct nonempty dicuts of a weakly
    connected digraph have distinct edge sets (see
    core.dicut_from_edge_set), so the key never ties between class
    members or between the members of a disjoint family.
    """
    mask = d.edge_mask
    return (mask.bit_count(), -int(bin(mask)[:1:-1].ljust(d.digraph.m, "0"), 2))


def _sorted_dibonds(digraph: Digraph, cap: int) -> list:
    """Every dibond of the digraph in class order: the full class's members."""
    return sorted(enumerate_dibonds(digraph, cap), key=_member_key)


def _class_members(digraph: Digraph, members: Iterable[Dicut]) -> list:
    """The members, checked to be dibonds of the digraph (ValueError
    otherwise), without repeated in-shores, in class order."""
    seen = set()
    unique = []
    for member in members:
        if member.digraph != digraph:
            raise ValueError("class member belongs to a different digraph")
        if not member.is_dibond:
            raise ValueError(f"class member {member!r} is not a dibond")
        if member.shore_mask not in seen:
            seen.add(member.shore_mask)
            unique.append(member)
    unique.sort(key=_member_key)
    return unique


@dataclass(frozen=True, eq=False, init=False)
class DibondClass:
    """A finite set of dibonds of one digraph, with its corner-closure status.

    The constructor refuses a member of another digraph or one that is no
    dibond (ValueError), drops members whose in-shore repeats an earlier
    one, puts the rest in class order (_member_key) and decides
    corner_closed itself, so no caller can set it. corner_closed means: for
    every pair of members, the decompositions of their meet and join (when
    nonempty) consist of members again. On such a class the minimum dijoin
    size equals the maximum number of disjoint members, by the
    crossing-family form of Lucchesi-Younger (Edmonds and Giles 1977), so
    the solvers treat a gap there as a defect. A class is immutable.

    DibondClass.full is implicit: it lists its members on their first
    read. optimal_pair, nested_optimal_pair, verify_optimal_pair and
    uncross never read them, and is_dijoin reads them only for a set that
    fails. So optimal_pair and min_dijoin may name different minimum
    dijoins of one size.
    """

    digraph: Digraph
    corner_closed: bool
    implicit: bool  # DibondClass.full's class, solved without listing it

    def __init__(self, digraph: Digraph, members: Iterable[Dicut]):
        unique = _class_members(digraph, members)
        # Frozen: the fields are written past the dataclass's __setattr__.
        vars(self).update(
            digraph=digraph,
            members=tuple(unique),
            corner_closed=_is_corner_closed(unique),
            implicit=False,
        )

    @classmethod
    def _known(cls, digraph: Digraph, members: tuple, corner_closed: bool) -> "DibondClass":
        """A class whose builder already knows its members are distinct
        dibonds of the digraph in class order, and its closure status."""
        klass = cls.__new__(cls)
        vars(klass).update(
            digraph=digraph, members=members, corner_closed=corner_closed, implicit=False
        )
        return klass

    @staticmethod
    def full(digraph: Digraph, cap: int = DEFAULT_CAP) -> "DibondClass":
        """The class of all dibonds; corner-closed by construction.

        Refuses a digraph that is not weakly connected, as enumeration
        does. The members are listed on their first read, and the cap
        bounds that listing.
        """
        if not is_weakly_connected(digraph):
            raise PreconditionViolated("dibonds need a weakly connected digraph")
        klass = DibondClass.__new__(DibondClass)
        vars(klass).update(digraph=digraph, corner_closed=True, implicit=True, _cap=cap)
        return klass

    @staticmethod
    def from_members(digraph: Digraph, members: Iterable[Dicut]) -> "DibondClass":
        """The class of the given dibonds: the same as DibondClass(digraph, members)."""
        return DibondClass(digraph, members)

    @cached_property
    def members(self) -> tuple:
        """The distinct dibonds in class order (_member_key). Only the
        implicit class gets here: the others are built with their members."""
        return tuple(_sorted_dibonds(self.digraph, self._cap))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class OptimalPair:
    """A dijoin F and a disjoint dicut family of equal size.

    The family is kept in class order (_member_key), whatever order it is
    given in. nested records whether the family is pairwise nested.
    """

    dijoin: frozenset
    family: tuple
    nested: bool

    def __post_init__(self):
        object.__setattr__(self, "family", tuple(sorted(self.family, key=_member_key)))


def _corner_parts(a: Dicut, b: Dicut):
    """The dibonds of the nonempty meet and join of two dibonds, meet first."""
    for corner in (meet(a, b), join(a, b)):
        if not corner.is_empty:
            yield from decompose_dicut(corner)


def _is_corner_closed(members: list) -> bool:
    member_shores = {m.shore_mask for m in members}
    return all(
        part.shore_mask in member_shores
        for a, b in combinations(members, 2)
        for part in _corner_parts(a, b)
    )


def _class_for(digraph: Digraph, klass: Optional[DibondClass]) -> DibondClass:
    """The class, DibondClass.full(digraph) when none is given, refused
    when it belongs to another digraph."""
    if klass is None:
        return DibondClass.full(digraph)
    if klass.digraph != digraph:
        raise PreconditionViolated("class belongs to a different digraph")
    return klass


def is_dijoin(digraph: Digraph, edge_set: Iterable[int], klass: DibondClass) -> tuple:
    """(True, None) if the edge set meets every class member, else (False, first missed member).

    The implicit full class is decided by D/F strong connectivity
    (_meets_every_dibond); only a set that fails lists the class, to
    return the first missed member in class order. A set that fails the
    D/F test but misses no member contradicts the theorem and raises an
    internal error. families.check_finitary_dijoin is this test on a
    window's full class.
    """
    if klass.digraph != digraph:
        raise PreconditionViolated("class belongs to a different digraph")
    f = frozenset(edge_set)
    _require_edge_ids(digraph, f, "edge set contains unknown edge ids")
    if klass.implicit and _meets_every_dibond(digraph, f):
        return (True, None)
    mask = _edge_mask(digraph, f)
    for member in klass.members:
        if not member.edge_mask & mask:
            return (False, member)
    if klass.implicit:
        raise RuntimeError("internal error: D/F is not strongly connected but no dibond is missed")
    return (True, None)


def _meets_class(digraph: Digraph, f: frozenset, klass: DibondClass) -> bool:
    """is_dijoin's verdict without its missed member, for a class of the
    digraph. The implicit full class is decided by D/F strong
    connectivity (_meets_every_dibond), so it is never listed."""
    if klass.implicit:
        return _meets_every_dibond(digraph, f)
    return is_dijoin(digraph, f, klass)[0]


def _meets_every_dibond(digraph: Digraph, f: frozenset) -> bool:
    """Whether the edge set meets every dibond of the digraph, without enumerating.

    On a weakly connected digraph D, F meets every dicut exactly when D/F
    is strongly connected (Schrijver, Combinatorial Optimization, ch. 55),
    and every dicut is a disjoint union of dibonds. D/F is strongly
    connected exactly when D plus the reverse of each edge of F is, so F
    passes when one vertex reaches, and is reached from, every vertex of
    D plus reversed F. A strongly connected D plus reversed F makes D
    weakly connected, so only a negative answer checks D, refusing one
    that is not weakly connected, as enumeration does.
    """
    succ, pred = _arc_masks(digraph, f)
    full = (1 << digraph.n) - 1
    strong = all(_reach_within(step, full, full & 1, full) == full for step in (succ, pred))
    if not strong and not is_weakly_connected(digraph):
        raise PreconditionViolated("dibonds need a weakly connected digraph")
    _require_edge_ids(digraph, f, "edge set contains unknown edge ids")
    return strong


def _arc_masks(digraph: Digraph, f) -> tuple:
    """Per vertex bit, the successor and the predecessor vertex masks of
    D plus the reverse of each edge of F, whose ids `f` holds."""
    bit = digraph.vertex_bit
    succ = [0] * digraph.n
    pred = [0] * digraph.n
    for e, (t, h) in enumerate(digraph.edges):
        i, j = bit[t], bit[h]
        succ[i] |= 1 << j
        pred[j] |= 1 << i
        if e in f:
            succ[j] |= 1 << i
            pred[i] |= 1 << j
    return succ, pred


def _rows(sets: list) -> tuple:
    """Each set as an int mask, bit i standing for the i-th smallest
    element; and the elements."""
    elements = sorted(set().union(*sets))
    index = {e: i for i, e in enumerate(elements)}
    return [sum(1 << index[e] for e in s) for s in sets], elements


def _columns(masks: list) -> list:
    """The transposed table of the masks: entry p has bit i set when masks[i] has bit p.

    The masks are written, last first, as rows of binary digits of one
    width in one string, so the digits of bit p form the strided slice
    from index width - 1 - p; no Python loop runs over single bits. A
    loop over the set bits wins only on the smallest tables: it took
    about 2.5 times as long on a hypergraph's dense table, and 5 times as
    long on the largest cutting-plane table of the solve corpus.
    """
    width = max(masks, default=0).bit_length()
    row = f"0{width}b"
    table = "".join([format(m, row) for m in reversed(masks)])
    return [int(table[start::width], 2) for start in range(width - 1, -1, -1)]


def _greedy_cover(cols: list, live: int) -> int:
    """A greedy cover, as a mask of positions, of the nonempty masks whose
    bits are set in `live`, given by their _columns table.

    Each pick is the lowest position among those in the most uncovered
    masks; a position stops being counted once it is in none of them.
    """
    cover = 0
    positions = range(len(cols))
    while live:
        counts = [(cols[p] & live).bit_count() for p in positions]
        pick = positions[counts.index(max(counts))]
        cover |= 1 << pick
        live &= ~cols[pick]
        positions = [p for p, count in zip(positions, counts) if count]
    return cover


def _min_hitting_mask(masks: list) -> int:
    """A least mask meeting every given mask, by exact branch and bound.

    The masks must be distinct and in canonical set order. A class's member
    masks always are: DibondClass keeps its members distinct and in class
    order, the canonical order of their edge sets; so does the
    cutting-plane loop with its constraints. The search runs
    on their _columns table: a node holds its chosen mask, its size and
    `live`, bit i set while mask i is unhit, and the branch on position p
    keeps live & ~cols[p]. It branches over the bits of the first unhit
    mask, lowest first. The lower bound is a greedy disjoint sub-packing
    of the unhit masks: each pick, the lowest live mask, clears its
    conflict row, the OR of its columns, cached on first use. The first
    incumbent is a greedy cover of the masks.
    """
    if not all(masks):
        raise ValueError("cannot hit an empty set")
    cols = _columns(masks)
    conflicts = [0] * len(masks)
    everything = (1 << len(masks)) - 1
    best = _greedy_cover(cols, everything)
    stack: list = [(0, 0, everything)]
    while stack:
        chosen, size, live = stack.pop()
        if not live:
            if size < best.bit_count():
                best = chosen
            continue
        # The greedy packing stops counting once it is large enough to prune.
        need = best.bit_count() - size
        rest, packed = live, 0
        while rest and packed < need:
            i = (rest & -rest).bit_length() - 1
            row = conflicts[i]
            if not row:
                row = conflicts[i] = reduce(or_, [cols[p] for p in bit_positions(masks[i])])
            rest &= ~row
            packed += 1
        if packed >= need:
            continue
        # Pushed in reverse, so the lowest element's branch is searched first.
        first = masks[(live & -live).bit_length() - 1]
        stack.extend(
            (chosen | 1 << p, size + 1, live & ~cols[p]) for p in reversed(bit_positions(first))
        )
    return best


def exact_min_hitting_set(sets: Iterable[frozenset]) -> frozenset:
    """A minimum set of elements meeting every given set, by exact branch and bound.

    Branches over the elements of a smallest currently unhit set; the lower
    bound is a greedy disjoint sub-packing of the unhit sets. Deterministic
    under ascending element order. Elements must be mutually sortable.
    """
    masks, elements = _rows(sorted(set(sets), key=_set_key))
    return frozenset(elements[p] for p in bit_positions(_min_hitting_mask(masks)))


def _cover_bound(cols: list, masks: list, cands: list) -> int:
    """An upper bound on the members a disjoint family can take from the
    candidate indices: a greedy cover of the nonempty ones, plus each
    empty one once."""
    live = sum(1 << j for j in cands if masks[j])
    return _greedy_cover(cols, live).bit_count() + len(cands) - live.bit_count()


def _largest_disjoint(masks: list, stop: Optional[int] = None, also=None) -> list:
    """Indices of the lexicographically first largest pairwise-disjoint subfamily of the masks.

    Pairs of indices must also pass also(i, j), when given. The search ends
    early once the family reaches `stop` members; see the module docstring.
    """
    cols: list = []

    def cover_bound(cands: list) -> int:
        if not cols:
            cols.extend(_columns(masks))
        return _cover_bound(cols, masks, cands)

    best: list = []
    chosen: list = []
    # (candidates, next position) of each level above the current one; the
    # current level's position is 0 exactly when the level was just entered.
    levels: list = []
    cands, pos = list(range(len(masks))), 0
    while True:
        if pos == 0:
            if len(chosen) > len(best):
                best = list(chosen)
            if len(best) == stop:
                return best
            if (
                len(best) > len(chosen)
                and len(chosen) + len(cands) > len(best)
                and len(chosen) + cover_bound(cands) <= len(best)
            ):
                pos = len(cands)
        if pos < len(cands) and len(chosen) + len(cands) - pos > len(best):
            i = cands[pos]
            levels.append((cands, pos + 1))
            chosen.append(i)
            mi = masks[i]
            cands = [j for j in cands[pos + 1:] if not mi & masks[j]]
            if also is not None:
                cands = [j for j in cands if also(i, j)]
            pos = 0
            continue
        if not levels:
            return best
        cands, pos = levels.pop()
        chosen.pop()


def exact_max_set_packing(sets: list) -> list:
    """Indices of a maximum pairwise-disjoint subfamily, by exact branch and bound.

    The input order is respected: the result is the lexicographically first
    maximum subfamily as an ascending index list, so it is deterministic for
    a fixed input order. The search is exhaustive, with no size to stop at.
    """
    return _largest_disjoint(_rows(sets)[0])


def _picks(slots: list, fits) -> Iterator[list]:
    """Each pick of one item per slot that `fits` keeps, in lexicographic order.

    Slots are filled in order, each from its items in order. An item joins
    the pick only when fits(picked, item) holds, picked being the items
    already chosen for the earlier slots. Each pick is yielded as a new
    list; with no slots, the one empty pick is yielded and fits is never
    called.
    """
    if not slots:
        yield []
        return
    picked: list = []
    untried = [iter(slots[0])]
    while untried:
        for item in untried[-1]:
            if fits(picked, item):
                break
        else:
            untried.pop()
            if picked:
                picked.pop()
            continue
        picked.append(item)
        if len(picked) == len(slots):
            yield list(picked)
            picked.pop()
        else:
            untried.append(iter(slots[len(picked)]))


def _meets_all(slots: list, targets: Iterable[frozenset]):
    """A fits test for _picks that keeps the picks meeting every target.

    Each target is checked at the last slot holding one of its elements,
    since no later pick can meet it. A target that meets no slot fails
    every pick.
    """
    due: list = [[] for _ in slots]
    for target in targets:
        meeting = [i for i, slot in enumerate(slots) if not target.isdisjoint(slot)]
        if not meeting:
            return lambda picked, item: False
        due[meeting[-1]].append(target)

    def fits(picked: list, item) -> bool:
        return all(item in t or not t.isdisjoint(picked) for t in due[len(picked)])

    return fits


def min_dijoin(digraph: Digraph, klass: DibondClass) -> frozenset:
    """A minimum edge set meeting every class member.

    Exact hitting set over the member edge masks, which the class holds
    distinct and in class order, as the search needs; deterministic under
    ascending edge id tie-breaking. The empty class has the empty dijoin.
    The full class is listed for it, so on that class optimal_pair, which
    does not list it, may name a different minimum dijoin of this size.
    """
    if klass.digraph != digraph:
        raise PreconditionViolated("class belongs to a different digraph")
    return frozenset(bit_positions(_min_hitting_mask([m.edge_mask for m in klass.members])))


def _disjoint_members(klass: DibondClass, stop: Optional[int] = None, also=None) -> list:
    """The class members _largest_disjoint picks; `also` tests two members."""
    members = klass.members
    test = None if also is None else (lambda i, j: also(members[i], members[j]))
    # The picks ascend, so the members come in class order.
    return [members[i] for i in _largest_disjoint([m.edge_mask for m in members], stop, test)]


def max_disjoint_dicuts(digraph: Digraph, klass: DibondClass) -> list:
    """A maximum family of pairwise edge-disjoint class members.

    Exact set packing over the members in canonical order; deterministic.
    The search stops at the minimum dijoin size, which no disjoint family
    can exceed.
    """
    return _disjoint_members(klass, len(min_dijoin(digraph, klass)))


def _missed_dicuts(digraph: Digraph, tables: Optional[tuple], closures: bool = False) -> list:
    """Each dicut of D that F misses and this round separates, given the
    enumeration._walk_tables of D plus the reversed F; none when that is
    strongly connected (the tables are None).

    A vertex set other than the empty set and V that no edge of D plus
    the reversed F leaves is the in-shore of a dicut of D that F misses:
    every edge of D between it and the rest enters it, and an edge of F
    entering it would, reversed, leave it. A sink component is such a
    set, and so is the complement of a source component; these are the
    shores of a round without `closures`. With `closures` the shores are
    each component's descendant closure and the complement of each
    ancestor closure, since no edge leaves the first or enters the
    second. They include the sink and source shores, and along a chain of
    components they separate at once the dicuts that sink and source
    rounds reach one link at a time.

    The closures come from enumeration._closures in the tables'
    completion order. A shore with tail mask T and head mask H is entered
    by the edges H & ~T, so the complement of a set with masks T and H is
    entered by T & ~H, and no shore's edges are read off its vertices.
    """
    if tables is None:
        return []
    succ, pred, verts, tails, heads, completed = tables
    if closures:
        masks = (verts, tails, heads)
        below = _closures(succ, masks, completed)
        above = _closures(pred, masks, reversed(completed))
    else:
        below = [row for row in zip(succ, verts, tails, heads) if not row[0]]
        above = [row for row in zip(pred, verts, tails, heads) if not row[0]]
    full = (1 << digraph.n) - 1
    # shore -> entering edges; a shore can come twice, with one edge mask.
    cuts = {k: h & ~t for _, k, t, h in below}
    cuts.update((full ^ k, t & ~h) for _, k, t, h in above)
    return [Dicut._known(digraph, y, entering) for y, entering in cuts.items() if 0 < y < full]


def _cutting_planes(digraph: Digraph, tables: Optional[tuple]) -> tuple:
    """The edge mask of a minimum dijoin F of the full class, and the
    dicuts found on the way to it, its constraints, in class order: the
    loop of the module docstring. `tables` are D's
    enumeration._walk_tables, which serve the first round, with F empty;
    each later round builds those of D plus the reversed F from a copy of
    D's own successor bits, which enumeration._own_components keeps on D
    and shares, so they are never changed.

    `stalled` records whether the last re-solve returned the previous
    optimum size. Only the round after such a re-solve separates with
    every component's closures (_missed_dicuts). Each of their dicuts is
    one that F misses, so every constraint added is violated by the last
    F, the constraints stay distinct, and the loop still ends only when
    D/F is strongly connected. Each constraint's class-order key is
    computed once, when it is added, and kept beside it; distinct
    dicuts have distinct keys, so the pool sorts on the keys alone.
    """
    base = _own_components(digraph)[0]
    bit = digraph.vertex_bit
    ends = [(bit[t], bit[h]) for t, h in digraph.edges]
    pool: list = []  # (_member_key(constraint), constraint)
    f = 0
    stalled = False
    while True:
        missed = _missed_dicuts(digraph, tables, stalled)
        if not missed:
            return f, [c for _, c in pool]
        pool += [(_member_key(cut), cut) for cut in missed]
        pool.sort()
        size = f.bit_count()
        f = _min_hitting_mask([c.edge_mask for _, c in pool])
        stalled = f.bit_count() == size
        out = [list(nexts) for nexts in base]
        for e in bit_positions(f):
            t, h = ends[e]
            out[h].append(t)
        tables = _walk_tables(digraph, out)


def _tight_picks(candidates: list, f: int, also=None) -> Optional[dict]:
    """{edge id: candidate}, pairwise disjoint candidates each meeting F
    only in its edge, or None: a _picks search with one slot per edge of
    F, smallest slot first, ties in edge order. `also` tests two picks."""
    slots: dict = {1 << e: [] for e in bit_positions(f)}
    for c in candidates:
        slot = slots.get(c.edge_mask & f)
        if slot is not None:
            slot.append(c)
    order = sorted(slots, key=lambda bit: len(slots[bit]))

    def fits(picked: list, item: Dicut) -> bool:
        return not any(item.edge_mask & p.edge_mask for p in picked) and (
            also is None or all(also(p, item) for p in picked)
        )

    pick = next(_picks([slots[bit] for bit in order], fits), None)
    return None if pick is None else {bit.bit_length() - 1: c for bit, c in zip(order, pick)}


def _rooting(tables: Optional[tuple]) -> Optional[tuple]:
    """(root, flip) when D, whose enumeration._walk_tables these are, is
    rooted, else None: the vertex bit of one vertex of D's only source
    component, and flip False; or, when D has more sources but only one
    sink component, a vertex bit of that, and flip True. A D with at most
    one strong component (no tables) is rooted anywhere."""
    if tables is None:
        return 0, False
    succ, pred, verts = tables[:3]
    for flip, links in ((False, pred), (True, succ)):
        if links.count(0) == 1:
            root = verts[links.index(0)]
            return root & -root, flip
    return None


def _rooted_optimum(digraph: Digraph, tables: Optional[tuple], root: int, flip: bool) -> tuple:
    """(dijoin, family) of the full class of a rooted D, given its
    enumeration._walk_tables and _rooting's answer: the ascent and the
    expansion of the module docstring.

    With flip, the ascent runs on the reversed D, whose dicuts are D's
    with their shores swapped, so each raised shore is complemented.
    `ends` holds each edge as (a, b) in the orientation the ascent runs
    on; Z's successor lists start with each b -> a and gain a -> b once
    the edge is tight. The first round reads D's own tables: Z before
    any edge is tight is the reversal of that orientation, with D's
    components, and a component's predecessors in Z are its successors
    in D, or with flip its predecessors.
    """
    if tables is None:
        return frozenset(), []
    bit = digraph.vertex_bit
    ends = [(bit[h], bit[t]) if flip else (bit[t], bit[h]) for t, h in digraph.edges]
    out: list = [[] for _ in range(digraph.n)]
    for a, b in ends:
        out[b].append(a)
    succ, pred, verts, tails, heads, _ = tables
    above = pred if flip else succ  # per component, its predecessors in Z
    shores: list = []
    entering: list = []
    while True:
        if flip:
            tails, heads = heads, tails
        raised = [
            (v, h & ~t) for v, p, t, h in zip(verts, above, tails, heads) if not p and not v & root
        ]
        if not raised:
            break
        for shore, edges in raised:
            shores.append(shore)
            entering.append(edges)
            for e in bit_positions(edges):
                a, b = ends[e]
                out[a].append(b)
        tables = _walk_tables(digraph, out)
        if tables is None:
            break
        _, above, verts, tails, heads, _ = tables

    # The laminar tree, in raise order, which puts every set after the
    # sets inside it: `inner` is the union of a set's children, the
    # largest earlier sets inside it, and `reach` the Z successors of all
    # its vertices; `owner` gives each vertex the least set holding it.
    # The sets that are largest so far are kept by their lowest vertex.
    step_of = [reduce(or_, [1 << w for w in nexts], 0) for nexts in out]
    owner = [-1] * digraph.n
    inner: list = []
    reach: list = []
    tops: dict = {}
    lows = 0
    for i, shore in enumerate(shores):
        kids = [tops.pop(p) for p in bit_positions(shore & lows)]
        lows &= ~shore
        inner.append(reduce(or_, [shores[j] for j in kids], 0))
        own = shore ^ inner[i]
        for p in bit_positions(own):
            owner[p] = i
        reach.append(reduce(or_, [reach[j] for j in kids], _neighbours(step_of, own)))
        low = shore & -shore
        tops[low.bit_length() - 1] = i
        lows |= low
    # A frame is a raised set, or V, with the vertex bit it is entered at
    # and the union of its children: its search steps from each vertex
    # reached, and takes each child whole, by one edge, the first time
    # the child is reached.
    full = (1 << digraph.n) - 1
    f = 0
    frames = [(full, root, reduce(or_, [shores[j] for j in tops.values()], 0))]
    while frames:
        region, seen, inside = frames.pop()
        front, fresh = seen, []
        while front or fresh:
            step = reduce(or_, [reach[j] for j in fresh], _neighbours(step_of, front))
            step &= region & ~seen
            fresh = []
            # Every Z arc into a raised set ends at a vertex of no set
            # inside it, so each vertex reached in a child names the child.
            hit = step & inside
            while hit:
                j = owner[(hit & -hit).bit_length() - 1]
                hit &= ~shores[j]
                fresh.append(j)
                # The lowest edge entering the set from a vertex already reached.
                e = next(e for e in bit_positions(entering[j]) if seen >> ends[e][0] & 1)
                f |= 1 << e
                frames.append((shores[j], 1 << ends[e][1], inner[j]))
            front = step & ~inside
            seen |= step | reduce(or_, [shores[j] for j in fresh], 0)
    family = [
        Dicut._known(digraph, full ^ shore if flip else shore, edges, True)
        for shore, edges in zip(shores, entering)
    ]
    return frozenset(bit_positions(f)), family


def _implicit_optimum(klass: DibondClass) -> tuple:
    """(dijoin, family) of the implicit full class: the branching when D
    is rooted, else the loop, the certificate and the fallback of the
    module docstring. D's strong components, found once per digraph
    (enumeration._own_components), decide which, and serve the first
    round of either."""
    tables = _walk_tables(klass.digraph)
    rooting = _rooting(tables)
    if rooting is not None:
        return _rooted_optimum(klass.digraph, tables, *rooting)
    f, constraints = _cutting_planes(klass.digraph, tables)
    picks = _tight_picks(constraints, f)
    if picks is None:
        picks = _tight_picks(klass.members, f)
    if picks is None:
        # |F| disjoint members would each be met once by the minimum F.
        raise DualityGapDetected(f.bit_count(), len(_disjoint_members(klass, f.bit_count())))
    return frozenset(bit_positions(f)), list(picks.values())


def _pairwise_disjoint(family: Iterable[Dicut]) -> bool:
    seen = 0
    for member in family:
        if member.edge_mask & seen:
            return False
        seen |= member.edge_mask
    return True


def _first_crossing(family: list) -> Optional[tuple]:
    """The first pair (i, j), i < j, of family members that cross, or None."""
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not nested(family[i], family[j]):
                return (i, j)
    return None


def _pairwise_nested(family: list) -> bool:
    """Whether the dicuts, all of one digraph, are pairwise nested, without
    testing every pair.

    In-shores A and B are nested when A <= B, B <= A, A & B is empty or
    A | B = V. Complementing A permutes these four cases (A <= B becomes
    (V - A) | B = V, and so on), so complementing every shore that holds
    a fixed vertex, here bit 0, keeps each pair nested or crossing. No
    two shores then cover V, so the family is cross-free exactly when
    those shores are laminar: any two are disjoint or one holds the
    other. They are placed in order of decreasing size. A set that misses
    the union placed so far is disjoint from every placed set; any other
    must lie inside the last placed set P that it meets. When it does,
    every earlier set Q that it meets also meets P, so Q and P are
    laminar, and as Q is no smaller than P, Q holds P and the set.
    """
    if not family:
        return True
    full = (1 << family[0].digraph.n) - 1
    shores = [full ^ m.shore_mask if m.shore_mask & 1 else m.shore_mask for m in family]
    shores.sort(key=int.bit_count, reverse=True)
    placed: list = []
    union = 0
    for shore in shores:
        if shore & union:
            if shore & ~next(p for p in reversed(placed) if p & shore):
                return False
        union |= shore
        placed.append(shore)
    return True


def verify_optimal_pair(
    digraph: Digraph, klass: Optional[DibondClass], pair: OptimalPair
) -> None:
    """Independently re-check the optimal pair conditions; raise VerificationFailed otherwise.

    Checks, in order: every family member is a nonempty dicut of the
    digraph, its edges exactly those entering its in shore; the members
    are pairwise edge-disjoint; the dijoin meets every class member; the
    dijoin lies inside the family union; the dijoin meets each family
    member exactly once; and, when the pair claims it, the family is
    pairwise nested. No class means DibondClass.full(digraph); on that
    class the dijoin is decided by D/F strong connectivity, so the class
    is not listed even when the dijoin fails.
    """
    klass = _class_for(digraph, klass)
    for member in pair.family:
        if (
            member.digraph != digraph
            or member.is_empty
            or _cut_masks(digraph, member.shore_mask) != (member.edge_mask, 0)
        ):
            raise VerificationFailed("family member is not a nonempty dicut of the digraph")
    if not _pairwise_disjoint(pair.family):
        raise VerificationFailed("family members are not pairwise edge-disjoint")
    if not _meets_class(digraph, frozenset(pair.dijoin), klass):
        raise VerificationFailed("dijoin misses a class member")
    f = _edge_mask(digraph, pair.dijoin)
    union = 0
    for member in pair.family:
        union |= member.edge_mask
    if f & ~union:
        raise VerificationFailed("dijoin is not contained in the family union")
    if any((f & member.edge_mask).bit_count() != 1 for member in pair.family):
        raise VerificationFailed("dijoin does not meet each family member exactly once")
    if pair.nested and not _pairwise_nested(list(pair.family)):
        raise VerificationFailed("family members are not pairwise nested")


def optimal_pair(
    digraph: Digraph, klass: Optional[DibondClass] = None
) -> Optional[OptimalPair]:
    """A minimum dijoin and maximum disjoint family of equal size, verified once.

    On a corner-closed class (the full class included) the two optima
    always agree, so a mismatch raises DualityGapDetected (an implementation
    defect signal). On any other class a genuine gap is possible and is
    reported by returning None. When the sizes agree, the containment and
    meets-exactly-once conditions follow by counting, but the verifier
    still checks them explicitly.

    No class means DibondClass.full(digraph), which is solved without
    listing it, so its dijoin may differ from min_dijoin's on the listed
    class; both are minimum. On a digraph with one source or one sink
    strong component the full class is solved as an optimum branching,
    whose family is a nested family of dibonds by construction; on any
    other, by cutting planes (see the module docstring).
    """
    klass = _class_for(digraph, klass)
    if klass.implicit:
        dijoin, family = _implicit_optimum(klass)
    else:
        dijoin = min_dijoin(digraph, klass)
        family = _disjoint_members(klass, len(dijoin))
        if len(dijoin) != len(family):
            if klass.corner_closed:
                raise DualityGapDetected(len(dijoin), len(family))
            return None
    pair = OptimalPair(dijoin=dijoin, family=tuple(family), nested=_pairwise_nested(family))
    verify_optimal_pair(digraph, klass, pair)
    return pair


def uncross(
    digraph: Digraph,
    dijoin: Iterable[int],
    family: Iterable[Dicut],
    klass: Optional[DibondClass] = None,
) -> list:
    """Repeatedly replace the first crossing pair by its meet and join until nested.

    Preconditions (PreconditionViolated names the failing one): the family
    members are pairwise edge-disjoint dicuts of the digraph, the dijoin
    meets each member exactly once, and the dijoin is a dijoin for the
    ambient class (the full dibond class when none is given). The full
    class, given or not, is decided by strong connectivity without
    enumerating it.

    Each replacement preserves pairwise disjointness and the exactly-once
    counts, and strictly increases the sum of squared in-shore sizes, so
    the loop terminates.
    """
    f = frozenset(dijoin)
    fam = list(family)
    for member in fam:
        if member.digraph != digraph:
            raise PreconditionViolated("family member belongs to a different digraph")
    if not _pairwise_disjoint(fam):
        raise PreconditionViolated("family members must be pairwise edge-disjoint")
    # Values that are no edge ids meet no member; the dijoin check below refuses them.
    f_mask = _edge_mask(digraph, f)
    if any((f_mask & member.edge_mask).bit_count() != 1 for member in fam):
        raise PreconditionViolated("dijoin must meet each family member exactly once")
    if not _meets_class(digraph, f, _class_for(digraph, klass)):
        raise PreconditionViolated("dijoin must be a dijoin for the ambient class")

    limit = len(fam) * digraph.n * digraph.n + len(fam) + 1
    steps = 0
    while not _pairwise_nested(fam):
        steps += 1
        if steps > limit:
            raise RuntimeError("internal error: uncrossing failed to terminate")
        i, j = _first_crossing(fam)
        lo, hi = meet(fam[i], fam[j]), join(fam[i], fam[j])
        if (f_mask & lo.edge_mask).bit_count() != 1 or (f_mask & hi.edge_mask).bit_count() != 1:
            raise PreconditionViolated("dijoin does not meet a corner dicut exactly once")
        fam[i], fam[j] = lo, hi
    return fam


def nested_optimal_pair(
    digraph: Digraph, klass: Optional[DibondClass] = None
) -> Optional[OptimalPair]:
    """An optimal pair whose family is pairwise nested, verified end to end.

    Solves for an optimal pair; when its family crosses, uncrosses it and
    verifies the result again. No class means DibondClass.full(digraph),
    which optimal_pair solves and uncross checks without listing it. A
    family that is already nested is returned as optimal_pair verified
    it. On a class that is not corner-closed the
    dijoin may miss a corner of a crossing pair, so that uncross refuses;
    then the largest pairwise nested disjoint family of members is
    searched for instead, stopping at the dijoin size. Returns None when
    optimal_pair does (a genuine gap) or when that nested family is
    smaller than the dijoin.
    """
    klass = _class_for(digraph, klass)
    pair = optimal_pair(digraph, klass)
    if pair is None or pair.nested:
        return pair
    try:
        fam = uncross(digraph, pair.dijoin, pair.family, klass=klass)
    except PreconditionViolated:
        if klass.corner_closed:
            raise
        fam = _disjoint_members(klass, len(pair.dijoin), nested)
        if len(fam) < len(pair.dijoin):
            return None
    nested_pair = OptimalPair(dijoin=pair.dijoin, family=fam, nested=True)
    verify_optimal_pair(digraph, klass, nested_pair)
    return nested_pair


def _dijoin_selection(digraph: Digraph, f: frozenset) -> Optional[dict]:
    """A nested selection for a dijoin F of the weakly connected digraph,
    {edge id: dibond}, or None when there is none; no dibond is listed.

    A selection is |F| disjoint dicuts, so it exists only when |F| is the
    minimum dijoin size τ, and nested_optimal_pair gives τ. When |F| = τ,
    F meets each of the pair's τ disjoint nested members, hence each
    exactly once, and a dicut that a dijoin meets exactly once is a
    dibond: were it a union of several, F would meet each of them. So
    the family, keyed by the edge of F each member holds, is the
    selection.
    """
    pair = nested_optimal_pair(digraph)
    if len(pair.dijoin) != len(f):
        return None
    f_mask = _edge_mask(digraph, f)
    return {(m.edge_mask & f_mask).bit_length() - 1: m for m in pair.family}


def corner_closure(
    digraph: Digraph, seed: Iterable[Dicut], cap: int = DEFAULT_CAP
) -> DibondClass:
    """The least superset of the seed closed under decomposed meets and joins.

    The seed is checked as DibondClass checks its members, which refuses a
    member of another digraph or one that is no dibond (ValueError). Then a
    fixpoint iteration: for every pair of current members, the nonempty
    meet and join are decomposed into dibonds and any new ones join the
    class. Its pass over the seed's pairs is the corner-closure check, so a
    corner-closed seed costs what the check costs, and no pair is met
    twice. Raises CapExceeded when the member count passes the cap.
    """
    members = _class_members(digraph, seed.members if isinstance(seed, DibondClass) else seed)
    shores = {member.shore_mask for member in members}
    pair_queue = list(combinations(range(len(members)), 2))
    head = 0
    while head < len(pair_queue) and len(members) <= cap:
        i, j = pair_queue[head]
        head += 1
        for part in _corner_parts(members[i], members[j]):
            if part.shore_mask not in shores:
                shores.add(part.shore_mask)
                members.append(part)
                new_idx = len(members) - 1
                pair_queue.extend((idx, new_idx) for idx in range(new_idx))
    if len(members) > cap:
        raise CapExceeded(cap, "computing a corner closure")
    return DibondClass._known(digraph, tuple(sorted(members, key=_member_key)), True)


def maximal_nested_disjoint_family(digraph: Digraph, klass: DibondClass) -> list:
    """A maximum family of class members that is pairwise disjoint and pairwise nested.

    Requires a corner-closed class (NotCornerClosed otherwise); on such a
    class the maximum matches the unrestricted disjoint packing number and
    the union of the returned family is itself a dijoin for the class,
    which is verified before returning by the verifier's test
    (_meets_class), D/F on the full class. Like max_disjoint_dicuts, the
    search stops at the minimum dijoin size.
    """
    if not klass.corner_closed:
        raise NotCornerClosed()
    family = _disjoint_members(klass, len(min_dijoin(digraph, klass)), nested)
    if family:
        union = 0
        for member in family:
            union |= member.edge_mask
        if not _meets_class(digraph, frozenset(bit_positions(union)), klass):
            raise VerificationFailed(
                "union of the maximal nested disjoint family is not a dijoin"
            )
    return family
