"""Exact minimum dijoins, maximum disjoint dicut packings, and nested optimal pairs.

A dibond class fixes which dicuts must be met: a dijoin for the class is an
edge set meeting every member. On the full dibond class of a finite weakly
connected digraph the minimum dijoin size equals the maximum number of
pairwise disjoint dicuts (the Lucchesi-Younger equality), and an optimal
pair can always be uncrossed into a nested one. Both solvers here are exact
branch and bound searches intended for desk-scale instances, and every
produced pair is re-checked by an independent verifier rather than trusted
by construction.

Every largest disjoint family (set packings, dicut packings, nested
families) comes from one search. Each level picks the next member from a
candidate list in ascending index order, and the level below keeps only
the later candidates compatible with it, so the recursion is as deep as
the family. A level is pruned when the family so far plus a greedy cover
of its candidates cannot beat the incumbent: each member of a disjoint
family contains a different cover element. The search also stops once the
family reaches a given size. The dicut family searches pass the minimum
dijoin size, which weak duality makes an upper bound: a dijoin meets each
member of a disjoint family in a different edge. exact_max_set_packing
passes none, so that hypergraph checks can compare it with the hitting set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .core import (
    Digraph,
    Dicut,
    crossing,
    decompose_dicut,
    join,
    meet,
    nested,
)
from .enumeration import DEFAULT_CAP, enumerate_dibonds
from .errors import (
    CapExceeded,
    DualityGapDetected,
    NotCornerClosed,
    PreconditionViolated,
    VerificationFailed,
)

FULL_CLASS_TAG = "all"
CUSTOM_CLASS_TAG = "custom"


def _member_key(d: Dicut) -> tuple:
    return (len(d.edge_set), tuple(sorted(d.edge_set)), tuple(sorted(d.in_shore)))


@dataclass(frozen=True, eq=False)
class DibondClass:
    """A finite set of dibonds of one digraph, with its corner-closure status.

    corner_closed means: for every pair of members, the decompositions of
    their meet and join (when nonempty) consist of members again.
    """

    digraph: Digraph
    members: tuple
    corner_closed: bool
    tag: str

    @staticmethod
    def full(digraph: Digraph, cap: int = DEFAULT_CAP) -> "DibondClass":
        """The class of all dibonds; corner-closed by construction."""
        members = tuple(sorted(enumerate_dibonds(digraph, cap), key=_member_key))
        return DibondClass(
            digraph=digraph, members=members, corner_closed=True, tag=FULL_CLASS_TAG
        )

    @staticmethod
    def from_members(
        digraph: Digraph, members: Iterable[Dicut], tag: str = CUSTOM_CLASS_TAG
    ) -> "DibondClass":
        """A user class; validates every member is a dibond and computes closure status."""
        seen = set()
        unique = []
        for member in members:
            if member.digraph != digraph:
                raise ValueError("class member belongs to a different digraph")
            if not member.is_dibond:
                raise ValueError(f"class member {member!r} is not a dibond")
            if member.in_shore not in seen:
                seen.add(member.in_shore)
                unique.append(member)
        unique.sort(key=_member_key)
        klass = DibondClass(
            digraph=digraph, members=tuple(unique), corner_closed=False, tag=tag
        )
        if _is_corner_closed(klass):
            klass = DibondClass(
                digraph=digraph, members=tuple(unique), corner_closed=True, tag=tag
            )
        return klass

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class OptimalPair:
    """A dijoin F and a disjoint dicut family of equal size, plus flags.

    nested records whether the family is pairwise nested; class_tag records
    whether the ambient class was the full dibond class or user-supplied.
    """

    dijoin: frozenset
    family: tuple
    nested: bool
    class_tag: str


def _corner_parts(a: Dicut, b: Dicut):
    """The dibonds of the nonempty meet and join of two dibonds, meet first."""
    for corner in (meet(a, b), join(a, b)):
        if not corner.is_empty:
            yield from decompose_dicut(corner)


def _is_corner_closed(klass: DibondClass) -> bool:
    member_shores = {m.in_shore for m in klass.members}
    return all(
        part.in_shore in member_shores
        for a, b in combinations(klass.members, 2)
        for part in _corner_parts(a, b)
    )


def is_dijoin(digraph: Digraph, edge_set: Iterable[int], klass: DibondClass) -> tuple:
    """(True, None) if the edge set meets every class member, else (False, first missed member)."""
    f = frozenset(edge_set)
    if not all(0 <= e < digraph.m for e in f):
        raise ValueError("edge set contains unknown edge ids")
    for member in klass.members:
        if not (member.edge_set & f):
            return (False, member)
    return (True, None)


def _greedy_cover(sets: list) -> frozenset:
    uncovered = list(sets)
    chosen = set()
    while uncovered:
        counts: dict = {}
        for s in uncovered:
            for e in s:
                counts[e] = counts.get(e, 0) + 1
        best_e = min(counts, key=lambda e: (-counts[e], e))
        chosen.add(best_e)
        uncovered = [s for s in uncovered if best_e not in s]
    return frozenset(chosen)


def _packing_lower_bound(sets: list) -> int:
    used: set = set()
    count = 0
    for s in sets:
        if not (s & used):
            used |= s
            count += 1
    return count


def exact_min_hitting_set(sets: Iterable[frozenset]) -> frozenset:
    """A minimum set of elements meeting every given set, by exact branch and bound.

    Branches over the elements of a smallest currently unhit set; the lower
    bound is a greedy disjoint sub-packing of the unhit sets. Deterministic
    under ascending element order. Elements must be mutually sortable.
    """
    todo = sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s))))
    if not todo:
        return frozenset()
    if any(not s for s in todo):
        raise ValueError("cannot hit an empty set")
    best = _greedy_cover(todo)

    def search(chosen: set, uncovered: list) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = frozenset(chosen)
            return
        if len(chosen) + _packing_lower_bound(uncovered) >= len(best):
            return
        pivot = min(uncovered, key=lambda s: (len(s), tuple(sorted(s))))
        for e in sorted(pivot):
            chosen.add(e)
            search(chosen, [s for s in uncovered if e not in s])
            chosen.discard(e)

    search(set(), todo)
    return best


def _largest_disjoint(sets: list, stop: Optional[int] = None, also=None) -> list:
    """Indices of the lexicographically first largest pairwise-disjoint subfamily.

    Pairs of indices must also pass also(i, j), when given. The search ends
    early once the family reaches `stop` members; see the module docstring.
    """
    best: list = []
    chosen: list = []

    def search(cands: list) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) == stop:
            return True
        rest = [sets[i] for i in cands]
        cover = _greedy_cover([s for s in rest if s])
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


def exact_max_set_packing(sets: list) -> list:
    """Indices of a maximum pairwise-disjoint subfamily, by exact branch and bound.

    The input order is respected: the result is the lexicographically first
    maximum subfamily as an ascending index list, so it is deterministic for
    a fixed input order. The search is exhaustive, with no size to stop at.
    """
    return _largest_disjoint(sets)


def min_dijoin(digraph: Digraph, klass: DibondClass) -> frozenset:
    """A minimum edge set meeting every class member.

    Exact hitting set over the member edge sets, deterministic under
    ascending edge id tie-breaking. The empty class has the empty dijoin.
    """
    return exact_min_hitting_set([m.edge_set for m in klass.members])


def _disjoint_members(klass: DibondClass, stop: Optional[int] = None, also=None) -> list:
    """The class members _largest_disjoint picks; `also` tests two members."""
    members = klass.members
    test = None if also is None else (lambda i, j: also(members[i], members[j]))
    picked = _largest_disjoint([m.edge_set for m in members], stop, test)
    return sorted((members[i] for i in picked), key=_member_key)


def max_disjoint_dicuts(digraph: Digraph, klass: DibondClass) -> list:
    """A maximum family of pairwise edge-disjoint class members.

    Exact set packing over the members in canonical order; deterministic.
    The search stops at the minimum dijoin size, which no disjoint family
    can exceed.
    """
    return _disjoint_members(klass, len(min_dijoin(digraph, klass)))


def _pairwise_disjoint(family: Iterable[Dicut]) -> bool:
    seen: set = set()
    for member in family:
        if member.edge_set & seen:
            return False
        seen |= member.edge_set
    return True


def _pairwise_nested(family: list) -> bool:
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not nested(family[i], family[j]):
                return False
    return True


def verify_optimal_pair(digraph: Digraph, klass: DibondClass, pair: OptimalPair) -> None:
    """Independently re-check the optimal pair conditions; raise VerificationFailed otherwise.

    Checks, in order: every family member is a nonempty dicut of the
    digraph; the members are pairwise edge-disjoint; the dijoin meets every
    class member; the dijoin lies inside the family union; the dijoin meets
    each family member exactly once; and, when the pair claims it, the
    family is pairwise nested.
    """
    for member in pair.family:
        if member.digraph != digraph or member.is_empty:
            raise VerificationFailed("family member is not a nonempty dicut of the digraph")
        for v in member.in_shore:
            for e in digraph.out_edges(v):
                if digraph.head(e) not in member.in_shore:
                    raise VerificationFailed(
                        "family member is not a nonempty dicut of the digraph"
                    )
    if not _pairwise_disjoint(pair.family):
        raise VerificationFailed("family members are not pairwise edge-disjoint")
    ok, _missed = is_dijoin(digraph, pair.dijoin, klass)
    if not ok:
        raise VerificationFailed("dijoin misses a class member")
    union = frozenset(e for member in pair.family for e in member.edge_set)
    if not pair.dijoin <= union:
        raise VerificationFailed("dijoin is not contained in the family union")
    if any(len(pair.dijoin & member.edge_set) != 1 for member in pair.family):
        raise VerificationFailed("dijoin does not meet each family member exactly once")
    if pair.nested and not _pairwise_nested(list(pair.family)):
        raise VerificationFailed("family members are not pairwise nested")


def optimal_pair(digraph: Digraph, klass: DibondClass) -> Optional[OptimalPair]:
    """A minimum dijoin and maximum disjoint family of equal size, verified.

    On the full class the two optima always agree, so a mismatch raises
    DualityGapDetected (an implementation defect signal). On a user class a
    genuine gap is possible and is reported by returning None. When the
    sizes agree, the containment and meets-exactly-once conditions follow
    by counting, but the verifier still checks them explicitly.
    """
    dijoin = min_dijoin(digraph, klass)
    family = _disjoint_members(klass, len(dijoin))
    if len(dijoin) != len(family):
        if klass.tag == FULL_CLASS_TAG:
            raise DualityGapDetected(len(dijoin), len(family))
        return None
    pair = OptimalPair(
        dijoin=dijoin,
        family=tuple(family),
        nested=_pairwise_nested(family),
        class_tag=klass.tag,
    )
    verify_optimal_pair(digraph, klass, pair)
    return pair


def uncross(
    digraph: Digraph,
    dijoin: Iterable[int],
    family: Iterable[Dicut],
    klass: Optional[DibondClass] = None,
    refine_to_dibonds: bool = False,
) -> list:
    """Repeatedly replace the first crossing pair by its meet and join until nested.

    Preconditions (PreconditionViolated names the failing one): the family
    members are pairwise edge-disjoint dicuts of the digraph, the dijoin
    meets each member exactly once, and the dijoin is a dijoin for the
    ambient class (the full dibond class when none is given).

    Each replacement preserves pairwise disjointness and the exactly-once
    counts, and strictly increases the sum of squared in-shore sizes, so
    the loop terminates. With refine_to_dibonds, each resulting dicut is
    replaced by the dibond of its decomposition carrying its dijoin edge,
    and the refined family is re-checked for nestedness.
    """
    f = frozenset(dijoin)
    fam = list(family)
    for member in fam:
        if member.digraph != digraph:
            raise PreconditionViolated("family member belongs to a different digraph")
    if not _pairwise_disjoint(fam):
        raise PreconditionViolated("family members must be pairwise edge-disjoint")
    if any(len(f & member.edge_set) != 1 for member in fam):
        raise PreconditionViolated("dijoin must meet each family member exactly once")
    ambient = klass if klass is not None else DibondClass.full(digraph)
    ok, _missed = is_dijoin(digraph, f, ambient)
    if not ok:
        raise PreconditionViolated("dijoin must be a dijoin for the ambient class")

    limit = len(fam) * digraph.n * digraph.n + len(fam) + 1
    steps = 0
    while True:
        pair = None
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                if crossing(fam[i], fam[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        steps += 1
        if steps > limit:
            raise RuntimeError("internal error: uncrossing failed to terminate")
        i, j = pair
        lo, hi = meet(fam[i], fam[j]), join(fam[i], fam[j])
        if len(f & lo.edge_set) != 1 or len(f & hi.edge_set) != 1:
            raise PreconditionViolated("dijoin does not meet a corner dicut exactly once")
        fam[i], fam[j] = lo, hi

    if refine_to_dibonds:
        refined = []
        for member in fam:
            (edge,) = tuple(f & member.edge_set)
            part = next(
                p for p in decompose_dicut(member) if edge in p.edge_set
            )
            refined.append(part)
        if not _pairwise_nested(refined):
            raise VerificationFailed("refined dibonds are not pairwise nested")
        fam = refined
    return fam


def nested_optimal_pair(digraph: Digraph, klass: DibondClass) -> Optional[OptimalPair]:
    """An optimal pair whose family is pairwise nested, verified end to end.

    Solves for an optimal pair, uncrosses its family, and re-verifies all
    conditions. Returns None exactly when optimal_pair does (a genuine gap
    on a user class).
    """
    pair = optimal_pair(digraph, klass)
    if pair is None:
        return None
    fam = uncross(digraph, pair.dijoin, pair.family, klass=klass)
    fam = sorted(fam, key=_member_key)
    nested_pair = OptimalPair(
        dijoin=pair.dijoin,
        family=tuple(fam),
        nested=True,
        class_tag=klass.tag,
    )
    verify_optimal_pair(digraph, klass, nested_pair)
    return nested_pair


def corner_closure(
    digraph: Digraph, seed: Iterable[Dicut], cap: int = DEFAULT_CAP
) -> DibondClass:
    """The least superset of the seed closed under decomposed meets and joins.

    Fixpoint iteration: for every pair of current members, the nonempty
    meet and join are decomposed into dibonds and any new ones join the
    class. Raises CapExceeded when the member count would pass the cap.
    """
    if isinstance(seed, DibondClass):
        tag = seed.tag
        seed_members = list(seed.members)
    else:
        tag = CUSTOM_CLASS_TAG
        seed_members = list(seed)
    members: list = []
    shores: set = set()

    def add(member: Dicut) -> None:
        if member.digraph != digraph:
            raise ValueError("seed member belongs to a different digraph")
        if not member.is_dibond:
            raise ValueError(f"seed member {member!r} is not a dibond")
        if member.in_shore in shores:
            return
        if len(members) >= cap:
            raise CapExceeded(cap, "computing a corner closure")
        shores.add(member.in_shore)
        members.append(member)

    for member in sorted(seed_members, key=_member_key):
        add(member)
    pair_queue = list(combinations(range(len(members)), 2))
    head = 0
    while head < len(pair_queue):
        i, j = pair_queue[head]
        head += 1
        for part in _corner_parts(members[i], members[j]):
            if part.in_shore not in shores:
                add(part)
                new_idx = len(members) - 1
                pair_queue.extend((idx, new_idx) for idx in range(new_idx))
    final = sorted(members, key=_member_key)
    return DibondClass(
        digraph=digraph, members=tuple(final), corner_closed=True, tag=tag
    )


def maximal_nested_disjoint_family(digraph: Digraph, klass: DibondClass) -> list:
    """A maximum family of class members that is pairwise disjoint and pairwise nested.

    Requires a corner-closed class (NotCornerClosed otherwise); on such a
    class the maximum matches the unrestricted disjoint packing number and
    the union of the returned family is itself a dijoin for the class,
    which is verified before returning. Like max_disjoint_dicuts, the
    search stops at the minimum dijoin size.
    """
    if not klass.corner_closed:
        raise NotCornerClosed()
    family = _disjoint_members(klass, len(min_dijoin(digraph, klass)), nested)
    if family:
        union = frozenset(e for member in family for e in member.edge_set)
        ok, _missed = is_dijoin(digraph, union, klass)
        if not ok:
            raise VerificationFailed(
                "union of the maximal nested disjoint family is not a dijoin"
            )
    return family
