"""Built-in infinite digraph families, exposed through finite windows.

Each family is a closed-form generator for an infinite digraph together
with a canonical increasing sequence of finite edge sets. The window at
index n is the finite contraction minor obtained by collapsing every
weak component left after removing the window edges from the infinite
digraph; the remainder components are known in closed form per family,
so no infinite object is ever materialized. Edges of the window carry
their symbolic names, which is what lets claims about the infinite
digraph be tested consistently across growing windows.

The four families; each FamilySpec carries the claims below as data,
keyed by the window check that tests them:

- zigzag_d1: two one-way ranks feeding a hub. Upper vertex a_i sends a
  vertical edge to b_i and a diagonal edge to b_{i+1}; every b_i feeds
  the hub r. Distinguished edge sets: the diagonals and the verticals
  plus the first spoke are both minimal sets meeting every finite
  dibond, but only the diagonals extend to a nested selection.
- grid_d2: a half-plane grid directed down and to the right, with a
  sink at every second boundary vertex. Distinguished sets: the
  vertical drops into the sinks and the horizontal steps along the
  boundary.
- ladder: a two-rail bi-infinite ladder whose rails run in opposite
  directions, joined by rungs. Every window is strongly connected, so
  no finite dicut of the infinite ladder fits in any window.
- transitive_tournament: the transitive tournament on the naturals.
  Far vertices are represented by one contracted vertex reached by a
  single bundled edge per window vertex, so its windows are bespoke
  quotients rather than exact contraction minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Iterable, Optional

from .core import (
    Digraph,
    _edge_mask,
    bit_positions,
    dicut_from_edge_set,
    is_weakly_connected,
    nested,
)
from .enumeration import DEFAULT_CAP, dibonds_containing_edge
from .errors import CapExceeded
from .reduce import contract_to
from .solver import (
    DibondClass,
    _dijoin_selection,
    _meets_all,
    _meets_every_dibond,
    _picks,
    _set_key,
    _sorted_dibonds,
    _tight_picks,
    is_dijoin,
    maximal_nested_disjoint_family,
)


@dataclass(frozen=True)
class RawWindow:
    """Symbolic description of one window before quotienting.

    symbolic_edges lists (name, tail, head) over symbolic vertex names;
    class_of maps every symbolic vertex appearing in those edges to its
    window vertex; named_sets maps a distinguished-set name to the tuple
    of its member edge names that lie inside the window. A generator
    formats each vertex name and each edge name once and reuses the
    strings: in the edges, in class_of and in the named sets.
    """

    symbolic_edges: tuple
    class_of: dict
    named_sets: dict


@dataclass(frozen=True)
class FamilySpec:
    """A symbolic infinite digraph family with a canonical window sequence.

    claims maps a window check, such as `nested:diagonals`, to the claim
    about the infinite digraph that the window evidence is held against.
    expect_absent names the nested checks whose claim is that no nested
    selection exists in large windows. coherent is false when windows
    are bundled quotients, so that no window contracts to a smaller one.
    """

    name: str
    description: str
    _raw: Callable[[int], RawWindow] = field(repr=False)
    claims: dict = field(default_factory=dict, compare=False)  # uncompared: specs stay hashable
    expect_absent: frozenset = frozenset()
    coherent: bool = True


@dataclass(frozen=True, eq=False)
class FamilyWindow:
    """A finite window of a family: the quotient digraph plus provenance.

    class_map sends each symbolic vertex incident to a window edge to
    its window vertex; edge_provenance sends each window edge id to its
    symbolic name; named_edge_sets holds each distinguished set as the
    ids of its surviving window edges; dropped_edges names the symbolic
    edges that collapsed to loops and were removed.
    """

    spec: FamilySpec
    n: int
    digraph: Digraph
    class_map: dict
    edge_provenance: dict
    name_to_edge: dict
    named_edge_sets: dict
    dropped_edges: tuple
    _dibond_cache: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class WindowRow:
    """One window's numbers inside a consistency report."""

    n: int
    member_count: int
    family_size: int
    choice_count: int
    thread_count: int


@dataclass(frozen=True)
class CompactnessReport:
    """Outcome of threading per-window dijoin choices through restrictions.

    consistent is true when at least one choice thread survives to the
    largest window; stable_dijoin is the canonical surviving choice as
    symbolic edge names (empty set when there is nothing to hit);
    unstable_at is the first window index where every thread died, kept
    as data rather than raised.
    """

    family: str
    n_max: int
    rows: tuple
    consistent: bool
    stable_dijoin: Optional[frozenset]
    unstable_at: Optional[int]


def _named_edges(pairs) -> list:
    """(name, tail, head) for each (tail, head) pair of symbolic vertex
    names: the edge names are formatted here, once per window."""
    return [(f"{t}->{h}", t, h) for t, h in pairs]


def _zigzag_raw(n: int) -> RawWindow:
    a = [f"a{i}" for i in range(n + 1)]
    b = [f"b{i}" for i in range(n + 1)]
    class_of = dict(zip(a, a))
    class_of[a[n]] = "rest"
    class_of.update(zip(b, b))
    class_of["r"] = "rest"
    verticals = _named_edges(zip(a, b))
    diagonals = _named_edges(zip(a, b[1:]))
    spokes = _named_edges((v, "r") for v in b)
    vertical_names = tuple(name for name, _, _ in verticals)
    spoke_names = tuple(name for name, _, _ in spokes)
    named = {
        "verticals": vertical_names,
        "diagonals": tuple(name for name, _, _ in diagonals),
        "spokes": spoke_names,
        "verticals_and_first_spoke": vertical_names + spoke_names[:1],
        "spokes_without_first": spoke_names[1:],
    }
    return RawWindow(tuple(verticals + diagonals + spokes), class_of, named)


def _grid_ymin(x: int) -> int:
    # lowest y with (x, y) in the half-plane x - 2y <= 2
    return (x - 1) // 2


def _grid_raw(n: int) -> RawWindow:
    depth = max(2, -(-n // 5))
    # The core points in sorted order, each with its name.
    sym = {}
    for x in range(-n, n + 1):
        y0 = _grid_ymin(x)
        for y in range(y0, y0 + depth + 1):
            sym[(x, y)] = f"({x},{y})"
    class_of = {}
    edges = []
    down = {}  # (x, y) -> the name of the edge (x, y+1) -> (x, y)
    right = {}  # (x, y) -> the name of the edge (x-1, y) -> (x, y)
    for (x, y), name in sym.items():
        up, left = sym.get((x, y + 1)), sym.get((x - 1, y))
        # A point survives when every half-plane neighbour is a core point:
        # (x, y+1) and (x-1, y) always lie in the half-plane, (x, y-1)
        # when x <= 2y and (x+1, y) when x - 2y <= 1.
        survives = (
            up is not None
            and left is not None
            and (x > 2 * y or (x, y - 1) in sym)
            and (x - 2 * y > 1 or (x + 1, y) in sym)
        )
        class_of[name] = name if survives else "rest"
        if up is not None:
            down[(x, y)] = edge = f"{up}->{name}"
            edges.append((edge, up, name))
        if left is not None:
            right[(x, y)] = edge = f"{left}->{name}"
            edges.append((edge, left, name))

    drops = []
    for k in range(-(n // 2) - 1, n // 2 + 2):
        if (2 * k, k - 1) in down:
            drops.append(down[(2 * k, k - 1)])
    steps = []
    for k in range(-(n + 1) // 2 - 1, (n + 1) // 2 + 2):
        if (2 * k, k - 1) in right:
            steps.append(right[(2 * k, k - 1)])
        if (2 * k + 1, k) in right:
            steps.append(right[(2 * k + 1, k)])
    named = {"vertical_drops": tuple(drops), "horizontal_steps": tuple(steps)}
    return RawWindow(tuple(edges), class_of, named)


def _ladder_raw(n: int) -> RawWindow:
    u = [f"u{i}" for i in range(-n, n + 1)]
    w = [f"w{i}" for i in range(-n, n + 1)]
    class_of = {v: v for pair in zip(u, w) for v in pair}
    class_of[u[0]] = class_of[w[0]] = "left"
    class_of[u[-1]] = class_of[w[-1]] = "right"
    edges = _named_edges(zip(u, u[1:])) + _named_edges(zip(w[1:], w)) + _named_edges(zip(w, u))
    return RawWindow(tuple(edges), class_of, {})


def _tournament_raw(n: int) -> RawWindow:
    class_of = {str(i): str(i) for i in range(n + 1)}
    class_of[str(n + 1)] = "rest"
    class_of["rest"] = "rest"
    edges = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            edges.append((f"{i}->{j}", str(i), str(j)))
    for i in range(n + 1):
        edges.append((f"{i}->*", str(i), "rest"))
    return RawWindow(tuple(edges), class_of, {})


FAMILIES = {
    "zigzag_d1": FamilySpec(
        name="zigzag_d1",
        description="two one-way ranks feeding a hub: verticals, diagonals, spokes",
        _raw=_zigzag_raw,
        claims={
            "finitary:diagonals": "the diagonals meet every window dibond",
            "finitary:verticals_and_first_spoke":
                "the verticals plus the first spoke meet every window dibond",
            "nested:diagonals":
                "the diagonals extend to a nested disjoint selection in every window",
            "nested:verticals_and_first_spoke":
                "the verticals plus the first spoke extend to no nested disjoint selection "
                "in all large windows",
        },
        expect_absent=frozenset({"nested:verticals_and_first_spoke"}),
    ),
    "grid_d2": FamilySpec(
        name="grid_d2",
        description="half-plane grid directed down and right with sinks on the boundary",
        _raw=_grid_raw,
        claims={
            "finitary:vertical_drops": "the vertical drops meet every window dibond",
            "finitary:horizontal_steps": "the horizontal steps meet every window dibond",
            "nested:vertical_drops":
                "the vertical drops extend to a nested disjoint selection in every window",
            "nested:horizontal_steps":
                "the horizontal steps extend to no nested disjoint selection in all "
                "large windows",
        },
        expect_absent=frozenset({"nested:horizontal_steps"}),
    ),
    "ladder": FamilySpec(
        name="ladder",
        description="bi-infinite two-rail ladder with counter-rotating rails and rungs",
        _raw=_ladder_raw,
        claims={"no-finite-dicut": "every window is strongly connected"},
    ),
    "transitive_tournament": FamilySpec(
        name="transitive_tournament",
        description="transitive tournament on the naturals with a bundled far vertex",
        _raw=_tournament_raw,
        coherent=False,
    ),
}


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {name!r}; known families: {known}") from None


def window(spec: FamilySpec, n: int) -> FamilyWindow:
    """The finite contraction minor of the family at window index n.

    Symbolic edges whose endpoints collapse into the same window vertex
    drop out (a loop never takes part in a cut); every other edge keeps
    its symbolic name through edge_provenance. The generator builds a
    fresh raw window on every call, so its class_of becomes class_map
    as it is, without a copy. The weak connectivity verdict is kept on
    the digraph (core.is_weakly_connected), so the checks that refuse a
    disconnected digraph do not search the window again.
    """
    if n < 1:
        raise ValueError("window index must be at least 1")
    raw = spec._raw(n)
    class_of = raw.class_of
    pairs = []
    provenance = {}
    dropped = []
    for name, tail, head in raw.symbolic_edges:
        ct, ch = class_of[tail], class_of[head]
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
        class_map=class_of,
        edge_provenance=provenance,
        name_to_edge=name_to_edge,
        named_edge_sets=named_edge_sets,
        dropped_edges=tuple(dropped),
    )


def finite_dibonds_in_window(w: FamilyWindow, cap: int = DEFAULT_CAP) -> list:
    """All dibonds of the window digraph, in the order of the full class.

    The window has exactly the window edges, so these are the finite
    dibonds of the infinite digraph that fit inside the window. The
    result is cached on the window, so repeated calls share one
    enumeration. nested_extension_search reads it for a set that is no
    dijoin, and so do the command line's no-finite-dicut check and
    selftest; check_finitary_dijoin lists the window's full class
    instead.
    """
    if cap not in w._dibond_cache:
        w._dibond_cache[cap] = _sorted_dibonds(w.digraph, cap)
    return list(w._dibond_cache[cap])


def _named_ids(w: FamilyWindow, set_name: str) -> frozenset:
    try:
        return w.named_edge_sets[set_name]
    except KeyError:
        known = ", ".join(sorted(w.named_edge_sets)) or "none"
        raise ValueError(
            f"unknown named edge set {set_name!r} for family {w.spec.name!r}; known: {known}"
        ) from None


def check_finitary_dijoin(
    w: FamilyWindow, set_name: str, cap: int = DEFAULT_CAP
) -> tuple:
    """Whether the named set hits every window dibond; on failure, the first miss.

    Every dicut is a disjoint union of dibonds, and a set F meets every
    dicut of the weakly connected window D exactly when D/F, the window
    with F contracted, is strongly connected (Schrijver, Combinatorial
    Optimization, ch. 55). This is solver.is_dijoin on the window's full
    class, which decides a set that hits every dibond by that test,
    without enumerating. Only a refuted set lists the window dibonds, to
    return the first miss in canonical order, so only that path can
    raise CapExceeded; a refuted set that misses no dibond contradicts
    the theorem and raises an internal error.
    """
    return is_dijoin(w.digraph, _named_ids(w, set_name), DibondClass.full(w.digraph, cap))


def nested_extension_search(
    w: FamilyWindow, set_name: str, cap: int = DEFAULT_CAP
) -> Optional[dict]:
    """A pairwise disjoint, pairwise nested dibond for each edge of the named set.

    Each selected dibond must contain its edge and meet the named set in
    that edge only. Returns {edge id: dibond} or None when no selection
    exists; None at one window rules out any nested selection confined
    to that window.

    A set F that meets every dibond (the D/F test of
    check_finitary_dijoin) has a selection exactly when |F| is the
    minimum dijoin size τ (Lucchesi and Younger 1978; Schrijver,
    Combinatorial Optimization, ch. 55): the selection is |F| disjoint
    dicuts, at most τ of them by the min-max, and F is a dijoin, so
    τ <= |F|. solver._dijoin_selection decides that without listing a
    dibond: it returns None when |F| differs from the dijoin size of
    nested_optimal_pair, and otherwise that pair's nested family, whose
    members F meets once each, keyed by the edge of F each holds. The
    selection it returns is a valid one, not necessarily the one the
    search below would pick.

    Any other set gets solver._tight_picks over the window dibonds, with
    nested as the pair test: the one search for one dibond per edge of F
    that the full-class certificate also runs. Only that search lists the
    window and meets the cap; a cap it passes raises CapExceeded.
    """
    edge_set = _named_ids(w, set_name)
    if _meets_every_dibond(w.digraph, edge_set):
        return _dijoin_selection(w.digraph, edge_set)
    return _tight_picks(finite_dibonds_in_window(w, cap), _edge_mask(w.digraph, edge_set), nested)


def _window_members(
    w: FamilyWindow, restriction: Optional[tuple], cap: int
) -> DibondClass:
    if restriction is None:
        return DibondClass.full(w.digraph, cap)
    members = []
    for names in restriction:
        if not all(nm in w.name_to_edge for nm in names):
            continue
        ids = frozenset(w.name_to_edge[nm] for nm in names)
        d = dicut_from_edge_set(w.digraph, ids)
        if d is None or not d.is_dibond:
            raise ValueError(
                "restriction member does not realize as a dibond of the window"
            )
        members.append(d)
    return DibondClass.from_members(w.digraph, members)


def compactness_run(
    spec: FamilySpec,
    n_max: int,
    restrict_to: Optional[Iterable] = None,
    cap: int = DEFAULT_CAP,
    choice_cap: int = 4096,
) -> CompactnessReport:
    """Thread per-window dijoin choices through window restrictions.

    At each window the canonical maximal nested disjoint dibond family
    is computed for the class (optionally restricted to the given
    symbolic members); a choice picks one edge from each family member
    and must hit every class member. A choice thread survives to window
    n when its restriction to the previous window's edges was itself a
    surviving choice there. The report carries the canonical surviving
    choice, or the first index where all threads died.

    The choices are the picks of solver._picks that meet every class
    member. choice_cap bounds the product of the family members' edge
    counts; CapExceeded is raised before the search when it is exceeded.
    """
    if n_max < 1:
        raise ValueError("window index must be at least 1")
    restriction = None
    if restrict_to is not None:
        restriction = tuple(frozenset(names) for names in restrict_to)
    rows = []
    threads: set = set()
    prev_names: Optional[frozenset] = None
    unstable_at: Optional[int] = None
    for n in range(1, n_max + 1):
        w = window(spec, n)
        klass = _window_members(w, restriction, cap)
        family = maximal_nested_disjoint_family(w.digraph, klass)
        slots = [bit_positions(b.edge_mask) for b in family]
        if prod(map(len, slots)) > choice_cap:
            raise CapExceeded(choice_cap, "enumerating dijoin choices")
        member_sets = [m.edge_set for m in klass.members]
        choices = [
            frozenset(w.edge_provenance[e] for e in pick)
            for pick in _picks(slots, _meets_all(slots, member_sets))
        ]
        if prev_names is None:
            threads = set(choices)
        else:
            alive = threads
            threads = {c for c in choices if (c & prev_names) in alive}
        rows.append(
            WindowRow(
                n=n,
                member_count=len(klass.members),
                family_size=len(family),
                choice_count=len(choices),
                thread_count=len(threads),
            )
        )
        if not threads and unstable_at is None:
            unstable_at = n
        prev_names = frozenset(w.name_to_edge)
    consistent = bool(threads)
    stable = min(threads, key=_set_key) if threads else None
    return CompactnessReport(
        family=spec.name,
        n_max=n_max,
        rows=tuple(rows),
        consistent=consistent,
        stable_dijoin=stable,
        unstable_at=unstable_at,
    )


def dibond_growth(
    spec: FamilySpec, edge_name: str, n_max: int, cap: int = DEFAULT_CAP
) -> tuple:
    """Per-window counts of dibonds containing the named edge.

    The edge must lie inside the largest window; windows it has not yet
    entered, or where it collapsed to a loop, contribute zero. Each window
    runs dibonds_containing_edge, which walks only the dibonds through the
    edge, and the cap bounds that count in each window, not the window's
    dibond total.
    """
    if n_max < 1:
        raise ValueError("window index must be at least 1")
    w_max = window(spec, n_max)
    known = set(w_max.name_to_edge) | set(w_max.dropped_edges)
    if edge_name not in known:
        raise ValueError(f"edge {edge_name!r} is not inside window {n_max}")
    counts = []
    for n in range(1, n_max + 1):
        w = w_max if n == n_max else window(spec, n)
        e = w.name_to_edge.get(edge_name)
        if e is None:
            counts.append(0)
        else:
            counts.append(len(dibonds_containing_edge(w.digraph, e, cap)))
    return tuple(counts)


def window_coherent(spec: FamilySpec, m: int, n: int) -> bool:
    """Whether contracting window n down to window m reproduces window m.

    Checks the isomorphism under the class maps: vertex classes must
    correspond and every shared symbolic edge must keep its endpoints.
    The bundled-edge family breaks this on purpose; the check reports
    False rather than raising.
    """
    if not 1 <= m <= n:
        raise ValueError("window indices must satisfy 1 <= m <= n")
    return _windows_coherent(window(spec, m), window(spec, n))


def _windows_coherent(wm: FamilyWindow, wn: FamilyWindow) -> bool:
    """window_coherent on two built windows of one family, the smaller
    first, so a sweep against one top window builds it once."""
    if any(nm not in wn.name_to_edge for nm in wm.name_to_edge):
        return False
    kept = frozenset(wn.name_to_edge[nm] for nm in wm.name_to_edge)
    qm = contract_to(wn.digraph, kept)
    phi: dict = {}
    for sym_v, cm in wm.class_map.items():
        if sym_v not in wn.class_map:
            return False
        q = qm.class_of[wn.class_map[sym_v]]
        if phi.setdefault(cm, q) != q:
            return False
    if len(set(phi.values())) != len(phi):
        return False
    if set(phi.values()) != set(qm.quotient.vertices):
        return False
    if qm.quotient.m != wm.digraph.m:
        return False
    back = {orig: q for q, orig in qm.edge_provenance.items()}
    for nm, em in wm.name_to_edge.items():
        q = back.get(wn.name_to_edge[nm])
        if q is None:
            return False
        want = (phi[wm.digraph.tail(em)], phi[wm.digraph.head(em)])
        if (qm.quotient.tail(q), qm.quotient.head(q)) != want:
            return False
    return True
