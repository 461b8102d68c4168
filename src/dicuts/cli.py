"""Command line surface: file formats, pipelines, and report emission.

Input digraphs use a plain edge list: one edge per line as `TAIL HEAD`,
arbitrary non-whitespace tokens as vertex names, `#` starting a comment,
duplicate lines creating parallel edges. Directive lines start with `%`;
the only known directive is `%vertex NAME`, declaring an isolated vertex.
A hypergraph file is read the same way, with each other line one
hyperedge of vertex names.

Reports are deterministic `key: value` lines. Exit codes: 0 for success,
2 when a family check refutes a registered claim, 1 for errors.

`solve` and `uncross` without a class file run on DibondClass.full, the
implicit full class: the solvers find its optimal pair as an optimum
branching when the digraph has one source or one sink strong component,
and by cutting planes otherwise, and decide a dijoin by D/F strong
connectivity, so they list no dibond, and `solve` prints class_size
only for a class file. `blocks` hands the
full class to split_solve_merge, which solves each block's minor on the
minor's implicit full class and verifies the merged pair by D/F, so it
lists no dibond either. `--cap` bounds only a listing: `enumerate` and
`selftest` list the full class, and the solvers list it only when the
certificate search falls back to it. A block's fallback listing has the
default cap, as the optimal_pair of a `nested:` check has, so `--cap`
does not bound `blocks`. A `family` check `finitary:<set>` lists the
window's class only for a set that misses a dibond, to name the first
one missed, and `nested:<set>` decides a set that meets every dibond by
the min-max, without listing; only a set that is no dijoin is searched
for among the listed window dibonds.

`main(argv)` and `run(command, flags)` run the same command line in
process. They share one parser, built on the first command of the process
and reused by every later one, so a caller that runs many commands pays
for it once. `main` returns exit codes as the `dicuts` command does; `run`
returns the RunReport and raises ValueError on a usage error. Cut labels
are read off the shore and edge masks, so a report builds no shore or
edge set.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterator, Optional

from .core import (
    Dicut,
    Digraph,
    _cut_masks,
    _select,
    _vertex_mask,
    decompose_dicut,
    dicut_from_shore,
)
from .enumeration import (
    DEFAULT_CAP,
    condensation,
    enumerate_dibonds,
    enumerate_dicuts,
)
from .errors import DicutsError, ParseError, VerificationFailed
from .families import (
    _windows_coherent,
    check_finitary_dijoin,
    compactness_run,
    dibond_growth,
    finite_dibonds_in_window,
    get_family,
    nested_extension_search,
    window,
)
from .hypergraph import (
    Hypergraph,
    dibond_hypergraph,
    fin_parameter_check,
    konig_property,
    menger_hypergraph,
)
from .reduce import block_cut_tree, equivalence_classes, split_solve_merge
from .solver import (
    DibondClass,
    OptimalPair,
    _pairwise_nested,
    _sorted_dibonds,
    nested_optimal_pair,
    optimal_pair,
    uncross,
    verify_optimal_pair,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


def _lines(text: str):
    """(line number, tokens) of each line with tokens left before its `#` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _declared_vertex(lineno: int, tokens: list) -> str:
    """The vertex that a `%vertex NAME` directive line declares; any
    other directive is refused."""
    if tokens[0] != "%vertex":
        raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
    if len(tokens) != 2:
        raise ParseError(lineno, "expected %vertex NAME")
    return tokens[1]


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format; vertices appear in first-use order."""
    edges = []
    isolated = []
    for lineno, tokens in _lines(text):
        if tokens[0].startswith("%"):
            isolated.append(_declared_vertex(lineno, tokens))
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, "expected TAIL HEAD")
        tail, head = tokens
        if tail == head:
            raise ParseError(lineno, "loops are not allowed")
        edges.append((tail, head))
    return Digraph.from_edges(edges, isolated=isolated)


def serialize_digraph(digraph: Digraph) -> str:
    """Inverse of parse_digraph up to edge id order."""
    incident = set()
    for t, h in digraph.edges:
        incident.add(t)
        incident.add(h)
    lines = [f"%vertex {v}" for v in sorted(digraph.vertices - incident)]
    lines.extend(f"{t} {h}" for t, h in digraph.edges)
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class RunReport:
    """A finished pipeline run: ordered report lines plus an exit code."""

    command: str
    lines: tuple
    exit_code: int

    def render(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.lines) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parallel_ids(digraph: Digraph) -> dict:
    """(tail, head) -> ascending ids of the edges with those ends."""
    table: dict = {}
    for e, ends in enumerate(digraph.edges):
        table.setdefault(ends, []).append(e)
    return table


def _edge_labels(digraph: Digraph) -> list:
    """Label of each edge id: `t->h`, or `t->h#k` for the k-th of parallel edges."""
    labels = [""] * digraph.m
    for (t, h), ids in _parallel_ids(digraph).items():
        for k, e in enumerate(ids):
            labels[e] = f"{t}->{h}" if len(ids) == 1 else f"{t}->{h}#{k}"
    return labels


def _edge_set_label(labels: list, edge_set) -> str:
    return "{" + ", ".join(labels[e] for e in sorted(edge_set)) + "}"


def _shore_label(shore) -> str:
    return "{" + ", ".join(str(v) for v in sorted(shore)) + "}"


def _cut_labels(labels: list, digraph: Digraph, cuts) -> Iterator[str]:
    """The label of each cut of the digraph, read off its masks, so listing
    a cut builds neither of its sets."""
    # The vertex order is descending, so a shore mask selects the names
    # largest first; the label lists them ascending.
    names = [str(v) for v in digraph.vertex_order]
    for cut in cuts:
        shore = ", ".join([*_select(names, cut.shore_mask)][::-1])
        edges = ", ".join(_select(labels, cut.edge_mask))
        yield f"in_shore={{{shore}}} edges={{{edges}}}"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_digraph(args) -> tuple:
    text = _read_text(args.input)
    return parse_digraph(text), _digest(text)


def _resolve_edge_lines(digraph: Digraph, text: str) -> frozenset:
    """Edge per line as TAIL HEAD; repeats consume parallel ids in order."""
    unused = _parallel_ids(digraph)
    ids = []
    for lineno, tokens in _lines(text):
        if len(tokens) != 2:
            raise ParseError(lineno, "expected TAIL HEAD")
        t, h = tokens
        if not unused.get((t, h)):
            raise ParseError(lineno, f"no unused edge {t}->{h} in the digraph")
        ids.append(unused[(t, h)].pop(0))
    return frozenset(ids)


def _read_shores(digraph: Digraph, path: str, dibonds: bool = False) -> list:
    """The dicuts of the in-shores the file lists, one per line as vertex
    names. A line that no dicut has as in-shore is refused with the label of
    the lowest edge leaving it; with `dibonds`, so is one whose dicut is no dibond."""
    cuts = []
    for lineno, names in _lines(_read_text(path)):
        unknown = [v for v in names if v not in digraph.vertices]
        if unknown:
            raise ParseError(lineno, f"unknown vertices {unknown}")
        shore = frozenset(names)
        mask = _vertex_mask(digraph, shore)
        entering, leaving = _cut_masks(digraph, mask)
        if leaving:
            edge = _edge_labels(digraph)[(leaving & -leaving).bit_length() - 1]
            raise ParseError(lineno, f"{edge} leaves the in-shore {_shore_label(shore)}; not a dicut")
        cut = Dicut._known(digraph, mask, entering)
        if dibonds and not cut.is_dibond:
            raise ParseError(lineno, f"in-shore {_shore_label(shore)} is no dibond")
        cuts.append(cut)
    return cuts


def _class_from_args(digraph: Digraph, args) -> DibondClass:
    """The class file's class, or else the implicit full class, which the
    solvers decide by D/F strong connectivity without listing it."""
    if args.class_file:
        return DibondClass.from_members(digraph, _read_shores(digraph, args.class_file, True))
    return DibondClass.full(digraph, args.cap)


def _pair_lines(labels: list, digraph: Digraph, pair: OptimalPair) -> list:
    return [
        ("min_dijoin_size", str(len(pair.dijoin))),
        ("max_packing_size", str(len(pair.family))),
        ("nested", "true" if pair.nested else "false"),
        ("dijoin", _edge_set_label(labels, pair.dijoin)),
    ] + [("family_member", label) for label in _cut_labels(labels, digraph, pair.family)]


def _cmd_enumerate(args) -> RunReport:
    digraph, digest = _load_digraph(args)
    lines = [
        ("command", "enumerate"),
        ("input_sha256", digest),
        ("vertices", str(digraph.n)),
        ("edges", str(digraph.m)),
        ("kind", args.kind),
    ]
    if args.kind == "dicuts":
        members = enumerate_dicuts(digraph, args.cap)
    else:
        members = enumerate_dibonds(digraph, args.cap)
    lines.append(("count", str(len(members))))
    labels = _edge_labels(digraph)
    lines.extend(("member", label) for label in _cut_labels(labels, digraph, members))
    return RunReport("enumerate", tuple(lines), EXIT_OK)


def _cmd_solve(args) -> RunReport:
    digraph, digest = _load_digraph(args)
    klass = _class_from_args(digraph, args)
    lines = [
        ("command", "solve"),
        ("input_sha256", digest),
        ("vertices", str(digraph.n)),
        ("edges", str(digraph.m)),
    ]
    if args.class_file:
        lines.append(("class_size", str(len(klass))))
    solve = nested_optimal_pair if klass.corner_closed else optimal_pair
    pair = solve(digraph, klass)
    if pair is None:
        lines.append(("optimal_pair", "absent"))
        lines.append(("reason", "no pair attains equality for this class"))
        return RunReport("solve", tuple(lines), EXIT_OK)
    lines.extend(_pair_lines(_edge_labels(digraph), digraph, pair))
    lines.append(("verified", "true"))
    return RunReport("solve", tuple(lines), EXIT_OK)


def _cmd_uncross(args) -> RunReport:
    digraph, digest = _load_digraph(args)
    lines = [
        ("command", "uncross"),
        ("input_sha256", digest),
    ]
    if bool(args.dijoin) != bool(args.family):
        raise ValueError("--dijoin and --family must be given together")
    klass = _class_from_args(digraph, args)
    if args.dijoin:
        dijoin = _resolve_edge_lines(digraph, _read_text(args.dijoin))
        family = _read_shores(digraph, args.family)
    else:
        pair = optimal_pair(digraph, klass)
        if pair is None:
            lines.append(("optimal_pair", "absent"))
            return RunReport("uncross", tuple(lines), EXIT_OK)
        dijoin, family = pair.dijoin, list(pair.family)
    before = _pairwise_nested(family)
    lines.append(("nested_before", "true" if before else "false"))
    result = uncross(digraph, dijoin, family, klass=klass)
    lines.append(("nested_after", "true"))
    labels = _edge_labels(digraph)
    lines.append(("dijoin", _edge_set_label(labels, dijoin)))
    lines.extend(("family_member", label) for label in _cut_labels(labels, digraph, result))
    return RunReport("uncross", tuple(lines), EXIT_OK)


def _cmd_quotient(args) -> RunReport:
    digraph, digest = _load_digraph(args)
    if not args.class_file:
        raise ValueError("quotient requires --class-file with generating in-shores")
    cuts = _read_shores(digraph, args.class_file)
    qm = equivalence_classes(digraph, cuts)
    lines = [
        ("command", "quotient"),
        ("input_sha256", digest),
        ("generators", str(len(cuts))),
        ("classes", str(len(qm.classes()))),
        ("quotient_vertices", str(qm.quotient.n)),
        ("quotient_edges", str(qm.quotient.m)),
    ]
    for cid, members in sorted(qm.classes().items()):
        lines.append(("class", f"{cid} <- {_shore_label(members)}"))
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(serialize_digraph(qm.quotient))
        lines.append(("exported", args.export))
    return RunReport("quotient", tuple(lines), EXIT_OK)


def _cmd_blocks(args) -> RunReport:
    digraph, digest = _load_digraph(args)
    tree = block_cut_tree(digraph)
    lines = [
        ("command", "blocks"),
        ("input_sha256", digest),
        ("blocks", str(len(tree.blocks))),
        ("cutvertices", _shore_label(tree.cutvertices)),
    ]
    labels = _edge_labels(digraph)
    for i, block in enumerate(tree.blocks):
        lines.append(("block", f"{i} edges={_edge_set_label(labels, block)}"))
    for v, b in tree.tree_edges:
        lines.append(("tree_edge", f"{v} - block {b}"))
    pair = split_solve_merge(digraph, DibondClass.full(digraph))
    if pair is None:
        lines.append(("optimal_pair", "absent"))
    else:
        lines.extend(_pair_lines(labels, digraph, pair))
    return RunReport("blocks", tuple(lines), EXIT_OK)


def _family_windows(args) -> list:
    if args.window is not None:
        return [args.window]
    if args.nmax < 1:
        raise ValueError("window index must be at least 1")
    return list(range(1, args.nmax + 1))


def _cmd_family(args) -> RunReport:
    if not args.name or not args.check:
        raise ValueError("family requires --name and --check")
    spec = get_family(args.name)
    check = args.check
    seed_text = f"{spec.name}|{check}|{args.window}|{args.nmax}|{args.cap}"
    lines = [
        ("command", "family"),
        ("input_sha256", _digest(seed_text)),
        ("family", spec.name),
        ("check", check),
    ]
    indices = _family_windows(args)
    claim = spec.claims.get(check)
    refuted_at: Optional[int] = None

    if check == "no-finite-dicut":
        claim = claim or "no finite dicut fits inside any window"
        for n in indices:
            w = window(spec, n)
            sccs = len(condensation(w.digraph).components)
            count = len(finite_dibonds_in_window(w, args.cap))
            lines.append(("window", f"n={n} scc_count={sccs} dibond_count={count}"))
            if count != 0 and refuted_at is None:
                refuted_at = n
    elif check.startswith("finitary:"):
        set_name = check.split(":", 1)[1]
        claim = claim or f"the set {set_name!r} meets every window dibond"
        for n in indices:
            w = window(spec, n)
            ok, miss = check_finitary_dijoin(w, set_name, args.cap)
            detail = f"n={n} hits_all={'true' if ok else 'false'}"
            if miss is not None:
                detail += f" missed={_edge_set_label(_edge_labels(w.digraph), miss.edge_set)}"
            lines.append(("window", detail))
            if not ok and refuted_at is None:
                refuted_at = n
    elif check.startswith("nested:"):
        set_name = check.split(":", 1)[1]
        first_absent: Optional[int] = None
        for n in indices:
            present = nested_extension_search(window(spec, n), set_name, args.cap) is not None
            lines.append(("window", f"n={n} selection={'present' if present else 'absent'}"))
            if not present and first_absent is None:
                first_absent = n
        if check in spec.expect_absent:
            lines.append(
                ("absence_threshold", str(first_absent) if first_absent else "none")
            )
            refuted_at = indices[-1] if present else None
        else:
            refuted_at = first_absent
    elif check == "compactness":
        report = compactness_run(spec, indices[-1], cap=args.cap)
        for row in report.rows:
            lines.append(
                ("window", f"n={row.n} members={row.member_count} "
                           f"family={row.family_size} choices={row.choice_count} "
                           f"threads={row.thread_count}")
            )
        lines.append(("consistent", "true" if report.consistent else "false"))
        if report.stable_dijoin is not None:
            lines.append(
                ("stable_dijoin", "{" + ", ".join(sorted(report.stable_dijoin)) + "}")
            )
        if report.unstable_at is not None:
            lines.append(("unstable_at", str(report.unstable_at)))
    elif check.startswith("growth:"):
        edge_name = check.split(":", 1)[1]
        counts = dibond_growth(spec, edge_name, indices[-1], args.cap)
        lines.append(("counts", " ".join(str(c) for c in counts)))
        if any(a > b for a, b in zip(counts, counts[1:])) and refuted_at is None:
            refuted_at = indices[-1]
            claim = "per-window dibond counts never decrease"
    elif check == "coherence":
        if not spec.coherent:
            lines.append(("evidence", "not applicable: windows are bundled quotients"))
            return RunReport("family", tuple(lines), EXIT_OK)
        claim = "contracting a larger window reproduces the smaller one"
        n_top = indices[-1]
        if n_top < 1:
            raise ValueError("window indices must satisfy 1 <= m <= n")
        # The top window is built once and compared with each window.
        w_top = window(spec, n_top)
        for m in indices:
            ok = _windows_coherent(w_top if m == n_top else window(spec, m), w_top)
            lines.append(("window", f"m={m} n={n_top} coherent={'true' if ok else 'false'}"))
            if not ok and refuted_at is None:
                refuted_at = m
    else:
        raise ValueError(f"unknown check {check!r}")

    if claim is not None:
        lines.append(("claim", claim))
        if refuted_at is not None:
            lines.append(("evidence", f"refuted at window {refuted_at}"))
            return RunReport("family", tuple(lines), EXIT_REFUTED)
        lines.append(("evidence", f"supported up to window {indices[-1]}"))
    else:
        lines.append(("evidence", "reported"))
    return RunReport("family", tuple(lines), EXIT_OK)


def _cmd_hypergraph(args) -> RunReport:
    text = _read_text(args.input)
    lines = [("command", "hypergraph"), ("input_sha256", _digest(text))]
    if args.menger:
        try:
            a_part, b_part = args.menger.split(";")
        except ValueError:
            raise ValueError("--menger expects 'a,b;c,d'") from None
        graph = parse_digraph(text)
        a_set = frozenset(t for t in a_part.split(",") if t)
        b_set = frozenset(t for t in b_part.split(",") if t)
        unknown = (a_set | b_set) - graph.vertices
        if unknown:
            raise ValueError(f"--menger names unknown vertices: {', '.join(sorted(unknown))}")
        hyper = menger_hypergraph(graph, a_set, b_set, args.cap)
        lines.append(("mode", "menger"))
    else:
        hyperedges, declared = [], []
        for lineno, tokens in _lines(text):
            if tokens[0].startswith("%"):
                declared.append(_declared_vertex(lineno, tokens))
            else:
                hyperedges.append(tokens)
        hyper = Hypergraph.from_edges(hyperedges, vertices=declared)
        lines.append(("mode", "hyperedges"))
    lines.append(("vertices", str(len(hyper.vertices))))
    lines.append(("hyperedges", str(len(hyper.hyperedges))))
    lines.append(("fin_check", "true" if fin_parameter_check(hyper) else "false"))
    pair = konig_property(hyper)
    if pair is None:
        lines.append(("konig", "absent"))
    else:
        lines.append(("konig", "present"))
        lines.append(("matching_size", str(len(pair.matching))))
        for m in pair.matching:
            lines.append(("matching_member", _shore_label(m)))
        lines.append(("cover", _shore_label(pair.cover)))
    return RunReport("hypergraph", tuple(lines), EXIT_OK)


def _random_digraph(rng: random.Random, max_n: int = 5, max_extra: int = 4) -> Digraph:
    """A random spanning tree, each edge in a random direction, plus a few
    random edges: always weakly connected."""
    n = rng.randint(2, max_n)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        pair = (names[j], names[i])
        edges.append(pair if rng.random() < 0.5 else (pair[1], pair[0]))
    for _ in range(rng.randint(0, max_extra)):
        t, h = rng.sample(names, 2)
        edges.append((t, h))
    return Digraph.from_edges(edges)


def _brute_dicuts(digraph: Digraph) -> list:
    found = []
    verts = sorted(digraph.vertices)
    for r in range(1, len(verts)):
        for shore in combinations(verts, r):
            d = dicut_from_shore(digraph, frozenset(shore))
            if d is not None and not d.is_empty:
                found.append(d)
    return found


def _cmd_selftest(args) -> RunReport:
    rng = random.Random(args.seed)
    lines = [("command", "selftest"), ("input_sha256", _digest(str(args.seed)))]
    checks = 0
    for _ in range(40):
        digraph = _random_digraph(rng)
        brute = _brute_dicuts(digraph)
        fast = enumerate_dicuts(digraph, args.cap)
        if {d.shore_mask for d in brute} != {d.shore_mask for d in fast}:
            raise VerificationFailed("selftest: dicut enumeration mismatch")
        brute_bonds = {d.shore_mask for d in brute if d.is_dibond}
        fast_bonds = {d.shore_mask for d in enumerate_dibonds(digraph, args.cap)}
        if brute_bonds != fast_bonds:
            raise VerificationFailed("selftest: dibond enumeration mismatch")
        for d in fast:
            parts = decompose_dicut(d)
            union = 0
            for p in parts:
                union |= p.edge_mask
            if union != d.edge_mask:
                raise VerificationFailed("selftest: decomposition does not cover the dicut")
        checks += 1
    lines.append(("suite_enumeration", f"ok ({checks} digraphs)"))
    solved = 0
    for _ in range(25):
        digraph = _random_digraph(rng)
        # The listed reference: solved by searching its members, not by
        # the branching or cutting planes.
        klass = DibondClass._known(digraph, tuple(_sorted_dibonds(digraph, args.cap)), True)
        if len(klass) == 0:
            continue
        pair = nested_optimal_pair(digraph, klass)
        if pair is None:
            raise VerificationFailed("selftest: missing optimal pair")
        # The implicit full class, solved by the branching or by cutting
        # planes, must give a pair of the listed pair's size that is
        # optimal for the listed class.
        implicit = nested_optimal_pair(digraph)
        try:
            verify_optimal_pair(digraph, klass, implicit)
        except VerificationFailed:
            implicit = None
        if implicit is None or len(implicit.dijoin) != len(pair.dijoin):
            raise VerificationFailed("selftest: implicit solver disagrees with the listing")
        hyper = dibond_hypergraph(digraph, args.cap)
        kp = konig_property(hyper)
        if kp is None or len(kp.matching) != len(pair.family):
            raise VerificationFailed("selftest: hypergraph does not mirror the solver")
        if not fin_parameter_check(hyper):
            raise VerificationFailed("selftest: parameter check failed")
        solved += 1
    lines.append(("suite_solver", f"ok ({solved} digraphs)"))
    w = window(get_family("ladder"), 3)
    if len(finite_dibonds_in_window(w, args.cap)) != 0:
        raise VerificationFailed("selftest: ladder window has a dicut")
    wz = window(get_family("zigzag_d1"), 3)
    if not check_finitary_dijoin(wz, "diagonals", args.cap)[0]:
        raise VerificationFailed("selftest: diagonals miss a window dibond")
    lines.append(("suite_families", "ok (2 windows)"))
    lines.append(("selftest", "pass"))
    return RunReport("selftest", tuple(lines), EXIT_OK)


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "solve": _cmd_solve,
    "uncross": _cmd_uncross,
    "quotient": _cmd_quotient,
    "blocks": _cmd_blocks,
    "family": _cmd_family,
    "hypergraph": _cmd_hypergraph,
    "selftest": _cmd_selftest,
}


def _cap(text: str) -> int:
    """A --cap value: a member count, so a negative one is a usage error."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later
    command of the process: parse_args keeps no state on it, and each help
    text is formatted when it is printed."""
    parser = argparse.ArgumentParser(
        prog="dicuts",
        description="exact minimum dijoins, disjoint dicut packings, and window harnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input: bool = True):
        if needs_input:
            p.add_argument("--input", default="-", help="edge list file, or - for stdin")
        p.add_argument(
            "--cap", type=_cap, default=DEFAULT_CAP,
            help="most members a listing may hold; solve and uncross list none "
                 "unless their certificate search falls back to the full class, "
                 "blocks lists none and ignores it, "
                 "and a family nested: check lists only for a set that is no dijoin",
        )

    p = sub.add_parser("enumerate", help="list dicuts or dibonds")
    add_common(p)
    p.add_argument("--kind", choices=("dicuts", "dibonds"), default="dibonds")

    p = sub.add_parser("solve", help="minimum dijoin and maximum disjoint dicuts")
    add_common(p)
    p.add_argument("--class-file", help="optional dibond class as in-shore lines")

    p = sub.add_parser("uncross", help="make an optimal pair nested")
    add_common(p)
    p.add_argument("--class-file")
    p.add_argument("--dijoin", help="edge list file for the dijoin")
    p.add_argument("--family", help="in-shore lines for the disjoint family")

    p = sub.add_parser("quotient", help="quotient by the cuts of a class file")
    add_common(p)
    p.add_argument("--class-file")
    p.add_argument("--export", help="write the quotient digraph to this path")

    p = sub.add_parser("blocks", help="2-block tree and split-solve-merge")
    add_common(p)

    p = sub.add_parser("family", help="window checks for a built-in family")
    add_common(p, needs_input=False)
    p.add_argument("--name")
    p.add_argument("--window", type=int, help="single window index")
    p.add_argument("--nmax", type=int, default=8, help="sweep windows 1..nmax")
    p.add_argument("--check")
    p.add_argument("--export", help="write the largest window digraph here")

    p = sub.add_parser("hypergraph", help="Koenig property of a hypergraph")
    add_common(p)
    p.add_argument("--menger", help="'a,b;c,d' builds the path hypergraph of the input graph")

    p = sub.add_parser("selftest", help="cross-check the solvers against brute force")
    add_common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    return parser


def run(command: str, flags: Optional[dict] = None) -> RunReport:
    """Execute one pipeline programmatically; flags use argparse dest names.

    A command line that does not parse raises ValueError naming the command
    and the flags; argparse's own message goes to stderr."""
    argv = [command]
    for key, value in (flags or {}).items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.extend([flag, str(value)])
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        raise ValueError(f"usage error in {command!r} with flags {flags or {}!r}") from None
    return _dispatch(args)


def _dispatch(args) -> RunReport:
    report = _HANDLERS[args.command](args)
    if args.command == "family" and args.export:
        _export_family(args)
    return report


def _export_family(args) -> None:
    spec = get_family(args.name)
    idx = args.window if args.window is not None else args.nmax
    w = window(spec, idx)
    with open(args.export, "w", encoding="utf-8") as fh:
        fh.write(serialize_digraph(w.digraph))
    groups: dict = {}
    for sym, cls in sorted(w.class_map.items()):
        groups.setdefault(cls, []).append(sym)
    with open(args.export + ".classes", "w", encoding="utf-8") as fh:
        for cls in sorted(groups):
            fh.write(f"class {cls} {' '.join(groups[cls])}\n")


def main(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which would collide with
        # the refuted-claim exit code; fold those into the error code.
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        report = _dispatch(args)
    except (DicutsError, ValueError, OSError) as exc:
        sys.stdout.write(f"command: {args.command}\nerror: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
