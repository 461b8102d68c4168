"""Seeded plain inputs for the three workloads.

The benchmark builds its inputs here and hands the package only plain
data: edge tuples, argv lists and edge-list files. The family windows
are rebuilt from the closed forms in `dicuts.families` without calling
the package, so an oracle can judge a window verdict on a digraph the
package did not produce. The only package calls are in `write_cli_files`,
which takes the dibond edge sets of two fixed windows (for the
hypergraph inputs) and of two quotient sources (for the class files)
from `enumerate_dibonds`, then sorts them here so the files do not
depend on enumeration order.
"""

from __future__ import annotations

import os
import random

# The random DAGs have fixed shapes, drawn once from SHAPES; --seed
# relabels their vertices, reorders their edges and orders the ops. The
# edge order sets the edge ids, and so the branching order of the
# solvers, so each seed is a different input. Drawing new shapes per seed
# instead moved op_p90_ms of `solve` by 23% and op_p50_ms of `cli_reports`
# by 23% (quartile distance over median, ten seeds, with machine noise
# cancelled by interleaving the seeds op by op), beyond any usable bound;
# relabelling moved them by 7% and 6%.
SHAPES = "dicuts-bench-shapes"
# Vertex counts of the random DAGs of `solve`, and how many of each: the
# corpus is stratified by size because run time grows steeply with n.
SOLVE_SIZES = range(12, 25)
SOLVE_PER_SIZE = 20
ZIGZAG_SOLVE = (10, 20, 30, 40, 50, 60)

# The ROADMAP reproducers: a packing gap and a disconnected input.
REPRO_GAP = (("0", "1"), ("0", "4"), ("0", "5"), ("1", "2"), ("2", "3"),
             ("2", "4"), ("2", "5"), ("3", "4"), ("3", "5"))
REPRO_ISOLATED = ((("a", "b"),), ("c",))


# ---------------------------------------------------------------- windows

def zigzag_window(n: int) -> tuple:
    """Edges and named sets of zigzag_d1 window n, in the package's edge order."""
    edges = [(f"a{i}" if i < n else "rest", f"b{i}") for i in range(n + 1)]
    edges += [(f"a{i}", f"b{i + 1}") for i in range(n)]
    edges += [(f"b{i}", "rest") for i in range(n + 1)]
    verticals = frozenset(range(n + 1))
    spokes = frozenset(range(2 * n + 1, 3 * n + 2))
    named = {
        "verticals": verticals,
        "diagonals": frozenset(range(n + 1, 2 * n + 1)),
        "spokes": spokes,
        "verticals_and_first_spoke": verticals | {2 * n + 1},
        "spokes_without_first": spokes - {2 * n + 1},
    }
    return edges, named


def grid_window(n: int) -> tuple:
    """Edges and named sets of grid_d2 window n, in the package's edge order."""
    depth = max(2, -(-n // 5))
    core = {(x, y) for x in range(-n, n + 1)
            for y in range((x - 1) // 2, (x - 1) // 2 + depth + 1)}

    def in_plane(x, y):
        return x - 2 * y <= 2

    def survives(x, y):
        around = [(x, y + 1), (x - 1, y)]
        around += [p for p in ((x, y - 1), (x + 1, y)) if in_plane(*p)]
        return all(p in core for p in around)

    def name(v):
        return f"({v[0]},{v[1]})"

    cls = {v: name(v) if survives(*v) else "rest" for v in core}
    edges, ids = [], {}
    for x, y in sorted(core):
        for src in ((x, y + 1), (x - 1, y)):
            if src in core and cls[src] != cls[(x, y)]:
                ids[(src, (x, y))] = len(edges)
                edges.append((cls[src], cls[(x, y)]))
    drops, steps = set(), set()
    for k in range(-(n // 2) - 1, n // 2 + 2):
        drops.add(ids.get(((2 * k, k), (2 * k, k - 1))))
    for k in range(-(n + 1) // 2 - 1, (n + 1) // 2 + 2):
        steps.add(ids.get(((2 * k - 1, k - 1), (2 * k, k - 1))))
        steps.add(ids.get(((2 * k, k), (2 * k + 1, k))))
    named = {"vertical_drops": frozenset(drops - {None}),
             "horizontal_steps": frozenset(steps - {None})}
    return edges, named


def ladder_window(n: int) -> tuple:
    """Edges of ladder window n, in the package's edge order; no named sets."""
    def v(prefix, i):
        return "left" if i == -n else "right" if i == n else f"{prefix}{i}"

    edges = [(v("u", i), v("u", i + 1)) for i in range(-n, n)]
    edges += [(v("w", i + 1), v("w", i)) for i in range(-n, n)]
    edges += [(v("w", i), v("u", i)) for i in range(-n + 1, n)]
    return edges, {}


WINDOWS = {"zigzag_d1": zigzag_window, "grid_d2": grid_window, "ladder": ladder_window}


# ------------------------------------------------------------ random DAGs

def random_dag(rng: random.Random, n: int, extra: int) -> list:
    """A weakly connected DAG: a random spanning tree plus `extra` edges,
    every edge oriented along one random topological order."""
    rank = list(range(n))
    rng.shuffle(rank)

    def oriented(a, b):
        return (f"v{a}", f"v{b}") if rank[a] < rank[b] else (f"v{b}", f"v{a}")

    edges = [oriented(i, rng.randrange(i)) for i in range(1, n)]
    edges += [oriented(*rng.sample(range(n), 2)) for _ in range(extra)]
    return edges


def block_chain(rng: random.Random, blocks: int) -> tuple:
    """A DAG made of 2-connected blocks glued in a chain at cutvertices.

    Each block is an acyclically oriented cycle plus chords, so its
    underlying graph is 2-connected. Returns (edges, cutvertices).
    """
    edges, cutvertices, glue, fresh = [], [], "c0", 1
    for b in range(blocks):
        size = rng.randint(3, 6)
        ring = [glue] + [f"c{fresh + i}" for i in range(size - 1)]
        fresh += size - 1
        rank = {v: r for r, v in enumerate(rng.sample(ring, size))}
        pairs = [(ring[i], ring[(i + 1) % size]) for i in range(size)]
        if size > 3:
            for _ in range(rng.randint(0, 2)):
                i, j = sorted(rng.sample(range(size), 2))
                if j - i not in (1, size - 1):
                    pairs.append((ring[i], ring[j]))
        edges += [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs]
        if b < blocks - 1:
            glue = rng.choice(ring[1:])
            cutvertices.append(glue)
    return edges, frozenset(cutvertices)


def relabel(rng: random.Random, edges: list) -> tuple:
    """The same digraph under a random vertex naming and edge order.

    Returns (edges, mapping from old to new names)."""
    names = sorted({v for e in edges for v in e})
    mapping = dict(zip(names, (f"v{i}" for i in rng.sample(range(len(names)), len(names)))))
    edges = [(mapping[t], mapping[h]) for t, h in edges]
    rng.shuffle(edges)
    return edges, mapping


def edge_list_text(edges, isolated=()) -> str:
    """The CLI's edge-list format."""
    lines = [f"%vertex {v}" for v in isolated] + [f"{t} {h}" for t, h in edges]
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------- workloads

def solve_corpus(seed: int) -> list:
    """[(name, edges, isolated)] in seeded order."""
    shapes, rng = random.Random(f"{SHAPES}:solve"), random.Random(f"solve:{seed}")
    items = [(f"dag-n{n}-{k}", relabel(rng, random_dag(shapes, n, n))[0], ())
             for n in SOLVE_SIZES for k in range(SOLVE_PER_SIZE)]
    items += [(f"zigzag-{n}", zigzag_window(n)[0], ()) for n in ZIGZAG_SOLVE]
    items += [("repro-gap6", list(REPRO_GAP), ()),
              ("repro-isolated", list(REPRO_ISOLATED[0]), REPRO_ISOLATED[1])]
    rng.shuffle(items)
    return items


def window_sweep_corpus(seed: int) -> list:
    """[(family, check, n)] in seeded order; the checks themselves are fixed."""
    ops = []
    for s in ("vertical_drops", "horizontal_steps"):
        ops += [("grid_d2", f"finitary:{s}", n) for n in range(1, 10)]
        ops += [("grid_d2", f"nested:{s}", n) for n in range(1, 9)]
    ops.append(("grid_d2", "compactness", 6))
    for s in ("diagonals", "verticals_and_first_spoke"):
        ops += [("zigzag_d1", f"finitary:{s}", n) for n in range(1, 41)]
    ops += [("zigzag_d1", "nested:diagonals", n) for n in range(1, 31)]
    ops += [("zigzag_d1", "nested:verticals_and_first_spoke", n) for n in range(1, 13)]
    ops.append(("zigzag_d1", "growth:a0->b1", 40))
    ops.append(("zigzag_d1", "compactness", 10))
    ops += [("zigzag_d1", "coherence", m) for m in range(1, 31)]
    ops += [("ladder", "no-finite-dicut", n) for n in range(1, 51)]
    random.Random(f"window_sweep:{seed}").shuffle(ops)
    return ops


# The top window of the per-window coherence ops: window_coherent(spec, m, 30).
COHERENCE_TOP = 30

# Fixed commands of cli_reports. Together with the failing ones they fill
# the top tenth of op latencies, so op_p90_ms lands on fixed inputs of
# similar cost (about 0.1 s) whatever the seed.
ZIGZAG_CLI = (25, 30, 40, 50, 60)
FAMILY_COMMANDS = (
    ("zigzag_d1", "finitary:diagonals", 10),
    ("zigzag_d1", "finitary:diagonals", 20),
    ("grid_d2", "finitary:vertical_drops", 6),
    ("zigzag_d1", "nested:verticals_and_first_spoke", 8),
    ("grid_d2", "nested:horizontal_steps", 6),
    ("ladder", "coherence", 8),
    ("zigzag_d1", "compactness", 6),
)


def cli_corpus(seed: int) -> tuple:
    """(files, ops): files maps a relative path to its text or a build
    recipe, ops is [(name, kind, argv-with-relative-paths, info)]."""
    shapes, rng = random.Random(f"{SHAPES}:cli"), random.Random(f"cli_reports:{seed}")
    files, ops = {}, []

    def add_file(path, edges, isolated=()):
        files[path] = edge_list_text(edges, isolated)
        return path

    for n in ZIGZAG_CLI:
        add_file(f"zigzag{n}.txt", zigzag_window(n)[0])
    for n in (4, 6, 8):
        add_file(f"grid{n}.txt", grid_window(n)[0])
    add_file("zigzag10.txt", zigzag_window(10)[0])
    add_file("repro-gap6.txt", REPRO_GAP)
    add_file("repro-isolated.txt", *REPRO_ISOLATED)
    # Built from the package's dibonds at set-up; see write_cli_files.
    files["zigzag8.hyp"] = ("hypergraph", "zigzag_d1", 8)
    files["grid5.hyp"] = ("hypergraph", "grid_d2", 5)
    files["zigzag10.class"] = ("class", "zigzag_d1", 10, 3)
    files["grid4.class"] = ("class", "grid_d2", 4, 2)
    grid44 = [(f"p{r}{c}", f"p{r}{c + 1}") for r in range(4) for c in range(3)]
    grid44 += [(f"p{r}{c}", f"p{r + 1}{c}") for r in range(3) for c in range(4)]
    add_file("grid4x4.txt", grid44)

    for name in ("zigzag60", "grid8", "zigzag30", "grid6"):
        ops.append((f"enumerate-{name}", "canonical", ["enumerate", "--input", f"{name}.txt"], None))
    for k in range(32):
        n = shapes.randint(6, 10)
        edges = relabel(rng, random_dag(shapes, n, shapes.randint(n // 2, n)))[0]
        path = add_file(f"small{k}.txt", edges)
        kind = "dicuts" if k % 6 == 0 else "dibonds"
        ops.append((f"enumerate-small{k}", "enumerate",
                    ["enumerate", "--input", path, "--kind", kind], (edges, kind)))
    for k in range(30):
        n = shapes.randint(10, 16)
        edges = relabel(rng, random_dag(shapes, n, n))[0]
        path = add_file(f"dag{k}.txt", edges)
        ops.append((f"solve-dag{k}", "pair", ["solve", "--input", path], (edges, ())))
        if k < 10:
            ops.append((f"uncross-dag{k}", "pair", ["uncross", "--input", path], (edges, ())))
    for n in ZIGZAG_CLI:
        ops.append((f"solve-zigzag{n}", "pair", ["solve", "--input", f"zigzag{n}.txt"],
                    (zigzag_window(n)[0], ())))
    ops.append(("solve-repro-gap6", "pair", ["solve", "--input", "repro-gap6.txt"],
                (list(REPRO_GAP), ())))
    ops.append(("solve-repro-isolated", "pair", ["solve", "--input", "repro-isolated.txt"],
                REPRO_ISOLATED))
    for name, family, n in (("zigzag10", "zigzag_d1", 10), ("grid4", "grid_d2", 4)):
        ops.append((f"solve-class-{name}", "class-pair",
                    ["solve", "--input", f"{name}.txt", "--class-file", f"{name}.class"],
                    (WINDOWS[family](n)[0], f"{name}.class")))
        ops.append((f"quotient-{name}", "canonical",
                    ["quotient", "--input", f"{name}.txt", "--class-file", f"{name}.class"], None))
    for k in range(10):
        edges, cutvertices = block_chain(shapes, shapes.randint(3, 5))
        edges, mapping = relabel(rng, edges)
        cutvertices = frozenset(mapping[v] for v in cutvertices)
        path = add_file(f"chain{k}.txt", edges)
        ops.append((f"blocks-chain{k}", "blocks", ["blocks", "--input", path],
                    (edges, cutvertices)))
    for family, check, n in FAMILY_COMMANDS:
        ops.append((f"family-{family}-{check}-{n}", "canonical",
                    ["family", "--name", family, "--check", check, "--nmax", str(n)], None))
    for name in ("zigzag8", "grid5"):
        ops.append((f"hypergraph-{name}", "konig", ["hypergraph", "--input", f"{name}.hyp"],
                    f"{name}.hyp"))
    sides = "p00,p10,p20,p30;p03,p13,p23,p33"
    ops.append(("hypergraph-menger-grid4x4", "menger",
                ["hypergraph", "--input", "grid4x4.txt", "--menger", sides], (grid44, sides)))
    rng.shuffle(ops)
    return files, ops


def write_cli_files(files: dict, directory: str, dicuts) -> None:
    """Write the cli_reports inputs; recipes take dibonds from the package."""
    os.makedirs(directory, exist_ok=True)
    for path, spec in files.items():
        if isinstance(spec, tuple):
            kind, family, n = spec[:3]
            edges = WINDOWS[family](n)[0]
            digraph = dicuts.Digraph.from_edges(edges)
            bonds = sorted(dicuts.enumerate_dibonds(digraph),
                           key=lambda b: (len(b.in_shore), sorted(b.in_shore)))
            if kind == "hypergraph":
                lines = sorted(" ".join(f"e{e}" for e in sorted(b.edge_set)) for b in bonds)
            else:
                lines = [" ".join(sorted(b.in_shore)) for b in bonds[::spec[3]]]
            spec = "".join(line + "\n" for line in lines)
        with open(os.path.join(directory, path), "w", encoding="utf-8") as fh:
            fh.write(spec)
