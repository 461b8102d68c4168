"""The ops of each workload: a timed call into the package plus its judge.

An op's `run` starts from plain data, so building the Digraph, parsing a
file or building a window is inside the timed call. Every name is looked
up on the package at call time, so the traced run's wrappers apply.
`judge` runs outside the timed region and returns (outcome, reason),
where outcome is `ok`, `wrong`, `DicutsError:<type>` or
`exception:<type>`.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable, Optional

import corpus
import oracles

WORKLOADS = ("solve", "window_sweep", "cli_reports")

# Ops that fail at the commit the tables were recorded at: the ROADMAP
# reproducers and the zigzag windows whose recursion passes the default
# limit. Random-DAG ops may also fail with DualityGapDetected (the
# unsound packing bound); which ones depends on the seed.
NAMED_FAILURES = {
    "solve": ("repro-gap6", "repro-isolated", "zigzag-50", "zigzag-60"),
    "window_sweep": (),
    "cli_reports": ("solve-repro-gap6", "solve-repro-isolated",
                    "solve-zigzag50", "solve-zigzag60"),
}
RANDOM_DAG_PREFIXES = ("dag-", "solve-dag", "uncross-dag")
GAP = "DicutsError:DualityGapDetected"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple]
    # What record.py stores under the op's name, for ops judged by a table.
    summary: Optional[Callable[[object], object]] = None


def classify(dicuts, exc: BaseException) -> str:
    if isinstance(exc, dicuts.DicutsError):
        return f"DicutsError:{type(exc).__name__}"
    return f"exception:{type(exc).__name__}"


def known_failure(workload: str, name: str, outcome: str) -> bool:
    """Whether a failed op is one of the defects recorded at this commit."""
    return name in NAMED_FAILURES[workload] or (
        name.startswith(RANDOM_DAG_PREFIXES) and outcome == GAP)


def _verdict(reason):
    return ("ok", None) if reason is None else ("wrong", reason)


# ------------------------------------------------------------------ solve

def solve_ops(dicuts, seed: int, workdir: str, tables: dict) -> list:
    ops = []
    for name, edges, isolated in corpus.solve_corpus(seed):
        vertices = oracles.vertices_of(edges, isolated)

        def run(edges=edges, isolated=isolated):
            digraph = dicuts.Digraph.from_edges(edges, isolated)
            return dicuts.nested_optimal_pair(digraph, dicuts.DibondClass.full(digraph))

        def judge(pair, edges=edges, vertices=vertices):
            if pair is None:
                return "wrong", "no optimal pair on the full class"
            return _verdict(oracles.check_optimal_pair(
                vertices, edges, sorted(pair.dijoin), [m.in_shore for m in pair.family]))

        ops.append(Op(name, run, judge))
    return ops


# ----------------------------------------------------------- window_sweep

def _window_op(dicuts, family: str, check: str, n: int, tables: dict) -> Op:
    key = f"{family}/{check}/{n}"
    edges, named = corpus.WINDOWS[family](n)
    vertices = oracles.vertices_of(edges)
    kind, _, arg = check.partition(":")

    def spec():
        return dicuts.get_family(family)

    def from_table(summary):
        def judge(result):
            got = summary(result)
            want = tables.get(key)
            if got != want:
                return "wrong", f"{got!r} != recorded {want!r}"
            return "ok", None
        return judge

    if kind == "finitary":
        def run():
            return dicuts.check_finitary_dijoin(dicuts.window(spec(), n), arg)

        def judge(result):
            hits_all, miss = result
            if hits_all != oracles.meets_every_dicut(vertices, edges, named[arg]):
                return "wrong", f"verdict {hits_all} contradicts the D/F strong-connectivity test"
            if not hits_all:
                cut = oracles.entering(edges, miss.in_shore)
                if not cut or cut & named[arg]:
                    return "wrong", "the reported miss is not a dicut avoiding the set"
            return "ok", None

        return Op(key, run, judge)
    if kind == "nested":
        def run():
            return dicuts.nested_extension_search(dicuts.window(spec(), n), arg)

        def presence(selection):
            return "absent" if selection is None else "present"

        def judge(selection):
            if selection is None:
                return from_table(presence)(selection)
            return _verdict(oracles.check_selection(
                vertices, edges, named[arg], {e: b.in_shore for e, b in selection.items()}))

        return Op(key, run, judge, presence)
    if kind == "no-finite-dicut":
        def run():
            w = dicuts.window(spec(), n)
            return (len(dicuts.condensation(w.digraph).components),
                    len(dicuts.finite_dibonds_in_window(w)))

        def judge(result):
            # A strongly connected window has one SCC and no dicut at all.
            if not oracles.strongly_connected(vertices, edges) or result != (1, 0):
                return "wrong", f"(scc count, dibond count) {result}, expected (1, 0)"
            return "ok", None

        return Op(key, run, judge)
    if kind == "growth":
        def run():
            return dicuts.dibond_growth(spec(), arg, n)

        return Op(key, run, from_table(list), list)
    if kind == "compactness":
        def run():
            return dicuts.compactness_run(spec(), n)

        def summary(report):
            return [report.consistent, sorted(report.stable_dijoin or ()), report.unstable_at,
                    [[r.n, r.member_count, r.family_size, r.choice_count, r.thread_count]
                     for r in report.rows]]

        return Op(key, run, from_table(summary), summary)
    if kind == "coherence":
        def run():
            return dicuts.window_coherent(spec(), n, corpus.COHERENCE_TOP)

        return Op(key, run, from_table(bool), bool)
    raise ValueError(f"unknown check {check!r}")


def window_sweep_ops(dicuts, seed: int, workdir: str, tables: dict) -> list:
    return [_window_op(dicuts, family, check, n, tables)
            for family, check, n in corpus.window_sweep_corpus(seed)]


# ------------------------------------------------------------ cli_reports

def _read(workdir, path):
    with open(os.path.join(workdir, path), encoding="utf-8") as fh:
        return fh.read()


def _cli_judge(dicuts, name, kind, info, workdir, tables):
    """The check for one command's (exit code, stdout)."""
    if kind == "canonical":
        def check(rc, text):
            want = tables.get(name)
            return None if oracles.digest(f"{rc}\n{text}") == want else \
                f"report digest differs from the one recorded ({want})"
    elif kind == "enumerate":
        def check(rc, text):
            return oracles.check_enumerate_report(text, *info)
    elif kind == "pair":
        def check(rc, text):
            if "verified: true" not in text and "nested_after: true" not in text:
                return "report is neither verified nor uncrossed"
            return oracles.check_pair_report(text, *info)
    elif kind == "class-pair":
        edges, class_file = info
        shores = [line.split() for line in _read(workdir, class_file).splitlines()]

        def check(rc, text):
            return oracles.check_class_pair_report(text, edges, shores)
    elif kind == "blocks":
        def check(rc, text):
            return oracles.check_blocks_report(text, *info)
    elif kind == "konig":
        hyperedges = {frozenset(line.split()) for line in _read(workdir, info).splitlines()}

        def check(rc, text):
            return oracles.check_hypergraph_report(text, hyperedges)
    elif kind == "menger":
        def check(rc, text):
            return oracles.check_menger_report(text, *info)
    else:
        raise ValueError(f"unknown report kind {kind!r}")

    def judge(result):
        rc, text = result
        if rc == 1 and "\nerror: " in text:
            error_type = text.split("\nerror: ", 1)[1].split(":", 1)[0]
            cls = getattr(dicuts, error_type, None)
            is_refusal = isinstance(cls, type) and issubclass(cls, dicuts.DicutsError)
            return (f"DicutsError:{error_type}" if is_refusal else f"exception:{error_type}"), text
        if kind != "canonical" and rc != 0:
            return "wrong", f"exit code {rc}"
        return _verdict(check(rc, text))

    return judge


def cli_ops(dicuts, seed: int, workdir: str, tables: dict) -> list:
    files, commands = corpus.cli_corpus(seed)
    corpus.write_cli_files(files, workdir, dicuts)
    ops = []
    for name, kind, argv, info in commands:
        argv = [os.path.join(workdir, a) if a in files else a for a in argv]

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = dicuts.cli.main(argv)
            return rc, out.getvalue()

        judge = _cli_judge(dicuts, name, kind, info, workdir, tables)
        if kind == "canonical":
            ops.append(Op(name, run, judge,
                          lambda result: oracles.digest(f"{result[0]}\n{result[1]}")))
        else:
            ops.append(Op(name, run, judge))
    return ops


BUILDERS = {"solve": solve_ops, "window_sweep": window_sweep_ops, "cli_reports": cli_ops}


def build(workload: str, dicuts, seed: int, workdir: str, tables: dict) -> list:
    """The workload's op list; cli_reports also writes its input files."""
    return BUILDERS[workload](dicuts, seed, workdir, tables.get(workload, {}))
