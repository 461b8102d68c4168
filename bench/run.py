"""Seeded end-to-end benchmark of the dicuts package.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs one workload (or `all`, one subprocess each) in one process and one
thread, as a closed loop with one client: each op starts when the
previous one has returned, like a researcher running one command at a
time. A pass runs the workload's fixed op list once; a run makes passes
until --seconds have gone by, and at least MIN_PASSES. Every op is
judged by an oracle outside its timed region.

End-to-end times are scaled to a reference machine speed. Before every
op (and after the last) the runner times a fixed pure-Python reference
kernel that does not touch the package; each op's time is multiplied by
REF_SECONDS over the median of the kernel times around it, and each
set-up likewise by the kernel times just before it. The shared
machines this runs on change speed by up to 50% for tens of seconds at
a time, and the kernel slows down with them, so the scaled times hold
still where the raw ones do not. Raw pass times are printed too.

--trace 0 prints the end-to-end metrics of the workload. --trace 1
instead runs, for each of the three workloads, an untraced, a traced and
another untraced pass and prints the per-layer metrics of every workload
(see spans.py) plus the tracing overhead; spans are written to
.bench_work/spans-seed<seed>.jsonl. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The design
and the recorded failures are described in bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TABLES = os.path.join(BENCH, "expected.json")

MIN_PASSES = 3
SETUP_REPEATS = 5
# The reference kernel's time at the speed the scaled times refer to: its
# median on the machine the benchmark was built on, in a fast period.
REF_SECONDS = 1.5e-3


def reference_kernel() -> int:
    """Fixed work of the package's kind (dicts, frozensets, sorting), ~1.5 ms."""
    table = {}
    for i in range(1500):
        table[(i * 7919) % 4093] = frozenset((i, i + 1, i % 17))
    union = set()
    for members in table.values():
        union |= members
    return len(sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))) + len(union)


def kernel_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def set_up(workload: str, seed: int, workdir: str, tables: dict, repeats: int) -> tuple:
    """Import dicuts afresh and build the op list, `repeats` times.

    Returns the package, the ops and the median set-up time, each scaled
    by the median of five kernel times taken just before it."""
    times = []
    for _ in range(repeats):
        scale = REF_SECONDS / statistics.median(kernel_seconds() for _ in range(5))
        start = perf_counter()
        for name in [m for m in sys.modules if m == "dicuts" or m.startswith("dicuts.")]:
            del sys.modules[name]
        dicuts = importlib.import_module("dicuts")
        ops = workloads.build(workload, dicuts, seed, workdir, tables)
        times.append((perf_counter() - start) * scale)
    return dicuts, ops, statistics.median(times)


def run_pass(workload: str, ops: list, dicuts, tracer=None) -> list:
    """[(op name, seconds, scaled seconds, outcome, reason)] for one pass."""
    gc.collect()
    results, kernel = [], []
    for op in ops:
        kernel.append(kernel_seconds())
        if tracer is not None:
            tracer.op = op.name
        result = None
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # every failure is data, classified below
            elapsed = perf_counter() - start
            outcome, reason = workloads.classify(dicuts, exc), repr(exc)[:200]
        else:
            elapsed = perf_counter() - start
            try:
                outcome, reason = op.judge(result)
            except Exception as exc:  # a result the oracle cannot even read
                outcome, reason = "wrong", f"unreadable result: {exc!r}"
        if tracer is not None and workload == "cli_reports" and result is not None:
            tracer.counts["cli.report_lines"] += result[1].count("\n")
            tracer.counts["cli.report_bytes"] += len(result[1].encode())
        results.append((op.name, elapsed, outcome, reason))
    kernel.append(kernel_seconds())
    # Kernel runs i-3 .. i+4 surround op i: a long op is scaled by the
    # speed of its own moment, and the median damps single-run noise.
    return [(name, elapsed, elapsed * REF_SECONDS / statistics.median(kernel[max(0, i - 3):i + 5]),
             outcome, reason)
            for i, (name, elapsed, outcome, reason) in enumerate(results)]


def raw_wall(results: list) -> float:
    return sum(r[1] for r in results)


def scaled_wall(results: list) -> float:
    return sum(r[2] for r in results)


def percentile(ranked: list, q: float) -> tuple:
    """Nearest-rank percentile of (failed, seconds) pairs; failures rank slowest."""
    rank = max(1, math.ceil(q * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def outcome_report(workload: str, passes: list) -> tuple:
    """(attempted, failed, correct, outcome counts, failed-op lines)."""
    counts = Counter(r[3] for p in passes for r in p)
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    correct, lines, seen = True, [], set()
    for p in passes:
        for name, _, _, outcome, reason in p:
            if outcome == "ok" or (name, outcome) in seen:
                continue
            seen.add((name, outcome))
            known = outcome != "wrong" and workloads.known_failure(workload, name, outcome)
            correct = correct and known
            note = "known defect" if known else f"UNEXPECTED: {reason}"
            lines.append(f"  failed op {name}: {outcome} ({note})")
    return attempted, failed, correct, counts, sorted(lines)


def measure(workload: str, seed: int, seconds: float, tables: dict, workdir: str) -> dict:
    dicuts, ops, setup_s = set_up(workload, seed, workdir, tables, SETUP_REPEATS)
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(workload, ops, dicuts))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_op = {}
    for results in passes:
        for name, _, scaled, outcome, _ in results:
            times, failed = per_op.get(name, ([], False))
            per_op[name] = (times + [scaled], failed or outcome != "ok")
    ranked = sorted((failed, statistics.median(times)) for times, failed in per_op.values())
    (p50_failed, p50), _ = percentile(ranked, 0.5)
    (p90_failed, p90), beyond = percentile(ranked, 0.9)
    attempted, failed, correct, counts, lines = outcome_report(workload, passes)
    metrics = {
        "wall_s": (statistics.median(scaled_wall(p) for p in passes), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ok_frac": (counts["ok"] / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {workload}, seed {seed}: {len(passes)} passes of {len(ops)} ops, "
          "one process, one thread, closed loop with one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  failed_frac  {failed / attempted:.6g} ratio")
    print("  pass walls   raw " + " ".join(f"{raw_wall(p):.4f}" for p in passes)
          + " s, scaled " + " ".join(f"{scaled_wall(p):.4f}" for p in passes) + " s")
    print(f"  op_p90_ms has {beyond} of {len(ranked)} ops ranked above it"
          + ("; a percentile falls on a failed op, whose own time is reported"
             if p50_failed or p90_failed else ""))
    print(f"  attempted {attempted}, failed {failed}: "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print("\n".join(lines) if lines else "  no failed ops")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(seed: int, tables: dict, workdir: str) -> dict:
    """Per-layer metrics of every workload from one traced pass each."""
    span_path = os.path.join(WORK, f"spans-seed{seed}.jsonl")
    if os.path.exists(span_path):
        os.remove(span_path)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads.WORKLOADS:
        dicuts, ops, _ = set_up(workload, seed, os.path.join(workdir, workload), tables, 1)
        # Untraced passes on both sides of the traced one, so that warm-up
        # and drift do not pass for tracing overhead.
        before = run_pass(workload, ops, dicuts)
        tracer = spans.Tracer(dicuts)
        tracer.install()
        try:
            with_spans = run_pass(workload, ops, dicuts, tracer)
        finally:
            tracer.uninstall()
        after = run_pass(workload, ops, dicuts)
        plain_s = (scaled_wall(before) + scaled_wall(after)) / 2
        n, k, ok, counts, lines = outcome_report(workload, [before, with_spans, after])
        attempted, failed, correct = attempted + n, failed + k, correct and ok
        extra = {"trace_overhead_s": scaled_wall(with_spans) - plain_s, "failed_frac": k / n}
        layer = tracer.layer_metrics(workload, extra)
        tracer.dump(span_path, workload)
        print(f"workload {workload}, seed {seed}: raw pass times, traced {raw_wall(with_spans):.4f} s, "
              f"untraced {raw_wall(before):.4f} s and {raw_wall(after):.4f} s, "
              f"{len(tracer.spans)} spans")
        for name, m in layer.items():
            print(f"  {name:<58} {m['value']:.6g} {m['unit']}")
        print(f"  attempted {n}, failed {k}: "
              + " ".join(f"{c}={v}" for c, v in sorted(counts.items())))
        print("\n".join(lines) if lines else "  no failed ops")
        metrics.update(layer)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dicuts", "__init__.py")):
        print(f"error: no dicuts package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(TABLES, encoding="utf-8") as fh:
        tables = json.load(fh)

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        if args.trace:
            result = traced(args.seed, tables, workdir)
        elif args.workload == "all":
            result = run_all(args)
        else:
            result = measure(args.workload, args.seed, args.seconds, tables, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
