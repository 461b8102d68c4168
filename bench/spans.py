"""Layer-boundary spans for the traced run.

`Tracer.install` replaces each boundary function listed below with a
wrapper, at every name it is bound to in the package's modules: the
defining module (so calls inside a module are seen too) and every module
that imports it, for example `dicuts.solver.enumerate_dibonds` and
`dicuts.cli.nested_optimal_pair`. `uninstall` puts the originals back,
so untraced passes run the unmodified package. The package is never
edited.

Each call records a span [name, start, end, parent span, op id]. Spans
stay in memory and are written out when the run ends. A span's self time
is its duration minus the durations of its direct child spans; a name's
busy time sums its spans that have no ancestor of the same name.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

LAYERS = ("core", "enumeration", "solver", "reduce", "hypergraph", "families", "cli")

# (module, attribute, span name); "Class.method" wraps a static method.
BOUNDARIES = (
    ("enumeration", "enumerate_dibonds", "enumeration.enumerate_dibonds"),
    ("enumeration", "enumerate_dicuts", "enumeration.enumerate_dicuts"),
    ("enumeration", "condensation", "enumeration.condensation"),
    ("solver", "DibondClass.full", "solver.class_build"),
    ("solver", "DibondClass.from_members", "solver.class_build"),
    ("solver", "min_dijoin", "solver.min_dijoin"),
    ("solver", "max_disjoint_dicuts", "solver.max_disjoint_dicuts"),
    ("solver", "uncross", "solver.uncross"),
    ("solver", "verify_optimal_pair", "solver.verify_optimal_pair"),
    ("solver", "optimal_pair", "solver.optimal_pair"),
    ("solver", "nested_optimal_pair", "solver.nested_optimal_pair"),
    ("core", "decompose_dicut", "core.decompose_dicut"),
    ("families", "window", "families.window"),
    ("families", "finite_dibonds_in_window", "families.finite_dibonds_in_window"),
    ("families", "check_finitary_dijoin", "families.check_finitary_dijoin"),
    ("families", "nested_extension_search", "families.nested_extension_search"),
    ("families", "compactness_run", "families.compactness_run"),
    ("families", "window_coherent", "families.window_coherent"),
    ("families", "dibond_growth", "families.dibond_growth"),
    ("reduce", "block_cut_tree", "reduce.block_cut_tree"),
    ("reduce", "split_solve_merge", "reduce.split_solve_merge"),
    ("reduce", "equivalence_classes", "reduce.equivalence_classes"),
    ("reduce", "contract_to", "reduce.contract_to"),
    ("hypergraph", "konig_property", "hypergraph.konig_property"),
    ("hypergraph", "fin_parameter_check", "hypergraph.fin_parameter_check"),
    ("hypergraph", "menger_hypergraph", "hypergraph.menger_hypergraph"),
    ("cli", "parse_digraph", "cli.parse_digraph"),
    ("cli", "main", "cli.main"),
)

# Called too often for a span each; only counted.
COUNTED = (("core", "meet", "core.meet_join.calls"), ("core", "join", "core.meet_join.calls"))

ALL = ("solve", "window_sweep", "cli_reports")
SOLVING = ("solve", "cli_reports")
SWEEP = ("window_sweep",)
CLI = ("cli_reports",)

# (metric, unit, workloads it is reported for). Each is reported only on
# the workloads that reach its layer, as `<workload>.<metric>`.
PER_LAYER = (
    ("enumeration.enumerate_dibonds.calls", "count", ALL),
    ("enumeration.enumerate_dibonds.busy_s", "s", ALL),
    ("enumeration.dibonds_emitted", "count", ALL),
    ("enumeration.dibonds_per_s", "1/s", ALL),
    ("enumeration.condensation.busy_s", "s", ALL),
    ("enumeration.enumerate_dicuts.busy_s", "s", CLI),
    ("enumeration.cap_exceeded", "count", ALL),
    ("solver.class_build.self_s", "s", SOLVING),
    ("solver.class_members", "count", SOLVING),
    ("solver.min_dijoin.busy_s", "s", SOLVING),
    ("solver.max_disjoint_dicuts.busy_s", "s", SOLVING),
    ("solver.uncross.busy_s", "s", SOLVING),
    ("solver.verify_optimal_pair.calls", "count", SOLVING),
    ("solver.verify_optimal_pair.busy_s", "s", SOLVING),
    ("solver.nested_optimal_pair.self_s", "s", SOLVING),
    ("solver.duality_gaps", "count", SOLVING),
    ("solver.recursion_errors", "count", SOLVING),
    ("core.decompose_dicut.calls", "count", CLI),
    ("core.decompose_dicut.busy_s", "s", CLI),
    ("core.meet_join.calls", "count", SOLVING),
    ("families.window.calls", "count", SWEEP),
    ("families.window.busy_s", "s", SWEEP),
    ("families.check_finitary_dijoin.self_s", "s", SWEEP),
    ("families.nested_extension_search.self_s", "s", SWEEP),
    ("families.compactness_run.self_s", "s", SWEEP),
    ("families.window_coherent.self_s", "s", SWEEP),
    ("families.dibond_cache_hit_ratio", "ratio", SWEEP),
    ("reduce.contract_to.calls", "count", SWEEP),
    ("reduce.contract_to.busy_s", "s", SWEEP),
    ("reduce.block_cut_tree.busy_s", "s", CLI),
    ("reduce.split_solve_merge.self_s", "s", CLI),
    ("reduce.equivalence_classes.busy_s", "s", CLI),
    ("hypergraph.konig_property.busy_s", "s", CLI),
    ("hypergraph.fin_parameter_check.busy_s", "s", CLI),
    ("hypergraph.menger_hypergraph.busy_s", "s", CLI),
    ("hypergraph.hyperedges", "count", CLI),
    ("cli.parse_digraph.busy_s", "s", CLI),
    ("cli.self_s", "s", CLI),
    ("cli.report_lines", "count", CLI),
    ("cli.report_bytes", "count", CLI),
    ("trace_overhead_s", "s", ALL),
    ("failed_frac", "ratio", ALL),
)


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self, dicuts):
        self.dicuts = dicuts
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._undo: list = []

    # ---------------------------------------------------------- wrapping

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if getattr(exc, "_bench_origin", None) is None:
                    exc._bench_origin = name
                    self.counts[f"raised:{name.split('.')[0]}:{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                record[2] = perf_counter()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _rebind(self, original, wrapper):
        modules = [self.dicuts] + [getattr(self.dicuts, m) for m in LAYERS]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def install(self) -> None:
        d = self.dicuts
        cap = d.enumeration.DEFAULT_CAP

        def emitted(result):
            self.counts["enumeration.dibonds_emitted"] += len(result)

        def members(result):
            self.counts["solver.class_members"] += len(result.members)

        def cache_lookup(args, kwargs):
            w, used = args[0], (args[1] if len(args) > 1 else kwargs.get("cap", cap))
            self.counts["families.dibond_cache.calls"] += 1
            self.counts["families.dibond_cache.hits"] += used in w._dibond_cache

        def hyperedges(args, kwargs):
            self.counts["hypergraph.hyperedges"] += len(args[0].hyperedges)

        hooks = {
            "enumeration.enumerate_dibonds": (None, emitted),
            "solver.class_build": (None, members),
            "families.finite_dibonds_in_window": (cache_lookup, None),
            "hypergraph.konig_property": (hyperedges, None),
        }
        for module, attr, name in BOUNDARIES:
            owner = getattr(d, module)
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._span(name, getattr(cls, method), before, after)
                self._set(cls, method, staticmethod(wrapper))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self._span(name, original, before, after))
        for module, attr, key in COUNTED:
            original = getattr(getattr(d, module), attr)
            self._rebind(original, self._count(key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ---------------------------------------------------------- summary

    def _times(self) -> tuple:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _op) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                busy[name] += end - start
        return calls, busy, own

    def layer_metrics(self, workload: str, extra: dict) -> dict:
        """Every per-layer metric of the workload, keyed `<workload>.<metric>`."""
        calls, busy, own = self._times()
        c = self.counts
        special = {
            "enumeration.dibonds_emitted": c["enumeration.dibonds_emitted"],
            "enumeration.dibonds_per_s": c["enumeration.dibonds_emitted"]
            / max(busy["enumeration.enumerate_dibonds"], 1e-9),
            "enumeration.cap_exceeded": c["raised:enumeration:CapExceeded"],
            "solver.class_members": c["solver.class_members"],
            "solver.duality_gaps": c["raised:solver:DualityGapDetected"],
            "solver.recursion_errors": c["raised:solver:RecursionError"],
            "core.meet_join.calls": c["core.meet_join.calls"],
            "families.dibond_cache_hit_ratio": c["families.dibond_cache.hits"]
            / max(c["families.dibond_cache.calls"], 1),
            "hypergraph.hyperedges": c["hypergraph.hyperedges"],
            "cli.self_s": own["cli.main"],
            "cli.report_lines": c["cli.report_lines"],
            "cli.report_bytes": c["cli.report_bytes"],
        }
        special.update(extra)
        out = {}
        for metric, unit, workloads in PER_LAYER:
            if workload not in workloads:
                continue
            if metric in special:
                value = special[metric]
            else:
                span, kind = metric.rsplit(".", 1)
                value = {"calls": calls, "busy_s": busy, "self_s": own}[kind][span]
            out[f"{workload}.{metric}"] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"workload": workload, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
