"""Per-layer metrics of a traced pass, computed from the tracer's spans.

Every metric has a base: the traced function whose calls it describes. When
the base was never called on a workload the metric is reported as 0 and
listed as not applicable.
"""
from __future__ import annotations

from collections import Counter, defaultdict

from workloads import PRECISION

# checker name -> span name; two checkers live outside bounds.py
CHECKERS = {
    "liouville_selfreciprocal": "bounds.liouville_selfreciprocal",
    "dubickas_selfreciprocal_rhs": "bounds.dubickas_selfreciprocal_rhs",
    "general_separation": "bounds.general_separation",
    "jensen_disk_rhs": "bounds.jensen_disk_rhs",
    "lower1_bounds": "bounds.lower1_bounds",
    "corollary_bounds": "bounds.corollary_bounds",
    "schinzel_lower": "bounds.schinzel_lower",
    "realzero_upper_com": "bounds.realzero_upper_com",
    "realzero_upper_length": "bounds.realzero_upper_length",
    "lemmaK_check": "bounds.lemmaK_check",
    "zhang_zagier_check": "bounds.zhang_zagier_check",
    "around1_report": "bounds.around1_report",
    "norm_chain_check": "measure.norm_chain_check",
    "count_outside_radius": "rootfind.count_outside_radius",
}


class _Stats:
    """Span aggregates by name and by (name, calling namespace)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.self_s = tracer.self_times()
        self.calls = Counter(tracer.names)
        self.calls_by = Counter(zip(tracer.names, tracer.callers))
        self.total_self = defaultdict(float)
        self.self_by = defaultdict(float)
        self.duration = defaultdict(float)
        for i, name in enumerate(tracer.names):
            self.total_self[name] += self.self_s[i]
            self.self_by[name, tracer.callers[i]] += self.self_s[i]
            self.duration[name] += tracer.ends[i] - tracer.starts[i]

    def notes(self, name):
        return [v for i, v in self.tracer.notes.items() if self.tracer.names[i] == name]

    def raised_here(self, prefix: str) -> int:
        """Spans under ``prefix`` that raised an exception none of their
        children raised: each error counted once, where it began."""
        t = self.tracer
        child_raised = {p for i, p in enumerate(t.parents) if t.raised[i] and p >= 0}
        return sum(
            1 for i, name in enumerate(t.names)
            if t.raised[i] and name.startswith(prefix) and i not in child_raised
        )

    def child_calls(self, parent_name: str, child_name: str) -> Counter:
        """Per parent span: the number of its direct children named ``child_name``."""
        t = self.tracer
        out = Counter()
        for i, name in enumerate(t.names):
            p = t.parents[i]
            if name == child_name and p >= 0 and t.names[p] == parent_name:
                out[p] += 1
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def definitions(items: int, records: int, overhead_ratio: float):
    """(name, unit, base span or None, value function of _Stats) per metric."""
    c = lambda name: lambda s: s.calls[name]  # noqa: E731
    self_s = lambda name: lambda s: s.total_self[name]  # noqa: E731
    roots = "rootfind.roots"
    graeffe = "measure.mahler_graeffe"
    defs = [
        ("rootfind.roots.calls", "count", roots, c(roots)),
        ("rootfind.roots.calls_per_item", "1/item", roots, lambda s: _ratio(s.calls[roots], items)),
        ("rootfind.roots.self_s", "s", roots, self_s(roots)),
        ("rootfind.roots.escalated_calls", "count", roots,
         lambda s: sum(1 for bits in s.notes(roots) if bits > PRECISION)),
        ("rootfind.roots.max_bits", "bits", roots, lambda s: max(s.notes(roots), default=0)),
        ("rootfind.count_in_disk.retries", "count", "rootfind.count_in_disk",
         lambda s: sum(s.notes("rootfind.count_in_disk"))),
        ("rootfind.errors", "count", roots, lambda s: s.raised_here("rootfind.")),
        ("measure.mahler.calls", "count", "measure.mahler", c("measure.mahler")),
        ("measure.mahler_from_roots.calls", "count", "measure.mahler_from_roots",
         c("measure.mahler_from_roots")),
        ("measure.mahler_from_roots.self_s", "s", "measure.mahler_from_roots",
         self_s("measure.mahler_from_roots")),
        ("measure.sup_norm_circle.calls", "count", "measure.sup_norm_circle",
         c("measure.sup_norm_circle")),
        ("measure.sup_norm_circle.self_s", "s", "measure.sup_norm_circle",
         self_s("measure.sup_norm_circle")),
        ("measure.mahler_graeffe.self_s", "s", graeffe, self_s(graeffe)),
    ]
    for caller in ("search", "bounds", "cli"):
        defs.append((f"measure.mahler_graeffe.{caller}_self_s", "s", (graeffe, caller),
                     lambda s, caller=caller: s.self_by[graeffe, caller]))
    for fn in ("cyclotomic_factor", "irreducibility_probe", "classify_E_theta", "is_squarefree"):
        name = f"structure.{fn}"
        defs.append((f"{name}.calls", "count", name, c(name)))
        defs.append((f"{name}.self_s", "s", name, self_s(name)))
    # classify_E_theta calls mahler once, then once more per escalation
    defs.append(("structure.classify_E_theta.escalations", "count", "structure.classify_E_theta",
                 lambda s: sum(n - 1 for n in s.child_calls(
                     "structure.classify_E_theta", "measure.mahler").values())))
    defs.append(("bounds.verify_all.self_s", "s", "bounds.verify_all", self_s("bounds.verify_all")))
    for checker, name in CHECKERS.items():
        defs.append((f"bounds.{checker}.self_s", "s", name, self_s(name)))
    defs.append(("bounds.solve_constants.calls", "count", "bounds.solve_constants",
                 c("bounds.solve_constants")))
    enum = "search.enumerate_selfreciprocal"
    exact = ("measure.mahler", "search")
    defs += [
        ("search.candidates", "count", "search.search_min_mahler",
         lambda s: s.tracer.yields.get(enum, 0)),
        ("search.prefilter.reject_ratio", "ratio", (graeffe, "search"),
         lambda s: 1.0 - _ratio(s.calls_by["structure.cyclotomic_factor", "search"],
                                s.calls_by[graeffe, "search"])),
        ("search.exact_path.calls", "count", "search.search_min_mahler",
         lambda s: s.calls_by[exact]),
        ("search.records_per_exact_call", "ratio", exact,
         lambda s: _ratio(records, s.calls_by[exact])),
        ("corpusio.parse_corpus.s", "s", "corpusio.parse_corpus",
         lambda s: s.duration["corpusio.parse_corpus"]),
        ("corpusio.emit_report.s", "s", "corpusio.emit_report",
         lambda s: s.duration["corpusio.emit_report"]),
        ("corpusio.report_bytes", "bytes", "corpusio.emit_report",
         lambda s: sum(s.notes("corpusio.emit_report"))),
        ("polycore.divmod.calls", "count", "polycore.divmod", c("polycore.divmod")),
        ("polycore.divmod.self_s", "s", "polycore.divmod", self_s("polycore.divmod")),
        ("trace.overhead_ratio", "ratio", None, lambda s: overhead_ratio),
    ]
    return defs


def layer_metrics(tracer, items: int, records: int, overhead_ratio: float):
    """({name: {"value", "unit"}}, [names not applicable on this workload])."""
    stats = _Stats(tracer)
    metrics, not_applicable = {}, []
    for name, unit, base, value in definitions(items, records, overhead_ratio):
        called = True
        if isinstance(base, tuple):
            called = stats.calls_by[base] > 0
        elif base is not None:
            called = stats.calls[base] > 0
        metrics[name] = {"value": value(stats) if called else 0, "unit": unit}
        if not called:
            not_applicable.append(name)
    return metrics, not_applicable


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    return {name: unit for name, unit, _, _ in definitions(1, 0, 1.0)}
