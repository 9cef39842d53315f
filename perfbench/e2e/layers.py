"""Span wrappers around each layer's public entry points.

:func:`install` replaces the entry points by wrappers that record a span
around the production function and returns an ``undo`` callable that puts
the originals back, so untraced units always run the unmodified program.
Names are patched where the caller looks them up: ``runner`` imports
``make_pair_workloads`` and ``build_bpu`` into its own namespace, the
executor resolves the case functions from ``runner`` at call time, the
service scheduler imports ``run_serial`` into its namespace, and the
caseless experiments are reached through the experiment registry.

:func:`summarise` turns the spans of the traced units into the per-layer
metrics of :mod:`.catalog`, as per-unit averages.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable, Dict, List

from . import catalog
from .spans import Tracer, self_times

#: Caseless experiments whose assembly re-runs attack simulations.
CASELESS_SPANS = {"table1": "attacks.table1",
                  "poc_attacks": "attacks.poc_attacks",
                  "ablation_pht_granularity": "attacks.pht_granularity"}


def _branches(result) -> int:
    return sum(thread.branches for thread in result.threads.values())


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; return the function that unwraps."""
    from repro.analysis import htmlreport, pareto
    from repro.cpu.core import SingleThreadCore
    from repro.cpu.smt import SmtCore
    from repro.experiments import pipeline, runner
    from repro.experiments.executor import SweepExecutor
    from repro.experiments.manifest import experiment_registry
    from repro.experiments.store import ResultStore
    from repro.service import scheduler
    from repro.service.scheduler import JobScheduler

    undo: List[Callable[[], None]] = []

    def wrap(owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                after(span, args, kwargs, result, state)
            return result

        setattr(owner, attr, wrapper)
        undo.append(lambda: setattr(owner, attr, original))

    def workload_key(span, args, kwargs, _result, _state) -> None:
        pair = args[0]
        seed = kwargs.get("seed", args[1] if len(args) > 1 else 0)
        span.attrs["population"] = f"{'+'.join(pair.benchmarks)}@{seed}"

    def core_name(kind: str):
        def after(span, _args, _kwargs, result, _state) -> None:
            span.name = f"cpu.{kind}_{result.predictor}"
            span.attrs["branches"] = _branches(result)
        return after

    def executor_before(args, _kwargs):
        executor = args[0]
        return (executor.simulated, executor.cache.store_hits,
                len(executor.failures))

    def executor_after(span, args, _kwargs, _result, state) -> None:
        executor = args[0]
        span.attrs["simulated"] = executor.simulated - state[0]
        span.attrs["store_hits"] = executor.cache.store_hits - state[1]
        span.attrs["failures"] = len(executor.failures) - state[2]

    def store_hit(span, _args, _kwargs, result, _state) -> None:
        span.attrs["hit"] = result is not None

    wrap(runner, "make_pair_workloads", "workloads.build",
         after=workload_key)
    wrap(runner, "build_bpu", "core.bpu_build")
    wrap(runner, "run_single_thread_case", "runner.case")
    wrap(runner, "run_smt_case", "runner.case")
    wrap(SingleThreadCore, "run", "cpu.st", after=core_name("st"))
    wrap(SmtCore, "run", "cpu.smt", after=core_name("smt"))
    wrap(SweepExecutor, "run_specs", "executor.run_specs",
         before=executor_before, after=executor_after)
    wrap(ResultStore, "put", "store.put")
    wrap(ResultStore, "get", "store.get", after=store_hit)
    wrap(pipeline, "run_serial", "pipeline.run_serial")
    wrap(scheduler, "run_serial", "pipeline.run_serial")
    wrap(pipeline, "assemble_experiment", "pipeline.assemble")
    wrap(pipeline, "write_outputs", "pipeline.write_outputs")
    wrap(htmlreport, "build_html_report", "analysis.report")
    wrap(htmlreport, "significance_matrix", "analysis.significance")
    wrap(pareto, "mechanism_profiles", "analysis.pareto")
    wrap(JobScheduler, "submit", "service.submit")

    registry = experiment_registry()
    for key, name in CASELESS_SPANS.items():
        original = registry[key]

        def assemble(scale, executor, _assemble=original.assemble,
                     _name=name):
            span = tracer.open(_name)
            try:
                return _assemble(scale, executor)
            finally:
                tracer.close(span)

        registry[key] = dataclasses.replace(original, assemble=assemble)
        undo.append(lambda key=key, original=original:
                    registry.__setitem__(key, original))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def tail(values: List[float]):
    """``(value, percentile)`` at the highest percentile of a fixed ladder
    with at least ten samples beyond it, or ``(max, 100)`` when no
    percentile of the ladder qualifies."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1.0 - percentile / 100.0) >= 10.0:
            rank = min(count - 1, int(count * percentile / 100.0))
            return ordered[rank], percentile
    return (ordered[-1], 100.0) if ordered else (0.0, 100.0)


def summarise(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics (per traced unit) from every recorded span."""
    spans = tracer.spans
    roots = tracer.roots()
    units = max(1, len(roots))
    own = self_times(spans)
    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) \
            + own[span.index]
        calls[span.name] = calls.get(span.name, 0) + 1

    def named(name: str) -> List:
        return [span for span in spans if span.name == name]

    metrics: Dict[str, float] = {metric.name: 0.0
                                 for metric in catalog.PER_LAYER}
    for span_name, metric in catalog.SPAN_METRICS.items():
        metrics[metric] = self_by_name.get(span_name, 0.0) / units

    builds = named("workloads.build")
    metrics["workloads.build_calls"] = len(builds) / units
    if builds:
        metrics["workloads.distinct_frac"] = len(
            {span.attrs["population"] for span in builds}) / len(builds)
    metrics["core.bpu_builds"] = calls.get("core.bpu_build", 0) / units

    for span_name in self_by_name:
        if not span_name.startswith("cpu."):
            continue
        seconds = self_by_name[span_name]
        branches = sum(span.attrs.get("branches", 0)
                       for span in named(span_name))
        if f"{span_name}.run_s" in metrics:
            metrics[f"{span_name}.run_s"] = seconds / units
            metrics[f"{span_name}.branches_per_s"] = \
                branches / seconds if seconds > 0 else 0.0

    cases = [span.duration * 1e3 for span in named("runner.case")]
    if cases:
        metrics["cpu.case_p50_ms"] = statistics.median(cases)
        metrics["cpu.case_tail_ms"] = tail(cases)[0]

    runs = named("executor.run_specs")
    for field in ("simulated", "store_hits", "failures"):
        metrics[f"executor.{field}"] = sum(
            span.attrs.get(field, 0) for span in runs) / units

    metrics["store.puts"] = calls.get("store.put", 0) / units
    gets = named("store.get")
    metrics["store.gets"] = len(gets) / units
    if gets:
        metrics["store.hit_ratio"] = sum(
            1 for span in gets if span.attrs.get("hit")) / len(gets)

    wall = sum(root.duration for root in roots)
    if wall > 0:
        metrics["trace.unattributed_frac"] = sum(
            own[root.index] for root in roots) / wall
    return metrics


def reconcile_error(tracer: Tracer) -> float:
    """|sum of every span's self time - traced wall time| / wall time.

    Zero when the span tree is well formed: children never outlive their
    parent and siblings never overlap."""
    roots = tracer.roots()
    wall = sum(root.duration for root in roots)
    if wall <= 0:
        return 0.0
    return abs(sum(self_times(tracer.spans).values()) - wall) / wall


def self_time_table(tracer: Tracer) -> List[tuple]:
    """``(span name, self seconds per unit, share of traced wall)`` rows,
    largest first; the root's self time is listed as ``unattributed``."""
    roots = tracer.roots()
    units = max(1, len(roots))
    wall = sum(root.duration for root in roots) or 1.0
    own = self_times(tracer.spans)
    totals: Dict[str, float] = {}
    for span in tracer.spans:
        name = "unattributed" if span.name == "unit" else span.name
        totals[name] = totals.get(name, 0.0) + own[span.index]
    return sorted(((name, seconds / units, seconds / wall)
                   for name, seconds in totals.items()),
                  key=lambda row: -row[1])
