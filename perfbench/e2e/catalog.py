"""The benchmark's metric catalogue.

Every metric the benchmark prints is declared here once, with its unit.
End-to-end metrics are what a user of ``repro`` sees; they are measured
with tracing off and carry the regression bound ``BENCHMARK.json`` fixes.
Per-layer metrics come from the separate traced run; each one names the
end-to-end metric it should move and the workload on which it should move
it (and, where a prediction exists, the workload on which it should not).

All timings are **host** time.  Simulated statistics (cycles,
mispredictions) are deterministic for a seed and are checked by the
correctness gate, never reported as metrics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS = ("st_tage", "smt_zoo", "warm_service")
COLD = ("st_tage", "smt_zoo")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    description: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    on: Tuple[str, ...]
    flat_on: Tuple[str, ...]
    description: str


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median host seconds of one unit of work: a cold sweep pass "
             "(st_tage, smt_zoo) or a warm job from submit until its report "
             "is received (warm_service)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "peak resident memory of the benchmark process plus the "
             "largest pool worker"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "set-up time: imports + build_manifest + store creation "
             "(median of repeats) for the cold workloads; imports + cold "
             "fill + server boot + warm-up job for warm_service"),
)


def _layer(name: str, unit: str, moves: str, on, flat_on=(),
           description: str = "", better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better, moves, tuple(on), tuple(flat_on),
                    description)


_SMT_PREDICTORS = ("tage_sc_l", "ltage", "tournament", "gshare")

PER_LAYER = (
    _layer("workloads.build_s", "s", "wall_s", COLD, ("warm_service",),
           "self time of make_pair_workloads"),
    _layer("workloads.build_calls", "count", "wall_s", COLD, ("warm_service",),
           "make_pair_workloads calls"),
    _layer("workloads.distinct_frac", "ratio", "wall_s", COLD,
           ("warm_service",),
           "distinct (pair, seed) populations / make_pair_workloads calls"),
    _layer("core.bpu_build_s", "s", "wall_s", COLD, (),
           "self time of runner.build_bpu (core.registry.make_bpu)"),
    _layer("core.bpu_builds", "count", "wall_s", COLD, (),
           "runner.build_bpu calls"),
    _layer("cpu.st_tage.run_s", "s", "wall_s", ("st_tage",), ("smt_zoo",),
           "self time of SingleThreadCore.run with TAGE (includes lazy "
           "trace generation)"),
    _layer("cpu.st_tage.branches_per_s", "1/s", "wall_s", ("st_tage",),
           ("smt_zoo",), "committed branches / cpu.st_tage.run_s",
           better="higher"),
) + tuple(
    layer
    for predictor in _SMT_PREDICTORS
    for layer in (
        _layer(f"cpu.smt_{predictor}.run_s", "s", "wall_s", ("smt_zoo",),
               ("st_tage",),
               f"self time of SmtCore.run with {predictor} (includes lazy "
               "trace generation)"),
        _layer(f"cpu.smt_{predictor}.branches_per_s", "1/s", "wall_s",
               ("smt_zoo",), ("st_tage",),
               f"committed branches / cpu.smt_{predictor}.run_s",
               better="higher"),
    )
) + (
    _layer("cpu.case_p50_ms", "ms", "wall_s", COLD, (),
           "median inclusive time of one simulated case (runner)"),
    _layer("cpu.case_tail_ms", "ms", "wall_s", COLD, (),
           "inclusive case time at the highest percentile with >= 10 "
           "cases beyond it"),
    _layer("runner.case_s", "s", "wall_s", COLD, (),
           "self time of run_single_thread_case / run_smt_case (glue "
           "between workload, BPU and core)"),
    _layer("executor.run_specs_s", "s", "wall_s", ("smt_zoo",), (),
           "self time of SweepExecutor.run_specs (dedupe, cache lookups, "
           "dispatch)"),
    _layer("executor.simulated", "count", "wall_s", COLD, (),
           "cases simulated"),
    _layer("executor.store_hits", "count", "wall_s", ("warm_service",), (),
           "cases served by the result store", better="higher"),
    _layer("executor.failures", "count", "wall_s", WORKLOADS, (),
           "cases that failed permanently"),
    _layer("executor.pool_efficiency", "ratio", "wall_s", ("smt_zoo",), (),
           "traced serial case time / (jobs x untraced run_specs time)",
           better="higher"),
    _layer("store.put_s", "s", "wall_s", COLD, (),
           "self time of ResultStore.put"),
    _layer("store.puts", "count", "wall_s", COLD, (),
           "ResultStore.put calls"),
    _layer("store.get_s", "s", "wall_s", ("warm_service",), (),
           "self time of ResultStore.get"),
    _layer("store.gets", "count", "wall_s", ("warm_service",), (),
           "ResultStore.get calls"),
    _layer("store.hit_ratio", "ratio", "wall_s", ("warm_service",), (),
           "ResultStore.get calls that returned a result / calls",
           better="higher"),
    _layer("pipeline.run_serial_s", "s", "wall_s", WORKLOADS, (),
           "self time of pipeline.run_serial"),
    _layer("pipeline.assemble_s", "s", "wall_s", ("warm_service",), (),
           "self time of pipeline.assemble_experiment"),
    _layer("pipeline.write_outputs_s", "s", "wall_s", ("warm_service",), (),
           "self time of pipeline.write_outputs"),
    _layer("attacks.table1_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of the caseless table1 assembly"),
    _layer("attacks.poc_attacks_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of the caseless poc_attacks assembly"),
    _layer("attacks.pht_granularity_s", "s", "wall_s", ("warm_service",),
           COLD, "self time of the caseless ablation_pht_granularity "
                 "assembly"),
    _layer("analysis.report_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of htmlreport.build_html_report"),
    _layer("analysis.significance_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of significance_matrix"),
    _layer("analysis.pareto_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of pareto.mechanism_profiles"),
    _layer("service.submit_s", "s", "wall_s", ("warm_service",), COLD,
           "self time of JobScheduler.submit (request parse + "
           "build_manifest)"),
    _layer("service.post_ms", "ms", "wall_s", ("warm_service",), COLD,
           "POST /v1/jobs round trip seen by the client"),
    _layer("service.queue_wait_ms", "ms", "wall_s", ("warm_service",), COLD,
           "job document started - created"),
    _layer("service.job_run_s", "s", "wall_s", ("warm_service",), COLD,
           "job document finished - started"),
    _layer("service.client_overhead_ms", "ms", "wall_s", ("warm_service",),
           COLD, "client-observed submit-to-stream-end time minus the job "
                 "document's finished - created"),
    _layer("service.report_get_s", "s", "wall_s", ("warm_service",), COLD,
           "GET /v1/jobs/<id>/report round trip seen by the client"),
    _layer("trace.overhead_frac", "ratio", "wall_s", WORKLOADS, (),
           "traced unit wall time / untraced unit wall time - 1"),
    _layer("trace.unattributed_frac", "ratio", "wall_s", WORKLOADS, (),
           "share of traced wall time covered by no layer span"),
)

#: Span name -> per-layer self-time metric it feeds.  Every span the
#: layers module records is listed, so the self times reconcile with the
#: traced wall time.
SPAN_METRICS = {
    "workloads.build": "workloads.build_s",
    "core.bpu_build": "core.bpu_build_s",
    "runner.case": "runner.case_s",
    "executor.run_specs": "executor.run_specs_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "pipeline.run_serial": "pipeline.run_serial_s",
    "pipeline.assemble": "pipeline.assemble_s",
    "pipeline.write_outputs": "pipeline.write_outputs_s",
    "attacks.table1": "attacks.table1_s",
    "attacks.poc_attacks": "attacks.poc_attacks_s",
    "attacks.pht_granularity": "attacks.pht_granularity_s",
    "analysis.report": "analysis.report_s",
    "analysis.significance": "analysis.significance_s",
    "analysis.pareto": "analysis.pareto_s",
    "service.submit": "service.submit_s",
}

