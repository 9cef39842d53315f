"""Benchmark-suite runs over registry-selected workloads (``--bench-set``).

The paper's figures run the fixed Table 3 pairs; this experiment opens the
workload axis: any benchmark-set selector of
:class:`repro.workloads.registry.WorkloadRegistry` (``int``, ``fp``,
``large_footprint``, ``indirect_heavy``, ``all``, ``traces``, or a
``+``-joined union) runs *solo* on the single-threaded FPGA-prototype core
under the two headline isolation mechanisms, and the result carries
SPEC-style **per-set geomean** summary rows next to the per-benchmark
figure — the reporting shape of the vusec ``instrumentation-infra`` SPEC2006
harness.

Trace-corpus workloads (``trace:*``) ride the same plumbing: their
:class:`~repro.experiments.executor.CaseSpec`\\ s carry the trace file's
content digest, so they shard, cache and store-address like any synthetic
case without perturbing existing keys.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import geometric_mean
from ..cpu.config import fpga_prototype
from ..cpu.stats import RunResult
from ..workloads.pairs import BenchmarkPair
from ..workloads.registry import WorkloadEntry, get_registry
from .base import ExperimentResult
from .executor import CaseSpec
from .runner import (assemble_overhead_single_thread,
                     plan_overhead_single_thread)
from .scaling import ExperimentScale, default_scale

__all__ = ["MECHANISMS", "plan", "assemble", "experiment_def"]

#: The two headline mechanisms the suite compares (series label, preset,
#: switch-interval override).
MECHANISMS: List[Tuple[str, str, Optional[int]]] = [
    ("Complete-Flush", "complete_flush", None),
    ("Noisy-XOR-BP", "noisy_xor_bp", None),
]


def _solo_pairs(entries: Sequence[WorkloadEntry]) -> List[BenchmarkPair]:
    """Each selected workload runs alone; the case label is the name."""
    return [BenchmarkPair(entry.name, (entry.name,)) for entry in entries]


def _setup(selector: str, scale: Optional[ExperimentScale]):
    scale = scale or default_scale()
    registry = get_registry()
    entries = registry.select(selector)
    return scale, registry, entries, _solo_pairs(entries)


def plan(selector: str,
         scale: Optional[ExperimentScale] = None) -> List[CaseSpec]:
    """Enumerate the cases of one benchmark-set selector.

    Same order as
    :func:`repro.experiments.runner.plan_overhead_single_thread`; trace-backed
    specs additionally carry the corpus file's content digest in
    ``workload_digest`` (a replayed trace's behaviour is the file contents,
    not its name).
    """
    scale, registry, entries, pairs = _setup(selector, scale)
    specs = plan_overhead_single_thread(MECHANISMS, pairs, fpga_prototype(),
                                        scale)
    digests = {entry.name: entry.digest for entry in entries
               if entry.digest is not None}
    return [replace(spec, workload_digest=digests[spec.pair.case])
            if spec.pair.case in digests else spec
            for spec in specs]


def _set_geomean(values: List[float]) -> float:
    """SPEC-style geomean of fraction overheads (over the ``1+x`` ratios)."""
    return geometric_mean([1.0 + value for value in values]) - 1.0


def _summary_rows(figure, registry, entries: Sequence[WorkloadEntry]):
    """Per-set geomean rows for every named set intersecting the selection."""
    selected = [entry.name for entry in entries]
    index = {name: i for i, name in enumerate(figure.categories)}
    labels = list(figure.series)
    rows: List[List] = []
    for set_name, members in registry.sets().items():
        chosen = [name for name in selected if name in set(members)]
        if not chosen:
            continue
        row: List = [set_name, len(chosen)]
        for label in labels:
            series = figure.series[label]
            row.append(_set_geomean([series[index[name]] for name in chosen]))
        rows.append(row)
    rows.append(["selection", len(selected)]
                + [figure.geomean(label) for label in labels])
    return rows


def assemble(scale: ExperimentScale, results: Sequence[RunResult],
             selector: str) -> ExperimentResult:
    """Assemble one benchmark-set selector's geomean summary from the
    results of :func:`plan` (same selector).

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per planned case, in plan order.
        selector: benchmark-set selector (see
            :meth:`repro.workloads.registry.WorkloadRegistry.select`).

    Returns:
        An :class:`~repro.experiments.base.ExperimentResult` whose figure
        holds the per-benchmark overheads and whose rows are the per-set
        geomean summaries.
    """
    _scale, registry, entries, pairs = _setup(selector, scale)
    figure = assemble_overhead_single_thread(
        f"Benchmark suite [{selector}]",
        "isolation overhead per benchmark, solo on the single-threaded core",
        MECHANISMS, pairs, results)
    labels = [label for label, _preset, _interval in MECHANISMS]
    rows = _summary_rows(figure, registry, entries)
    display = [[row[0], row[1]]
               + [f"{100 * value:+.2f}%" for value in row[2:]]
               for row in rows]
    return ExperimentResult(
        name=f"Benchmark suite [{selector}]",
        description="per-set geometric-mean isolation overhead "
                    "(SPEC-harness-style summary)",
        headers=["set", "benchmarks"] + [f"{label} geomean" for label in labels],
        rows=display,
        figure=figure,
        notes="Geomeans are taken over the 1+overhead ratios, the SPEC "
              "convention for normalised runtimes; sets are the registry's "
              "named selectors intersected with the selection.")


def experiment_def(selector: str):
    """Manifest :class:`~repro.experiments.manifest.ExperimentDef` for a
    selector, keyed ``bench:<selector>``.

    The selector is validated eagerly (including the trace corpus scan), so
    an unknown set or a broken corpus fails at manifest-build time with a
    named error, not deep inside a shard.
    """
    from .manifest import ExperimentDef

    get_registry().select(selector)
    return ExperimentDef(
        key=f"bench:{selector}",
        plan=lambda scale: plan(selector, scale),
        assemble=lambda scale, results: assemble(scale, results, selector))
