"""Experiment drivers: one module per paper table/figure, plus ablations.

A case-based driver is a ``plan(scale, ...)`` that lists its simulation
cases and an ``assemble(scale, results, ...)`` that builds an
:class:`repro.experiments.base.ExperimentResult` from those cases' results
in plan order; a caseless one is a ``run(scale)``.
:func:`experiment_registry` maps each registered experiment to its plan and
assembly.  The manifest pipeline (``repro run``, ``repro report``) plans and
runs every case through one executor,
:data:`repro.analysis.report.PAPER_EXPECTATIONS` checks each result against
the paper's claim, and the examples print them.
"""

from . import (
    ablations,
    fig1_flush_single,
    fig2_flush_smt,
    fig3_precise_flush,
    fig7_xor_btb,
    fig8_xor_pht,
    fig9_xor_bp,
    fig10_smt_predictors,
    poc_attacks,
    sensitivity,
    table1_security,
    table2_configs,
    table3_benchmarks,
    table4_privilege,
    table5_hwcost,
)
from .base import ExperimentResult
from .executor import (
    ENGINE_VERSION,
    CaseSpec,
    RunResultCache,
    SweepExecutor,
    env_jobs,
    parse_jobs,
)
from .manifest import (
    ExperimentDef,
    ExperimentManifest,
    ShardSpec,
    build_manifest,
    env_shard,
    experiment_registry,
    parse_repetitions,
    parse_shard,
)
from .pipeline import (
    assemble_experiment,
    execute_shard,
    merge_artifacts,
    run_serial,
)
from .store import ResultStore, env_store
from .runner import (
    build_bpu,
    run_single_thread_case,
    run_smt_case,
)
from .scaling import (ExperimentScale, default_scale, env_scale_factor,
                      parse_scale_factor, quick_scale)

__all__ = [
    "ExperimentResult",
    "ExperimentScale",
    "default_scale",
    "quick_scale",
    "env_scale_factor",
    "parse_scale_factor",
    "ENGINE_VERSION",
    "CaseSpec",
    "RunResultCache",
    "SweepExecutor",
    "env_jobs",
    "parse_jobs",
    "ExperimentDef",
    "ExperimentManifest",
    "ResultStore",
    "ShardSpec",
    "build_manifest",
    "env_shard",
    "env_store",
    "experiment_registry",
    "parse_repetitions",
    "parse_shard",
    "assemble_experiment",
    "execute_shard",
    "merge_artifacts",
    "run_serial",
    "build_bpu",
    "run_single_thread_case",
    "run_smt_case",
    "fig1_flush_single",
    "fig2_flush_smt",
    "fig3_precise_flush",
    "fig7_xor_btb",
    "fig8_xor_pht",
    "fig9_xor_bp",
    "fig10_smt_predictors",
    "table1_security",
    "table2_configs",
    "table3_benchmarks",
    "table4_privilege",
    "table5_hwcost",
    "poc_attacks",
    "ablations",
    "sensitivity",
]
