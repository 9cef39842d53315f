"""Golden-trace regression fixtures for the paper's figure pipelines.

Engine rewrites in this repo must be *bit-identical*: the batched engine, the
generated predictor kernels and the packed storage layouts all promise the
same statistics as the scalar reference loop.  The parity suites check that
promise pairwise within one revision; these fixtures pin it **across**
revisions.  Each fixture is a small deterministic snapshot of one figure
driver (Figures 1, 2, 3, 8 and 10 and the SMT-4 sensitivity study at smoke
scale) committed under
``tests/integration/golden/``; the test recomputes the figure and compares
the result exactly — every float, every rendered row.  ``attacks.json`` does
the same for the caseless security studies that re-simulate on every run:
the Table 1 rows and per-cell success rates, the Section 5.5 PoC rows, the
PHT-granularity ablation rows, and the Pareto presets' leakage joint counts
and bootstrap leakage intervals.  A kernel or storage
rewrite that silently shifts any paper result fails here even if it is
self-consistent across its own engines.

Regenerating (only legitimate after an *intentional* statistics change, e.g.
a new workload RNG schedule — bump ``ENGINE_VERSION`` in the same commit)::

    PYTHONPATH=src python tests/integration/test_golden_traces.py --regen
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from dataclasses import replace

from repro.analysis.pareto import DEFAULT_MECHANISMS, mechanism_profiles
from repro.experiments import (ablations, fig1_flush_single, fig2_flush_smt,
                               fig3_precise_flush, fig8_xor_pht,
                               fig10_smt_predictors, poc_attacks, sensitivity,
                               table1_security)
from repro.experiments.executor import RunResultCache, SweepExecutor
from repro.experiments.scaling import ExperimentScale
from repro.security.analysis import build_security_table
from repro.security.leakage import leakage_report
from repro.workloads.pairs import SINGLE_THREAD_PAIRS, SMT2_PAIRS, SMT4_QUADS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Fixed smoke scale: small enough to run in CI, large enough for several
#: context switches, syscalls and warm-up resets per case.  Never derived
#: from ``REPRO_SCALE`` — fixtures must not depend on the environment.
GOLDEN_SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=600.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=2021)


#: The attack studies at the smallest iteration counts ``scaled_by`` allows
#: (the perfbench workloads' scale), so the fixture stays a smoke test.
ATTACK_SCALE = replace(GOLDEN_SCALE, poc_iterations=100, table1_iterations=40)

#: Leakage trials per channel for the Pareto presets (the HTML report's
#: default, measured in the SMT scenario like :func:`mechanism_profiles`).
ATTACK_LEAKAGE_TRIALS = 200


def _snapshot(result):
    """JSON-stable snapshot of one figure driver's output.

    Floats are kept as-is: ``json`` serialises them with shortest-round-trip
    ``repr``, so dump → load → compare is exact, and any change in simulated
    cycle counts (however small) changes the snapshot.
    """
    figure = result.figure
    return {
        "name": result.name,
        "categories": list(figure.categories),
        "series": {label: list(values)
                   for label, values in figure.series.items()},
        "rows": [[str(cell) for cell in row] for row in result.rows],
    }


def _executor():
    """One in-memory executor for every figure fixture, so the baselines
    the figures share are simulated once."""
    return SweepExecutor(jobs=1, cache=RunResultCache(store=False))


def _fig1(executor):
    return fig1_flush_single.run(scale=GOLDEN_SCALE,
                                 pairs=SINGLE_THREAD_PAIRS[:2],
                                 executor=executor)


def _fig2(executor):
    return fig2_flush_smt.run(scale=GOLDEN_SCALE,
                              smt2_pairs=SMT2_PAIRS[:1],
                              smt4_quads=SMT4_QUADS[:1],
                              executor=executor)


def _fig3(executor):
    # Tournament under Complete and Precise Flush on SMT-2.
    return fig3_precise_flush.run(scale=GOLDEN_SCALE, pairs=SMT2_PAIRS[:3],
                                  executor=executor)


def _fig8(executor):
    return fig8_xor_pht.run(scale=GOLDEN_SCALE,
                            pairs=SINGLE_THREAD_PAIRS[:2],
                            intervals=["8M"], executor=executor)


def _fig10(executor):
    # All four SMT predictors x {baseline, CF, PF, Noisy-XOR-BP}.
    return fig10_smt_predictors.run(scale=GOLDEN_SCALE, pairs=SMT2_PAIRS[:2],
                                    executor=executor)


def _smt4(executor):
    # Complete Flush, Precise Flush and Noisy-XOR-BP on one SMT-4 quad.
    return sensitivity.smt4_noisy_xor(scale=GOLDEN_SCALE, max_quads=1,
                                      executor=executor)


def _rows(result):
    return [[str(cell) for cell in row] for row in result.rows]


def _attacks():
    cells = [[row.structure, row.preset, core, kind, cell.verdict.value,
              cell.best_attack, cell.success_rate]
             for row in build_security_table(
                 iterations=ATTACK_SCALE.table1_iterations,
                 seed=ATTACK_SCALE.seed)
             for (core, kind), cell in row.cells.items()]
    report = leakage_report([preset for preset, _ in DEFAULT_MECHANISMS],
                            trials=ATTACK_LEAKAGE_TRIALS, smt=True)
    pareto = [[profile.mechanism, profile.leakage_bits,
               list(profile.leakage_ci)]
              for profile in mechanism_profiles(
                  {}, trials=ATTACK_LEAKAGE_TRIALS)]
    return {
        "table1": _rows(table1_security.run(scale=ATTACK_SCALE)),
        "table1_cells": cells,
        "poc_attacks": _rows(poc_attacks.run(scale=ATTACK_SCALE)),
        "ablation_pht_granularity": _rows(
            ablations.pht_granularity_ablation(scale=ATTACK_SCALE)),
        "leakage_report": {
            mechanism: {channel: estimate.joint_counts
                        for channel, estimate in channels.items()}
            for mechanism, channels in report.items()},
        "pareto_leakage": pareto,
    }


RUNNERS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig8": _fig8,
           "fig10": _fig10, "smt4": _smt4}

#: Fixtures whose runner already returns the JSON snapshot.
SNAPSHOT_RUNNERS = {"attacks": _attacks}


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.fixture(scope="module")
def executor():
    return _executor()


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_figure_matches_golden_trace(name, executor):
    with open(_golden_path(name), "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = _snapshot(RUNNERS[name](executor))
    assert actual == expected, (
        f"{name} drifted from its golden trace; if the statistics change is "
        "intentional, bump ENGINE_VERSION and regenerate with "
        "`PYTHONPATH=src python tests/integration/test_golden_traces.py "
        "--regen`")


@pytest.mark.parametrize("name", sorted(SNAPSHOT_RUNNERS))
def test_attack_studies_match_golden_trace(name):
    with open(_golden_path(name), "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = json.loads(json.dumps(SNAPSHOT_RUNNERS[name]()))
    assert actual == expected, (
        f"{name} drifted from its golden trace; regenerate only after an "
        "intentional statistics change (see the module docstring)")


def _regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    executor = _executor()
    snapshots = {name: (lambda runner=runner: _snapshot(runner(executor)))
                 for name, runner in RUNNERS.items()}
    snapshots.update(SNAPSHOT_RUNNERS)
    for name, snapshot in sorted(snapshots.items()):
        path = _golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("refusing to overwrite golden traces without --regen")
    _regenerate()
