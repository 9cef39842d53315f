"""End-to-end benchmark of the secure-branch-predictor reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload st_tage --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the separate traced unit(s) and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record with provenance is written to
``.perfbench/results/<workload>-seed<n>-trace<t>.json`` and, for traced
runs, the spans to ``.perfbench/spans/<workload>-seed<n>.jsonl``.

Exit codes: 0 when every correctness check passed, 1 when one failed (the
result line says ``"correct": false``), 2 when the program under test
(``src/repro``) is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

IMPORT_REPEATS = 3

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

from e2e import catalog, gate, workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="with the default seed, rewrite pins.json "
                             "from this run instead of checking it")
    return parser.parse_args(argv)


#: Modules the workloads touch; importing them (and planning the experiment
#: registry, which imports every experiment module) is the import part of
#: set-up.
PROGRAM_MODULES = ("repro.analysis.htmlreport", "repro.analysis.pareto",
                   "repro.experiments.pipeline", "repro.service.server",
                   "repro.experiments.manifest")

IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, {HERE!r})
import run
started = time.perf_counter()
run.import_program()
print(time.perf_counter() - started)
"""


def import_program() -> None:
    """Import every module the workloads touch."""
    # Knobs in the caller's environment (scale, store, jobs, faults) would
    # change what is measured.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    importlib.import_module("repro.experiments.manifest").experiment_registry()


def import_seconds() -> float:
    """Median import time of fresh interpreters (an in-process import
    cannot be repeated).  Run after the workload, so the probes' memory
    never shows in the workload's peak RSS."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        completed = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=60, check=True)
        samples.append(float(completed.stdout.split()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    import_program()

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(WORK, "tmp"))
    trace = bool(args.trace)
    try:
        if args.workload == "warm_service":
            outcome = workloads.run_warm(
                seed=args.seed, seconds=args.seconds, trace=trace, work=work,
                update_pins=args.update_pins)
        else:
            outcome = workloads.run_cold(
                args.workload, seed=args.seed, seconds=args.seconds,
                trace=trace, work=work, update_pins=args.update_pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "setup_s" in outcome.metrics:
        outcome.metrics["setup_s"] += import_seconds()

    stamp = gate.provenance(
        ROOT, workload=args.workload, seed=args.seed, scale=outcome.scale,
        scale_factor=workloads.SCALE_FACTOR,
        manifest_hash=outcome.manifest_hash,
        jobs=outcome.jobs, trace=trace)
    declared = catalog.PER_LAYER if trace else catalog.END_TO_END
    metrics = {metric.name: {"value": outcome.metrics[metric.name],
                             "unit": metric.unit} for metric in declared}
    correct = not outcome.problems and outcome.failed == 0
    record = {"provenance": stamp, "correct": correct,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if outcome.tracer is not None:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        outcome.tracer.write(os.path.join(WORK, "spans", f"{tag}.jsonl"),
                             stamp)

    for line in outcome.lines:
        print(line)
    if outcome.tracer is not None:
        print("layer self time per traced unit (share of traced wall):")
        from e2e.layers import self_time_table

        for name, seconds, share in self_time_table(outcome.tracer):
            print(f"  {name:<28} {seconds:10.4f} s  {share:7.2%}")
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
