"""Command-line interface.

Exposes the package's main entry points without writing any Python::

    python -m repro list                         # what can be reproduced
    python -m repro run figure7 --json out.json  # regenerate one artefact
    python -m repro run all --jobs 4 --out out/  # the whole paper, one pipeline
    python -m repro run all --repetitions 3 --out out/  # mean ± CI over 3 seeds
    python -m repro run all --shard 0/4 --out out/   # one shard of a fleet
    python -m repro merge --out merged out/shard-*.json  # assemble the fleet
    python -m repro plan --hash                  # manifest digest (CI cache key)
    python -m repro store export --out store.json    # publish cached results
    python -m repro store ingest shard-*.json        # reuse another machine's
    python -m repro serve --dir store/ --port 8378   # simulation service
    python -m repro submit --experiments figure1     # -> job id on stdout
    python -m repro watch job-0001-ab12cd34          # stream to completion
    python -m repro fetch job-0001-ab12cd34 --out served/
    python -m repro attack branchscope --mechanism noisy_xor_bp
    python -m repro leakage --mechanisms baseline noisy_xor_bp
    python -m repro hwcost --btb 256 --ways 2 --pht 4096
    python -m repro report --output results.md   # paper-vs-measured summary

Every subcommand prints human-readable text to stdout; ``run``, ``merge`` and
``report`` can additionally write machine-readable artefacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Lightweight Isolation Mechanism for "
                    "Secure Branch Predictors' (DAC 2021).")
    subparsers = parser.add_subparsers(dest="command", metavar="command")

    subparsers.add_parser("list", help="list reproducible experiments, attacks "
                                       "and protection presets")

    run = subparsers.add_parser(
        "run", help="run one experiment (table/figure), or 'all' for the "
                    "whole sharded reproduction pipeline")
    run.add_argument("experiment", help="experiment key (e.g. figure7, table5) "
                                        "or 'all' for the full manifest")
    run.add_argument("--scale", type=float, default=None,
                     help="trace-length scale factor (default from REPRO_SCALE)")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write the result as JSON")
    run.add_argument("--csv", default=None, metavar="PATH",
                     help="also write the figure series as CSV")
    run.add_argument("--experiments", nargs="+", default=None, metavar="KEY",
                     help="with 'all': subset of experiment keys to plan")
    run.add_argument("--bench-set", nargs="+", default=None, metavar="SELECTOR",
                     help="with 'all': benchmark-set selectors (int, fp, "
                          "large_footprint, indirect_heavy, all, traces, or "
                          "'+'-joined unions) planned as bench:<selector> "
                          "experiments alongside --experiments")
    run.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="trace-corpus directory registered as trace:* "
                          "workloads (default from REPRO_TRACE_DIR)")
    run.add_argument("--shard", default=None, metavar="I/N",
                     help="with 'all': execute only this shard of the global "
                          "case manifest (0-based, e.g. 0/4; default from "
                          "REPRO_SHARD) and write a shard artifact")
    run.add_argument("--jobs", default=None, metavar="N",
                     help="worker processes (default from REPRO_JOBS)")
    run.add_argument("--repetitions", default=None, metavar="N",
                     help="with 'all': run every planned case N times under "
                          "shifted seeds and fold figures into mean ± 95%% CI "
                          "(default 1: single-trajectory, bit-identical to "
                          "the historical pipeline)")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="with 'all': output directory (shard artifact, or "
                          "merged figures/tables for unsharded runs)")
    run.add_argument("--keep-going", action="store_true",
                     help="with 'all': when cases fail permanently, finish "
                          "every healthy case and write a machine-readable "
                          "failure manifest (exit 3) instead of aborting")

    merge = subparsers.add_parser(
        "merge", help="merge 'run all --shard' artifacts into final "
                      "figures/tables, asserting every planned case was "
                      "executed exactly once across the shards")
    merge.add_argument("artifacts", nargs="+", metavar="SHARD_JSON",
                       help="shard artifact files written by run all --shard")
    merge.add_argument("--out", default=None, metavar="DIR",
                       help="write merged per-experiment JSON/text here")

    plan = subparsers.add_parser(
        "plan", help="plan the global case manifest without running anything")
    plan.add_argument("--experiments", nargs="+", default=None, metavar="KEY",
                      help="subset of experiment keys to plan")
    plan.add_argument("--bench-set", nargs="+", default=None, metavar="SELECTOR",
                      help="benchmark-set selectors planned as bench:<selector> "
                           "experiments alongside --experiments")
    plan.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="trace-corpus directory registered as trace:* "
                           "workloads (default from REPRO_TRACE_DIR)")
    plan.add_argument("--scale", type=float, default=None,
                      help="trace-length scale factor")
    plan.add_argument("--repetitions", default=None, metavar="N",
                      help="seed repetitions per case (part of the manifest "
                           "hash: a repetition run can never collide with a "
                           "single-trajectory cache)")
    plan.add_argument("--hash", action="store_true",
                      help="print only '<engine>:<manifest hash>' (CI cache key)")
    plan.add_argument("--json", action="store_true",
                      help="print the full manifest summary as JSON")

    store = subparsers.add_parser(
        "store", help="content-addressed result store: exchange finished "
                      "simulation results between machines and CI shards")
    store_sub = store.add_subparsers(dest="store_command", metavar="operation")
    store_dir_help = ("store directory (default from REPRO_STORE_DIR)")
    ingest = store_sub.add_parser(
        "ingest", help="import case results from shard artifacts, store "
                       "exports, or remote store URLs (same-engine only, "
                       "digest-checked)")
    ingest.add_argument("artifacts", nargs="+", metavar="ARTIFACT",
                        help="files written by 'run all --shard' / 'store "
                             "export', or http(s) URLs of a remote "
                             "service's /v1/store/export endpoint")
    ingest.add_argument("--dir", default=None, metavar="DIR",
                        help=store_dir_help)
    export = store_sub.add_parser(
        "export", help="write every current-engine entry as one exchange "
                       "artifact (ingestable anywhere)")
    export.add_argument("--out", required=True, metavar="PATH",
                        help="output artifact path")
    export.add_argument("--dir", default=None, metavar="DIR",
                        help=store_dir_help)
    export.add_argument("--manifest", action="append", default=None,
                        metavar="HASH",
                        help="export only entries owned by this registered "
                             "manifest (repeatable; unions)")
    gc = store_sub.add_parser(
        "gc", help="delete entries from stale engine revisions (and, with "
                   "--manifest-hash, from superseded manifests)")
    gc.add_argument("--dir", default=None, metavar="DIR", help=store_dir_help)
    gc.add_argument("--manifest-hash", action="append", default=None,
                    metavar="HASH",
                    help="also prune current-engine entries owned by none "
                         "of these registered manifests (repeatable; "
                         "shared entries are retained)")
    verify = store_sub.add_parser(
        "verify", help="audit every entry (schema, key/engine filing, "
                       "content digest)")
    verify.add_argument("--dir", default=None, metavar="DIR",
                        help=store_dir_help)

    serve = subparsers.add_parser(
        "serve", help="run the store-backed simulation service: an HTTP "
                      "job queue scheduling manifest submissions over the "
                      "executor with store-backed dedupe")
    serve.add_argument("--host", default=None, metavar="ADDR",
                       help="bind address (default from REPRO_SERVE_HOST, "
                            "else 127.0.0.1)")
    serve.add_argument("--port", default=None, metavar="N",
                       help="TCP port (default from REPRO_SERVE_PORT; 0 "
                            "picks a free port)")
    serve.add_argument("--dir", default=None, metavar="DIR",
                       help="result store directory every job dedupes "
                            "against and publishes into (default from "
                            "REPRO_STORE_DIR; required)")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="per-job output root (default from "
                            "REPRO_SERVE_DATA_DIR, else repro-serve-data)")
    serve.add_argument("--workers", default=None, metavar="N",
                       help="concurrent job worker threads (default from "
                            "REPRO_SERVE_WORKERS, else 1)")
    serve.add_argument("--jobs", default=None, metavar="N",
                       help="worker processes per job (default from "
                            "REPRO_JOBS)")

    url_help = ("service URL (default from REPRO_SERVE_URL, else "
                "http://127.0.0.1:<default port>)")
    submit = subparsers.add_parser(
        "submit", help="submit a manifest to a running service; prints the "
                       "job id on stdout")
    submit.add_argument("--url", default=None, metavar="URL", help=url_help)
    submit.add_argument("--experiments", nargs="+", default=None,
                        metavar="KEY",
                        help="subset of experiment keys (the full registry "
                             "when omitted)")
    submit.add_argument("--bench-set", nargs="+", default=None,
                        metavar="SELECTOR",
                        help="benchmark-set selectors submitted alongside "
                             "--experiments")
    submit.add_argument("--scale", type=float, default=None,
                        help="trace-length scale factor, applied on top of "
                             "the server's base scale")
    submit.add_argument("--repetitions", default=None, metavar="N",
                        help="seed repetitions per case")

    watch = subparsers.add_parser(
        "watch", help="stream a job's events to completion; prints the "
                      "stats line (exit 0 done, 1 failed)")
    watch.add_argument("job", metavar="JOB_ID", help="job id from submit")
    watch.add_argument("--url", default=None, metavar="URL", help=url_help)

    fetch = subparsers.add_parser(
        "fetch", help="download a finished job's figures/tables (the same "
                      "bytes a serial 'run all --out' writes)")
    fetch.add_argument("job", metavar="JOB_ID", help="job id from submit")
    fetch.add_argument("--out", required=True, metavar="DIR",
                       help="output directory")
    fetch.add_argument("--url", default=None, metavar="URL", help=url_help)

    attack = subparsers.add_parser("attack", help="run one attack against one "
                                                  "protection preset")
    attack.add_argument("attack", help="attack name, e.g. branchscope or sbpa")
    attack.add_argument("--mechanism", default="baseline",
                        help="protection preset (default: baseline)")
    attack.add_argument("--iterations", type=int, default=1000,
                        help="attack iterations (default: 1000)")
    attack.add_argument("--smt", action="store_true",
                        help="concurrent-attacker (SMT) scenario")
    attack.add_argument("--predictor", default="bimodal",
                        help="direction predictor of the victim core")

    leakage = subparsers.add_parser("leakage", help="measure channel leakage "
                                                    "(mutual information)")
    leakage.add_argument("--mechanisms", nargs="+",
                         default=["baseline", "complete_flush", "noisy_xor_bp"],
                         help="protection presets to compare")
    leakage.add_argument("--trials", type=int, default=300,
                         help="prime-victim-probe trials per channel")
    leakage.add_argument("--smt", action="store_true",
                         help="concurrent-attacker (SMT) scenario")

    covert = subparsers.add_parser("covert", help="measure the PHT covert-channel "
                                                  "capacity under one preset")
    covert.add_argument("--mechanism", default="baseline",
                        help="protection preset (default: baseline)")
    covert.add_argument("--bits", type=int, default=256,
                        help="payload bits to transmit (default: 256)")
    covert.add_argument("--smt", action="store_true",
                        help="concurrent sender/receiver (SMT) scenario")

    hwcost = subparsers.add_parser("hwcost", help="estimate Noisy-XOR-BP "
                                                  "area/timing overhead")
    hwcost.add_argument("--btb", type=int, default=256,
                        help="BTB entries per way (default: 256)")
    hwcost.add_argument("--ways", type=int, default=2,
                        help="BTB associativity (default: 2)")
    hwcost.add_argument("--pht", type=int, default=4096,
                        help="TAGE PHT entries per table (default: 4096)")
    hwcost.add_argument("--tables", type=int, default=6,
                        help="number of TAGE tables (default: 6)")

    report = subparsers.add_parser("report", help="run the headline experiments "
                                                  "and write a paper-vs-measured "
                                                  "Markdown or HTML report")
    report.add_argument("--experiments", nargs="+", default=None,
                        help="experiment keys to include (default: the quick "
                             "set; with --html, the full registry)")
    report.add_argument("--scale", type=float, default=None,
                        help="trace-length scale factor")
    report.add_argument("--output", default=None, metavar="PATH",
                        help="write the Markdown report to this file")
    report.add_argument("--html", action="store_true",
                        help="render the self-contained HTML report (figures "
                             "with CI error bars, significance matrices, "
                             "Pareto table, provenance) instead of Markdown")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="HTML output path (default: report.html; "
                             "requires --html)")
    report.add_argument("--repetitions", default=None, metavar="N",
                        help="repeat every case under N shifted seeds and "
                             "report mean ± 95%% CI plus per-seed "
                             "significance tests (requires --html)")
    report.add_argument("--jobs", default=None, metavar="N",
                        help="worker processes for the simulation batch "
                             "(requires --html)")

    return parser


def _cmd_list() -> int:
    from .attacks import ALL_ATTACKS
    from .core import preset_names
    from .experiments import EXPERIMENTS
    from .predictors import DIRECTION_PREDICTORS

    print("Experiments (python -m repro run <key>):")
    for key in sorted(EXPERIMENTS):
        print(f"  {key}")
    print("\nAttacks (python -m repro attack <name>):")
    for name in sorted(ALL_ATTACKS):
        print(f"  {name}")
    print("\nProtection presets (--mechanism):")
    for name in preset_names():
        print(f"  {name}")
    print("\nDirection predictors (--predictor):")
    for name in sorted(DIRECTION_PREDICTORS):
        print(f"  {name}")
    return 0


def _resolve_scale(factor: Optional[float]):
    from .experiments import default_scale, parse_scale_factor

    scale = default_scale()  # raises on a malformed REPRO_SCALE, by name
    if factor is not None:
        scale = scale.scaled_by(parse_scale_factor(factor, source="--scale"))
    return scale


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis.export import save_figure_csv, save_result_json
    from .experiments import EXPERIMENTS

    if _apply_trace_dir_flag(args.trace_dir):
        return 2
    if args.experiment == "all":
        return _cmd_run_all(args)
    # 'all'-only flags must never be silently dropped: a user asking for a
    # 3-seed mean must not publish a single-trajectory estimate, and a user
    # asking for a shard/fan-out must not get a serial full run.
    all_only = [name for name, value in (
        ("--repetitions", args.repetitions), ("--shard", args.shard),
        ("--jobs", args.jobs), ("--out", args.out),
        ("--experiments", args.experiments),
        ("--bench-set", args.bench_set),
        ("--keep-going", args.keep_going or None)) if value is not None]
    if all_only:
        print(f"{', '.join(all_only)} appl"
              f"{'y' if len(all_only) > 1 else 'ies'} to 'run all' only "
              "(single-experiment runs are serial and single-trajectory; "
              "REPRO_JOBS still controls their worker pool)",
              file=sys.stderr)
        return 2
    if _env_exec_error():
        return 2
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    try:
        scale = _resolve_scale(args.scale)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result = EXPERIMENTS[args.experiment](scale)
    print(result.render())
    if args.json:
        path = save_result_json(result, args.json)
        print(f"\nJSON written to {path}")
    if args.csv:
        path = save_figure_csv(result, args.csv)
        if path is None:
            print("\n(no figure series to export as CSV)")
        else:
            print(f"\nCSV written to {path}")
    return 0


def _env_exec_error() -> bool:
    """Surface a malformed execution-layer environment knob as a clean error.

    Any command that ends up in :func:`default_executor` would otherwise die
    with an uncaught traceback from deep inside the executor (or worker)
    setup.  Covers ``REPRO_JOBS``, ``REPRO_SCALE``, ``REPRO_CASE_TIMEOUT``,
    ``REPRO_RETRIES``, ``REPRO_RETRY_BACKOFF`` and ``REPRO_FAULT_SPEC``.
    """
    from .experiments.executor import (
        env_case_timeout,
        env_jobs,
        env_retries,
        env_retry_backoff,
    )
    from .experiments.scaling import env_scale_factor
    from .testing.faults import active_clauses

    for check in (env_jobs, env_scale_factor, env_case_timeout, env_retries,
                  env_retry_backoff, active_clauses):
        try:
            check()
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return True
    return False


def _apply_trace_dir_flag(raw) -> bool:
    """Validate ``--trace-dir`` and export it as ``REPRO_TRACE_DIR``.

    Exported to the environment (rather than threaded through the planning
    layer) so executor worker processes resolve ``trace:*`` workloads
    against the same corpus.  Returns True (after printing the named error)
    when the directory does not exist.
    """
    if raw is None:
        return False
    from .workloads.registry import TRACE_DIR_VAR

    if not os.path.isdir(raw):
        print(f"--trace-dir: {raw!r} is not a directory", file=sys.stderr)
        return True
    os.environ[TRACE_DIR_VAR] = raw
    return False


def _manifest_keys(experiments, bench_sets):
    """Combine ``--experiments`` and ``--bench-set`` into manifest keys.

    ``None`` (plan everything) only when neither flag was given; a bare
    ``--bench-set`` plans just the requested selectors.
    """
    if experiments is None and bench_sets is None:
        return None
    keys = list(experiments) if experiments else []
    if bench_sets:
        keys.extend(f"bench:{selector}" for selector in bench_sets)
    return keys


def _resolve_jobs(raw) -> int:
    # A malformed --jobs or REPRO_JOBS must fail here, before any planning or
    # pool setup, with the offending setting named.
    from .experiments.executor import env_jobs, parse_jobs

    if raw is None:
        return env_jobs()
    return parse_jobs(raw, source="--jobs")


def _stats_line(manifest, executor) -> str:
    """One assertable line of executor statistics for a ``run all``.

    CI's store-replay job greps this to prove a 100% store hit rate: every
    unique case served from the store, nothing simulated.
    """
    from .experiments.manifest import format_stats_line

    return format_stats_line(len(manifest.unique_cases()), executor.simulated,
                             executor.cache.store_hits,
                             manifest.caseless_label())


def _print_failures(failures) -> None:
    for failure in failures:
        kind = "timed out" if failure.get("timed_out") else "failed"
        print(f"FAILED {failure['case']} [{failure['key'][:12]}…] {kind} "
              f"after {failure['attempts']} attempt(s): {failure['error']}: "
              f"{failure['message']}", file=sys.stderr)


def _cmd_run_all(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .experiments.executor import (
        ExecutionError,
        RunResultCache,
        SweepExecutor,
    )
    from .experiments.manifest import (
        build_manifest,
        env_shard,
        parse_repetitions,
        parse_shard,
    )
    from .experiments.pipeline import (
        execute_shard,
        failure_manifest_path,
        run_serial,
        write_failure_manifest,
    )

    if args.json or args.csv:
        print("--json/--csv apply to single experiments; 'run all' writes "
              "per-experiment JSON and text under --out DIR", file=sys.stderr)
        return 2
    if _env_exec_error():
        return 2
    try:
        jobs = _resolve_jobs(args.jobs)
        shard = (parse_shard(args.shard, source="--shard")
                 if args.shard is not None else env_shard())
        repetitions = (parse_repetitions(args.repetitions)
                       if args.repetitions is not None else 1)
        manifest = build_manifest(keys=_manifest_keys(args.experiments,
                                                      args.bench_set),
                                  scale=_resolve_scale(args.scale),
                                  repetitions=repetitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = manifest.describe()
    print(f"manifest {summary['manifest_hash'][:12]}… "
          f"({summary['unique_cases']} unique cases from "
          f"{summary['planned_cases']} planned across "
          f"{len(summary['experiments'])} experiments, "
          f"{summary['repetitions']} repetition(s), "
          f"{summary['deduped_cases']} deduped)")

    if shard is not None:
        out_dir = args.out or "repro-out"
        owned = manifest.shard_cases(shard)
        caseless = manifest.shard_caseless(shard)
        print(f"shard {shard}: {len(owned)} case(s), "
              f"{len(caseless)} caseless experiment(s)")
        cache = RunResultCache()
        try:
            path = execute_shard(manifest, shard, out_dir, jobs=jobs,
                                 cache=cache, keep_going=args.keep_going)
        except ExecutionError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            print("every completed case is in the shard's result store; "
                  "rerun the same command to continue", file=sys.stderr)
            return 1
        except (OSError, ValueError) as exc:
            # e.g. a store digest conflict (results changed without an
            # ENGINE_VERSION bump) — a designed tripwire, not a crash.
            print(f"run failed: {exc}", file=sys.stderr)
            return 2
        print(f"shard cache: {cache.hits} hit(s), "
              f"{cache.store_hits} from result store")
        print(f"shard artifact written to {path}")
        failures_path = failure_manifest_path(out_dir, shard)
        if os.path.exists(failures_path):
            with open(failures_path, "r", encoding="utf-8") as handle:
                report = _json.load(handle)
            _print_failures(report.get("failures", []))
            for key, error in sorted(
                    report.get("failed_experiments", {}).items()):
                print(f"FAILED experiment {key}: {error}", file=sys.stderr)
            print(f"completed with failures; failure manifest written to "
                  f"{failures_path}", file=sys.stderr)
            return 3
        return 0

    executor = SweepExecutor(jobs=jobs, cache=RunResultCache(),
                             keep_going=args.keep_going)
    try:
        results = run_serial(manifest, out_dir=args.out, executor=executor)
    except ExecutionError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    if executor.failures:
        # keep-going: every healthy case finished (and is cached for a
        # rerun), but figures cannot assemble around the holes.
        print(_stats_line(manifest, executor))
        _print_failures([failure.to_dict() for failure in executor.failures])
        if args.out:
            path = write_failure_manifest(args.out, None, executor.failures)
            print(f"completed with failures; failure manifest written to "
                  f"{path}", file=sys.stderr)
        print(f"{len(executor.failures)} case(s) failed permanently; "
              "figures/tables were not assembled", file=sys.stderr)
        return 3
    for key in manifest.keys:
        print(results[key].render())
        print()
    print(_stats_line(manifest, executor))
    if args.out:
        print(f"figures/tables written to {args.out}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .experiments.manifest import build_manifest
    from .experiments.pipeline import load_artifact, merge_artifacts
    from .experiments.scaling import ExperimentScale

    try:
        first = load_artifact(args.artifacts[0])
        manifest = build_manifest(keys=first["experiments"],
                                  scale=ExperimentScale(**first["scale"]),
                                  repetitions=first.get("repetitions", 1))
        results = merge_artifacts(args.artifacts, manifest, out_dir=args.out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
    print(f"merged {len(args.artifacts)} shard artifact(s): every one of the "
          f"{len(manifest.unique_cases())} planned cases was executed exactly "
          "once across the shards")
    for key in manifest.keys:
        print(results[key].render())
        print()
    if args.out:
        print(f"figures/tables written to {args.out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import render_table
    from .experiments.manifest import build_manifest, parse_repetitions

    if _apply_trace_dir_flag(args.trace_dir):
        return 2
    try:
        repetitions = (parse_repetitions(args.repetitions)
                       if args.repetitions is not None else 1)
        manifest = build_manifest(keys=_manifest_keys(args.experiments,
                                                      args.bench_set),
                                  scale=_resolve_scale(args.scale),
                                  repetitions=repetitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = manifest.describe()
    if args.hash:
        print(f"{summary['engine']}:{summary['manifest_hash']}")
        return 0
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [[key, count if count else "(runs whole at shard time)"]
            for key, count in summary["experiments"].items()]
    rows.append(["repetitions", summary["repetitions"]])
    rows.append(["total planned", summary["planned_cases"]])
    rows.append(["unique after dedupe", summary["unique_cases"]])
    print(render_table(["experiment", "cases"], rows,
                       title=f"Manifest {summary['manifest_hash'][:12]}… "
                             f"(engine {summary['engine']})"))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .experiments.executor import ENGINE_VERSION
    from .experiments.store import ResultStore

    if args.store_command is None:
        print("store requires an operation: ingest, export, gc or verify",
              file=sys.stderr)
        return 2
    try:
        store = ResultStore(args.dir)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.store_command == "ingest":
        total_added = 0
        total_skipped = 0
        for path in args.artifacts:
            try:
                # Anything URL-shaped goes through ingest_url, so an
                # unsupported scheme fails with the scheme named instead of
                # a confusing file-not-found for "ftp://...".
                if "://" in path:
                    added, skipped = store.ingest_url(path)
                else:
                    added, skipped = store.ingest(path)
            except (OSError, ValueError) as exc:
                print(f"ingest failed: {exc}", file=sys.stderr)
                return 2
            total_added += added
            total_skipped += skipped
            print(f"{path}: {added} ingested, {skipped} already present")
        print(f"store {store.directory}: {total_added} entr(ies) added, "
              f"{total_skipped} already present, {len(store)} total for "
              f"engine {ENGINE_VERSION}")
        return 0

    if args.store_command == "export":
        try:
            path, count = store.export(args.out,
                                       manifest_hashes=args.manifest)
        except (OSError, ValueError) as exc:
            print(f"export failed: {exc}", file=sys.stderr)
            return 2
        scope = (f" ({len(args.manifest)} manifest(s))"
                 if args.manifest else "")
        print(f"exported {count} entr(ies) for engine {ENGINE_VERSION}"
              f"{scope} to {path}")
        return 0

    if args.store_command == "gc":
        try:
            removed = store.gc(manifest_hashes=args.manifest_hash)
        except (OSError, ValueError) as exc:
            print(f"gc failed: {exc}", file=sys.stderr)
            return 2
        swept = store.sweep_tmp()
        stale = "stale engine revisions"
        if args.manifest_hash:
            stale += " and superseded manifests"
        print(f"gc removed {removed} entr(ies) from {stale} "
              f"and {len(swept)} orphaned tmp file(s); "
              f"{len(store)} kept for engine {ENGINE_VERSION}")
        return 0

    if args.store_command == "verify":
        report = store.verify()
        engines = ", ".join(f"{engine}: {count}"
                            for engine, count in report["engines"].items()) \
            or "(empty)"
        print(f"store {report['directory']}: {report['entries']} entr(ies) "
              f"[{engines}]")
        if report["quarantined"]:
            print(f"quarantine holds {report['quarantined']} damaged "
                  f"entr(ies) under {store.quarantine_dir}", file=sys.stderr)
        for path, problem in report["corrupt"]:
            print(f"CORRUPT {path}: {problem}", file=sys.stderr)
        if report["corrupt"]:
            print(f"verify failed: {len(report['corrupt'])} corrupt "
                  "entr(ies)", file=sys.stderr)
            return 2
        print("verify ok: every entry matches its content digest")
        return 0

    print(f"unknown store operation {args.store_command!r}", file=sys.stderr)
    return 2


def _cmd_attack(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .attacks import ALL_ATTACKS, run_attack

    if args.attack not in ALL_ATTACKS:
        print(f"unknown attack {args.attack!r}; "
              f"try: {', '.join(sorted(ALL_ATTACKS))}", file=sys.stderr)
        return 2
    result = run_attack(args.attack, args.mechanism, smt=args.smt,
                        iterations=args.iterations, predictor=args.predictor)
    rows = [
        ["attack", result.attack],
        ["mechanism", result.mechanism],
        ["scenario", "SMT" if result.smt else "single-threaded"],
        ["iterations", result.iterations],
        ["successes", result.successes],
        ["success rate", f"{100 * result.success_rate:.2f}%"],
        ["chance level", f"{100 * result.chance_level:.2f}%"],
        ["advantage", f"{100 * result.advantage:.2f}%"],
    ]
    print(render_table(["field", "value"], rows))
    return 0


def _cmd_leakage(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .security.leakage import leakage_bandwidth, leakage_report

    report = leakage_report(args.mechanisms, trials=args.trials, smt=args.smt)
    rows = []
    for mechanism, channels in report.items():
        for channel, estimate in channels.items():
            rows.append([
                mechanism, channel,
                f"{estimate.mutual_information_bits:.4f}",
                f"{100 * estimate.guess_accuracy:.1f}%",
                f"{leakage_bandwidth(estimate):.1f}",
            ])
    print(render_table(
        ["mechanism", "channel", "MI (bits/trial)", "guess accuracy",
         "bandwidth (bits/s)"], rows,
        title=f"Leakage over {args.trials} trials "
              f"({'SMT' if args.smt else 'single-threaded'} scenario)"))
    return 0


def _cmd_covert(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .attacks import run_covert_channel

    result = run_covert_channel(args.mechanism, payload_bits=args.bits,
                                smt=args.smt)
    rows = [
        ["mechanism", result.mechanism],
        ["scenario", "SMT" if result.smt else "time-shared"],
        ["bits sent", result.bits_sent],
        ["bit error rate", f"{100 * result.bit_error_rate:.1f}%"],
        ["capacity", f"{result.capacity_bits_per_symbol:.3f} bits/symbol"],
        ["bandwidth", f"{result.bandwidth_bits_per_second:,.0f} bits/s"],
    ]
    print(render_table(["field", "value"], rows,
                       title="PHT covert channel"))
    return 0


def _cmd_hwcost(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .hwcost import btb_cost, tage_pht_cost

    btb = btb_cost(args.btb, args.ways)
    pht = tage_pht_cost(args.pht, args.tables)
    rows = [
        [f"BTB {args.ways}w{args.btb}", f"{100 * btb.timing_overhead:.2f}%",
         f"{100 * btb.area_overhead:.2f}%"],
        [f"TAGE PHT {args.pht}x{args.tables}", f"{100 * pht.timing_overhead:.2f}%",
         f"{100 * pht.area_overhead:.2f}%"],
    ]
    print(render_table(["structure", "timing overhead", "area overhead"], rows,
                       title="Noisy-XOR-BP hardware cost estimate (Table 5 model)"))
    return 0


#: Experiments included in the default ``report`` run: the cheap, headline set.
_DEFAULT_REPORT_EXPERIMENTS = ["table2", "table3", "table5", "poc_attacks",
                               "figure7", "figure8", "figure9"]


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import PAPER_EXPECTATIONS, ReproductionReport
    from .experiments import EXPERIMENTS

    if _env_exec_error():
        return 2
    if args.html:
        return _cmd_report_html(args)
    html_only = [name for name, value in (
        ("--out", args.out), ("--repetitions", args.repetitions),
        ("--jobs", args.jobs)) if value is not None]
    if html_only:
        print(f"{', '.join(html_only)} appl"
              f"{'y' if len(html_only) > 1 else 'ies'} to --html reports "
              "only (the Markdown report is a quick single-seed pass; use "
              "--output PATH for its file)", file=sys.stderr)
        return 2
    keys = args.experiments if args.experiments else list(_DEFAULT_REPORT_EXPERIMENTS)
    unknown = [key for key in keys if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    scale = _resolve_scale(args.scale)
    report = ReproductionReport(title="Reproduction report")
    for key in keys:
        result = EXPERIMENTS[key](scale)
        if key in PAPER_EXPECTATIONS:
            report.add_result(key, result)
        print(result.render())
        print()
    markdown = report.to_markdown()
    print(markdown)
    if args.output:
        report.save(args.output)
        print(f"Markdown report written to {args.output}")
    return 0


def _report_provenance(manifest, stats_line: str) -> "Dict[str, str]":
    """The provenance block embedded at the top of the HTML report."""
    summary = manifest.describe()
    return {
        "Engine": summary["engine"],
        "Manifest": summary["manifest_hash"],
        "Experiments": ", ".join(summary["experiments"]),
        "Repetitions": str(summary["repetitions"]),
        "Planned cases": (f"{summary['planned_cases']} planned, "
                          f"{summary['unique_cases']} unique, "
                          f"{summary['deduped_cases']} deduped"),
        "Executor": stats_line,
    }


def _cmd_report_html(args: argparse.Namespace) -> int:
    """``repro report --html``: the decision-grade self-contained report.

    Runs the requested experiments (the **full** registry by default, so the
    embedded manifest hash matches a ``repro run all`` of the same settings)
    through the ordinary manifest/executor pipeline — store-warm runs
    simulate nothing — then renders every figure with CI error bars,
    mechanism significance matrices, the Pareto table and the provenance
    block into one HTML file with no external fetches.
    """
    from .analysis.htmlreport import build_html_report
    from .experiments.executor import (
        ExecutionError,
        RunResultCache,
        SweepExecutor,
    )
    from .experiments.manifest import build_manifest, parse_repetitions
    from .experiments.pipeline import run_serial

    if args.output:
        print("--output writes the Markdown report; use --out PATH for the "
              "HTML report", file=sys.stderr)
        return 2
    try:
        jobs = _resolve_jobs(args.jobs)
        repetitions = (parse_repetitions(args.repetitions)
                       if args.repetitions is not None else 1)
        manifest = build_manifest(keys=args.experiments,
                                  scale=_resolve_scale(args.scale),
                                  repetitions=repetitions)
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = manifest.describe()
    print(f"manifest {summary['manifest_hash'][:12]}… "
          f"({summary['unique_cases']} unique cases, "
          f"{summary['repetitions']} repetition(s))")
    executor = SweepExecutor(jobs=jobs, cache=RunResultCache())
    try:
        results = run_serial(manifest, executor=executor)
    except ExecutionError as exc:
        print(f"report run failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"report run failed: {exc}", file=sys.stderr)
        return 2
    stats = _stats_line(manifest, executor)
    print(stats)
    ordered = {key: results[key] for key in manifest.keys}
    document = build_html_report(ordered,
                                 _report_provenance(manifest, stats))
    out_path = args.out or "report.html"
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"HTML report written to {out_path}")
    return 0


def _service_url(args: argparse.Namespace) -> str:
    """Resolve the service URL: ``--url`` > ``REPRO_SERVE_URL`` > localhost."""
    from .service import DEFAULT_PORT

    if getattr(args, "url", None):
        return args.url
    return (os.environ.get("REPRO_SERVE_URL")
            or f"http://127.0.0.1:{DEFAULT_PORT}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments.executor import parse_jobs
    from .experiments.store import ResultStore
    from .service import DEFAULT_PORT, SimulationService, parse_port

    if _env_exec_error():
        return 2
    try:
        store = ResultStore(args.dir)
    except ValueError as exc:
        print(f"{exc} (the service publishes every result it simulates "
              "into the store)", file=sys.stderr)
        return 2
    try:
        if args.port is not None:
            port = parse_port(str(args.port), source="--port")
        elif os.environ.get("REPRO_SERVE_PORT"):
            port = parse_port(os.environ["REPRO_SERVE_PORT"])
        else:
            port = DEFAULT_PORT
        if args.workers is not None:
            workers = parse_jobs(str(args.workers), source="--workers")
        elif os.environ.get("REPRO_SERVE_WORKERS"):
            workers = parse_jobs(os.environ["REPRO_SERVE_WORKERS"],
                                 source="REPRO_SERVE_WORKERS")
        else:
            workers = 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    host = (args.host or os.environ.get("REPRO_SERVE_HOST")
            or "127.0.0.1")
    data_dir = (args.data_dir or os.environ.get("REPRO_SERVE_DATA_DIR")
                or "repro-serve-data")
    jobs = _resolve_jobs(args.jobs)
    service = SimulationService(store, data_dir, host=host, port=port,
                                jobs=jobs, workers=workers)
    print(f"repro serve listening on {service.url} "
          f"(store {store.directory}, data {data_dir}, "
          f"{workers} worker(s) x {jobs} job(s))", flush=True)
    service.serve_forever()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .experiments.manifest import parse_repetitions
    from .service import ServiceClient, ServiceError

    payload = {}
    if args.experiments:
        payload["experiments"] = list(args.experiments)
    if args.bench_set:
        payload["bench_sets"] = list(args.bench_set)
    if args.scale is not None:
        payload["scale"] = args.scale
    if args.repetitions is not None:
        # Parsed client-side too, for fast feedback with the flag named.
        try:
            payload["repetitions"] = parse_repetitions(
                str(args.repetitions), source="--repetitions")
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    client = ServiceClient(_service_url(args))
    try:
        document = client.submit(payload)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    # The job id goes to stdout ALONE so scripts can capture it:
    #   JOB=$(repro submit --experiments figure1)
    print(f"job {document['id']}: {document['state']}, "
          f"manifest {document['manifest_hash'][:12]}, "
          f"{document['stats']['unique']} case(s)", file=sys.stderr)
    print(document["id"])
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(_service_url(args))

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "case":
            print(f"  case {event.get('key', '')[:12]}… done",
                  file=sys.stderr)
        elif kind in ("running", "queued", "done", "failed"):
            print(f"job {event.get('job')}: {kind}", file=sys.stderr)

    try:
        document = client.watch(args.job, on_event=on_event)
    except ServiceError as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 2
    print(client.stats_line(document))
    if document["state"] == "failed":
        print(f"job {document['id']} failed: "
              f"{document.get('error') or 'unknown error'}",
              file=sys.stderr)
        _print_failures(document.get("failures") or [])
        return 1
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(_service_url(args))
    try:
        written = client.fetch(args.job, args.out)
    except ServiceError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 2
    print(f"fetched {len(written)} file(s) from job {args.job} "
          f"into {args.out}")
    return 0


#: Exit code for an interrupted run (the conventional 128 + SIGINT).
EXIT_INTERRUPTED = 130


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script.

    Exit codes: ``0`` success; ``1`` cases failed permanently (fail-fast);
    ``2`` usage or validation error; ``3`` ``--keep-going`` run completed
    with failures; ``130`` interrupted (Ctrl-C).
    """
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "leakage":
            return _cmd_leakage(args)
        if args.command == "covert":
            return _cmd_covert(args)
        if args.command == "hwcost":
            return _cmd_hwcost(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
    except KeyboardInterrupt:
        # The executor has already cancelled pending futures and shut its
        # pool down; exit with the conventional code instead of a traceback
        # cascade from every worker.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    parser.error(f"unhandled command {args.command!r}")
    return 2
