"""Sharded execution of experiment manifests, and the merge that follows.

The pipeline turns a planned :class:`~repro.experiments.manifest.ExperimentManifest`
into finished figures/tables in three composable steps:

* :func:`execute_shard` — run the cases (and caseless experiments) owned by
  one shard over the process pool, publishing each finished case to a
  result store (so a killed shard resumes by rerunning it), and write a
  **shard artifact**, a receipt (engine version, manifest hash, scale, the
  store digest of every executed case by cache key, and the caseless
  experiments' results, which are not store cases);
* :func:`merge_artifacts` — validate a set of receipts (same engine /
  manifest / scale; shards disjoint; **every planned case executed exactly
  once across the union**), load exactly the receipt keys from the result
  store (digest-checked), and re-assemble every experiment through a
  *replay-only* :class:`~repro.experiments.executor.SweepExecutor` — so the
  merge simulates nothing and fails loudly if any plan was incomplete;
* :func:`run_serial` — the degenerate single-machine path (one implicit
  shard, assembly in-process).

Because a case's :class:`~repro.cpu.stats.RunResult` serialises through JSON
with exact float round-tripping (the store's entry format), a sharded run
merged from the store is **bit-identical** to a serial run of the same
manifest; ``tests/experiments/test_pipeline.py`` pins that against the
committed golden traces.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.export import (result_from_dict, result_to_dict,
                               save_result_json)
from ..analysis.stats import fold_experiment_results
from ..cpu.stats import run_result_to_dict
from .base import ExperimentResult
from .executor import (
    ENGINE_VERSION,
    RepetitionExecutor,
    RunResultCache,
    SweepExecutor,
    atomic_write_json,
)
from .manifest import ExperimentDef, ExperimentManifest, ShardSpec
from .store import ResultStore, result_digest

__all__ = [
    "ARTIFACT_SCHEMA",
    "FAILURE_SCHEMA",
    "shard_artifact_path",
    "failure_manifest_path",
    "assemble_experiment",
    "execute_shard",
    "load_artifact",
    "merge_artifacts",
    "register_store_manifest",
    "run_serial",
    "write_failure_manifest",
    "write_outputs",
]

logger = logging.getLogger(__name__)

#: Shard-artifact schema revision (bumped on incompatible layout changes).
#: 3: ``cases`` maps each executed cache key to its store digest; the
#: results themselves live only in the result store.
ARTIFACT_SCHEMA = 3

#: Failure-manifest schema revision (the machine-readable ``--keep-going``
#: failure report).
FAILURE_SCHEMA = 1


def shard_artifact_path(out_dir: str, shard: Optional[ShardSpec]) -> str:
    """Canonical artifact filename for a shard (``shard-i-of-n.json``)."""
    if shard is None:
        return os.path.join(out_dir, "shard-0-of-1.json")
    return os.path.join(out_dir, f"shard-{shard.index}-of-{shard.count}.json")


def failure_manifest_path(out_dir: str, shard: Optional[ShardSpec]) -> str:
    """Canonical failure-manifest filename (``failures-i-of-n.json``)."""
    if shard is None:
        return os.path.join(out_dir, "failures-0-of-1.json")
    return os.path.join(out_dir,
                        f"failures-{shard.index}-of-{shard.count}.json")


def register_store_manifest(manifest: ExperimentManifest,
                            cache: RunResultCache) -> bool:
    """Record the manifest's case ownership in the cache's result store.

    Called after a run completes (serial or shard): the store's manifest
    index is what makes ``store gc --manifest-hash`` / ``export --manifest``
    able to scope to live work.  Best-effort — a read-only store mount or a
    racing registration must never fail a run whose simulations already
    finished — and a no-op without a store.  Returns whether an index is in
    place.
    """
    store = getattr(cache, "store", None)
    if store is None:
        return False
    try:
        store.register_manifest(manifest.manifest_hash(),
                                sorted(manifest.unique_cases()))
        return True
    except (OSError, ValueError) as exc:
        logger.warning("could not register manifest %s in the result store "
                       "(%s); scoped gc/export will not know this run",
                       manifest.manifest_hash()[:12], exc)
        return False


def write_failure_manifest(out_dir: str, shard: Optional[ShardSpec],
                           failures: Sequence,
                           failed_experiments: Optional[Dict[str, str]] = None
                           ) -> Optional[str]:
    """Write (or clear) the machine-readable failure manifest for a shard.

    With failures, writes ``failures-i-of-n.json`` and returns its path;
    without, removes any stale manifest from a previous attempt and returns
    ``None`` — so the file's existence is itself the signal a run completed
    with failures.
    """
    path = failure_manifest_path(out_dir, shard)
    if not failures and not failed_experiments:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return None
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema": FAILURE_SCHEMA,
        "engine": ENGINE_VERSION,
        "shard": {"index": shard.index if shard else 0,
                  "count": shard.count if shard else 1},
        "failures": [failure.to_dict() for failure in failures],
        "failed_experiments": dict(failed_experiments or {}),
    }
    atomic_write_json(path, payload, trailing_newline=True)
    return path


def execute_shard(manifest: ExperimentManifest, shard: Optional[ShardSpec],
                  out_dir: str, *, jobs: Optional[int] = None,
                  cache: Optional[RunResultCache] = None,
                  keep_going: bool = False) -> str:
    """Execute one shard of a manifest and write its receipt artifact.

    Every completed case is published to a result store the moment it
    finishes: the cache's store when it has one (``REPRO_STORE_DIR`` for the
    default cache), otherwise ``<out_dir>/store``.  Rerunning a killed shard
    with the same ``out_dir`` therefore serves its finished cases as store
    hits and simulates only the remainder, producing an artifact
    bit-identical to an uninterrupted run (only the ``stats`` block records
    the split history).

    Args:
        manifest: the planned manifest (must be planned identically on every
            shard — same experiments, same scale).
        shard: this worker's slice; ``None`` executes everything.
        out_dir: directory receiving ``shard-i-of-n.json`` (and, without
            ``REPRO_STORE_DIR``, the shard's ``store/``).
        jobs: process-pool width (``REPRO_JOBS`` when omitted).
        cache: result cache (a fresh one honouring ``REPRO_STORE_DIR`` when
            omitted); a store-less cache gets the store under ``out_dir``.
        keep_going: complete healthy cases when some fail permanently, and
            write a ``failures-i-of-n.json`` manifest instead of raising
            (failed cases are excluded from the artifact, so a later merge
            still enforces the exactly-once invariant loudly).

    Returns:
        The artifact path.
    """
    os.makedirs(out_dir, exist_ok=True)
    owned = manifest.shard_cases(shard)
    if cache is None:
        cache = RunResultCache()
    if cache.store is None:
        cache.store = ResultStore(os.path.join(out_dir, "store"))
    executor = SweepExecutor(jobs=jobs, cache=cache, keep_going=keep_going)
    results = executor.run_specs(list(owned.values()))

    cases = {key: result_digest(run_result_to_dict(result))
             for key, result in zip(owned, results) if result is not None}
    experiment_results: Dict[str, dict] = {}
    failed_experiments: Dict[str, str] = {}
    for key in manifest.shard_caseless(shard):
        try:
            experiment_results[key] = result_to_dict(
                manifest.definition(key).assemble(manifest.scale, executor))
        except Exception as exc:
            if not keep_going:
                raise
            failed_experiments[key] = f"{type(exc).__name__}: {exc}"

    write_failure_manifest(out_dir, shard, executor.failures,
                           failed_experiments)

    payload = {
        "schema": ARTIFACT_SCHEMA,
        "engine": ENGINE_VERSION,
        "manifest_hash": manifest.manifest_hash(),
        "scale": asdict(manifest.scale),
        "experiments": manifest.keys,
        "repetitions": manifest.repetitions,
        "shard": {"index": shard.index if shard else 0,
                  "count": shard.count if shard else 1},
        "stats": {"simulated": executor.simulated,
                  "cache_hits": executor.cache.hits,
                  "store_hits": executor.cache.store_hits},
        "cases": cases,
        "experiment_results": experiment_results,
    }
    path = shard_artifact_path(out_dir, shard)
    atomic_write_json(path, payload, trailing_newline=True)
    if not executor.failures and not failed_experiments:
        # Every shard registers the same full-manifest index (idempotent):
        # any one completing shard is enough for scoped gc/export to know
        # the manifest, and a failed shard registers nothing it didn't run.
        register_store_manifest(manifest, cache)
    return path


def load_artifact(path: str) -> dict:
    """Read one shard artifact, validating its schema marker."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported shard-artifact schema {schema!r} "
            f"(expected {ARTIFACT_SCHEMA}: receipts whose results live in "
            "the result store); rerun the shards with this build")
    return payload


def _validate_artifacts(manifest: ExperimentManifest,
                        artifacts: "Sequence[Tuple[str, dict]]") -> None:
    """Check artifact consistency and the exactly-once execution invariant."""
    expected_hash = manifest.manifest_hash()
    shard_counts = set()
    seen_shards: Dict[int, str] = {}
    executed: Dict[str, List[str]] = {}
    caseless_seen: Dict[str, List[str]] = {}
    for path, payload in artifacts:
        if payload["engine"] != ENGINE_VERSION:
            raise ValueError(
                f"{path}: artifact was produced by engine "
                f"{payload['engine']!r}, this build is {ENGINE_VERSION!r}")
        if payload.get("repetitions", 1) != manifest.repetitions:
            raise ValueError(
                f"{path}: artifact was executed with "
                f"--repetitions {payload.get('repetitions', 1)}, the merge "
                f"is planning {manifest.repetitions}")
        if payload["manifest_hash"] != expected_hash:
            raise ValueError(
                f"{path}: manifest hash {payload['manifest_hash'][:12]}… does "
                f"not match the planned manifest {expected_hash[:12]}… "
                "(different experiment selection, scale, or engine)")
        shard = payload["shard"]
        shard_counts.add(shard["count"])
        if shard["index"] in seen_shards:
            raise ValueError(
                f"{path}: shard {shard['index']} already provided by "
                f"{seen_shards[shard['index']]}")
        seen_shards[shard["index"]] = path
        for key, digest in payload["cases"].items():
            if not re.fullmatch(r"[0-9a-f]{64}", str(digest)):
                raise ValueError(f"{path}: receipt for case {key} is not a "
                                 "64-hex store digest")
            executed.setdefault(key, []).append(path)
        for key in payload["experiment_results"]:
            caseless_seen.setdefault(key, []).append(path)
    if len(shard_counts) > 1:
        raise ValueError(
            f"artifacts disagree on the shard count: {sorted(shard_counts)}")

    planned = manifest.unique_cases()
    duplicated = {key: paths for key, paths in executed.items()
                  if len(paths) > 1}
    if duplicated:
        worst = next(iter(sorted(duplicated)))
        raise ValueError(
            f"{len(duplicated)} case(s) were executed by more than one shard "
            f"(e.g. {worst[:12]}… in {', '.join(duplicated[worst])}); shard "
            "partitions must be disjoint")
    unplanned = sorted(set(executed) - set(planned))
    if unplanned:
        raise ValueError(
            f"artifacts contain {len(unplanned)} case(s) the manifest never "
            f"planned (e.g. {unplanned[0][:12]}…); were they produced with a "
            "different experiment selection?")
    missing = sorted(set(planned) - set(executed))
    if missing:
        raise ValueError(
            f"{len(missing)} planned case(s) were executed by no shard "
            f"(e.g. {missing[0][:12]}…); are all shard artifacts present?")

    # Caseless experiments must obey the same exactly-once invariant as
    # cases: a missing shard that happened to own only caseless experiments
    # would otherwise pass the case checks and be silently re-simulated at
    # merge time.
    expected_caseless = set(manifest.caseless_keys())
    duplicated_caseless = sorted(key for key, owners in caseless_seen.items()
                                 if len(owners) > 1)
    if duplicated_caseless:
        raise ValueError(
            f"caseless experiment(s) executed by more than one shard: "
            f"{', '.join(duplicated_caseless)}; shard partitions must be "
            "disjoint")
    unplanned_caseless = sorted(set(caseless_seen) - expected_caseless)
    if unplanned_caseless:
        raise ValueError(
            f"artifacts contain result(s) for experiment(s) the manifest "
            f"does not treat as caseless: {', '.join(unplanned_caseless)}")
    missing_caseless = sorted(expected_caseless - set(caseless_seen))
    if missing_caseless:
        raise ValueError(
            f"caseless experiment(s) executed by no shard: "
            f"{', '.join(missing_caseless)}; are all shard artifacts present?")


def assemble_experiment(definition: ExperimentDef,
                        manifest: ExperimentManifest,
                        executor: SweepExecutor) -> ExperimentResult:
    """Assemble one experiment, folding repetitions when the manifest has any.

    Case-based experiments assemble once per repetition — each pass sees a
    :class:`~repro.experiments.executor.RepetitionExecutor` view that shifts
    every case to that repetition's seed offset — and the per-seed results
    fold into one mean ± 95%-CI result
    (:func:`repro.analysis.stats.fold_experiment_results`).  The fold indexes
    by repetition, never by shard or artifact order, so serial, sharded and
    store-replayed runs of the same manifest aggregate bit-identically.
    Caseless experiments (attack studies, configuration tables) run their own
    seeded harnesses outside the executor, and non-``repeatable`` experiments
    (figure-less tables) cannot express error bars; both assemble exactly
    once.  With ``repetitions=1`` this is a plain pass-through — byte-for-byte
    the historical single-trajectory assembly.
    """
    repeatable = definition.repeatable and bool(manifest.plans[definition.key])
    repetitions = manifest.repetitions if repeatable else 1
    if repetitions == 1:
        return definition.assemble(manifest.scale, executor)
    per_seed = [
        definition.assemble(manifest.scale,
                            RepetitionExecutor(executor, repetition))
        for repetition in range(repetitions)]
    return fold_experiment_results(per_seed)


def merge_artifacts(paths: Iterable[str], manifest: ExperimentManifest,
                    *, out_dir: Optional[str] = None
                    ) -> Dict[str, ExperimentResult]:
    """Merge shard receipts into final figures/tables.

    Validates that the receipts cover the manifest exactly once, replays
    exactly their keys from the result store (``REPRO_STORE_DIR``, else the
    ``store/`` beside the first artifact, where :func:`execute_shard`
    publishes by default) after checking each entry's digest against its
    receipt, re-assembles every case-based experiment through a
    **replay-only** executor, and loads the caseless experiments' results
    straight from the artifacts.  Any union of shard outputs that passes
    validation produces output bit-identical to a serial run.

    Args:
        paths: shard artifact files (any order).
        manifest: the manifest the shards were executed from (re-planned
            locally; the artifact hash check proves it matches).
        out_dir: when given, final results are also written there via
            :func:`write_outputs`.

    Returns:
        Experiment results keyed like the manifest.
    """
    artifacts = [(path, load_artifact(path)) for path in paths]
    if not artifacts:
        raise ValueError("no shard artifacts to merge")
    _validate_artifacts(manifest, artifacts)

    # Memory-only, holding exactly the receipt keys: a store entry no shard
    # executed can never rescue an incomplete plan() (voiding the
    # exactly-once proof), and the merge writes to no store.
    store = ResultStore(os.environ.get("REPRO_STORE_DIR") or os.path.join(
        os.path.dirname(artifacts[0][0]), "store"))
    cache = RunResultCache(store=False)
    for path, payload in artifacts:
        for key, digest in payload["cases"].items():
            result = store.get(key)
            if result is None or \
                    result_digest(run_result_to_dict(result)) != digest:
                problem = "is missing from" if result is None \
                    else "has another digest in"
                raise ValueError(
                    f"{path}: case {key} {problem} the result store "
                    f"{store.directory}; 'repro store ingest' the shards' "
                    "exports there, or set REPRO_STORE_DIR to their store")
            cache.put(key, result)
    replay = SweepExecutor(jobs=1, cache=cache, allow_simulation=False)

    caseless: Dict[str, ExperimentResult] = {}
    for _path, payload in artifacts:
        for key, data in payload["experiment_results"].items():
            caseless[key] = result_from_dict(data)

    results: Dict[str, ExperimentResult] = {}
    for definition in manifest.definitions:
        if definition.key in caseless:
            results[definition.key] = caseless[definition.key]
        else:
            results[definition.key] = assemble_experiment(definition,
                                                          manifest, replay)
    if out_dir:
        write_outputs(results, manifest, out_dir)
    return results


def run_serial(manifest: ExperimentManifest, *, jobs: Optional[int] = None,
               cache: Optional[RunResultCache] = None,
               out_dir: Optional[str] = None,
               executor: Optional[SweepExecutor] = None
               ) -> Dict[str, ExperimentResult]:
    """Execute and assemble a whole manifest in-process (no shard artifacts).

    The global (repetition-expanded) case list still runs through one
    :class:`~repro.experiments.executor.SweepExecutor` batch first — fanning
    out over worker processes and deduplicating across experiments — before
    the per-experiment assembly replays it from the warm cache.

    Args:
        manifest: the planned manifest.
        jobs: process-pool width (ignored when ``executor`` is given).
        cache: result cache (ignored when ``executor`` is given).
        out_dir: when given, final results are written there.
        executor: pre-built executor; callers pass one to read its
            simulation/cache-hit counters afterwards (the CLI reports them).
    """
    if executor is None:
        executor = SweepExecutor(jobs=jobs, cache=cache)
    executor.run_specs(list(manifest.unique_cases().values()))
    if executor.failures:
        # keep-going executor: every healthy case finished (and is cached),
        # but experiments cannot assemble around the holes.  The
        # caller reports the structured failures; nothing is written.
        return {}
    results = {
        definition.key: assemble_experiment(definition, manifest, executor)
        for definition in manifest.definitions}
    register_store_manifest(manifest, executor.cache)
    if out_dir:
        write_outputs(results, manifest, out_dir)
    return results


def write_outputs(results: Dict[str, ExperimentResult],
                  manifest: ExperimentManifest, out_dir: str) -> List[str]:
    """Write per-experiment JSON + rendered text and a run summary.

    The JSON artifacts are serialised deterministically (sorted keys, exact
    floats), so two runs of the same manifest can be compared with ``diff``;
    they are the bytes ``repro run KEY --json PATH`` writes.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for key, result in results.items():
        json_path = save_result_json(result,
                                     os.path.join(out_dir, f"{key}.json"))
        text_path = os.path.join(out_dir, f"{key}.txt")
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(result.render())
            handle.write("\n")
        written.extend([json_path, text_path])
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(manifest.describe(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(summary_path)
    return written
