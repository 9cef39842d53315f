"""Tests for repetition-aware planning, aggregation and store exchange.

Pins the four repetition invariants:

* **expansion** — a ``repetitions=N`` manifest plans exactly the N-seed
  family of every base case (repetition 0 *is* the base case, so single-seed
  results are reused), and the manifest hash separates repetition counts
  (pinned-hash regression: ``repetitions=1`` and ``repetitions=N`` cache
  keys can never silently collide);
* **bit-identity at N=1** — the repetition machinery is a pass-through for
  single-trajectory manifests (the golden-trace suite already pins the
  output; here we pin that the manifest itself is unchanged);
* **aggregation determinism** — serial, sharded-and-merged, and
  store-exchanged executions of the same ``repetitions=N`` manifest produce
  byte-identical aggregated output, invariant to shard/artifact/ingest
  order;
* **strict parsing** — malformed repetition counts fail loudly, naming the
  setting.
"""

import json

import pytest

from repro.analysis.export import result_to_dict
from repro.cpu.config import fpga_prototype
from repro.experiments import fig1_flush_single
from repro.experiments.executor import (
    CaseSpec,
    RunResultCache,
    SweepExecutor,
)
from repro.experiments.manifest import (
    ExperimentDef,
    ShardSpec,
    build_manifest,
    parse_repetitions,
)
from repro.experiments.pipeline import (
    execute_shard,
    merge_artifacts,
    run_serial,
    shard_artifact_path,
)
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore
from repro.workloads.pairs import SINGLE_THREAD_PAIRS

#: Fixed scale for the pinned hashes and the identity checks (never from
#: REPRO_SCALE — pins must not depend on the environment).
PINNED_SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=600.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=2021)

#: Small but real simulation budget for the byte-identity proofs.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

PAIRS = SINGLE_THREAD_PAIRS[:2]

#: Synthetic two-case plan: keeps the pinned hashes independent of the
#: figure drivers' planning details (they may legitimately evolve), while
#: still covering everything the hash folds in — engine version, scale,
#: selection, repetitions and the expanded case set.
PINNED_REGISTRY = {
    "pinned": ExperimentDef(
        "pinned",
        plan=lambda scale: [
            CaseSpec("single", PAIRS[0], fpga_prototype(), "baseline", scale),
            CaseSpec("single", PAIRS[0], fpga_prototype(), "complete_flush",
                     scale),
        ],
        assemble=lambda scale, results: None),
}

#: Regression pins for the manifest hash (engine 2026.3-packed-btb).  These
#: change whenever ENGINE_VERSION, the CaseSpec key payload or the manifest
#: hash payload changes **intentionally** — update them in that commit.  What
#: they guarantee: a repetitions=1 and a repetitions=3 manifest of the same
#: plan can never silently collide onto one CI cache/store key.
PINNED_HASH_R1 = \
    "079bfe09bba927fecfd8ea9ee46a66723f628611b8616145beb6ae2c41343f80"
PINNED_HASH_R3 = \
    "3608587720a6929110a3ee632e8c07c8ef3518db31b8824dcff8f6f8daae178a"


def _figure1_registry(pairs=PAIRS):
    return {"figure1": ExperimentDef(
        "figure1",
        plan=lambda scale: fig1_flush_single.plan(scale, pairs=pairs),
        assemble=lambda scale, results: fig1_flush_single.assemble(
            scale, results, pairs=pairs))}


def _result_bytes(results):
    return json.dumps({key: result_to_dict(result)
                       for key, result in results.items()}, sort_keys=True)


class TestExpansion:
    def test_unique_cases_expand_by_repetitions(self):
        base = build_manifest(scale=TINY, experiments=_figure1_registry())
        reps = build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=3)
        assert len(reps.unique_cases()) == 3 * len(base.unique_cases())
        assert reps.total_planned() == 3 * base.total_planned()

    def test_repetition_zero_reuses_single_seed_cache_keys(self):
        # An N-seed run shares repetition 0 with a single-seed run, so the
        # store/cache entries of a plain run seed an averaged rerun.
        base = build_manifest(scale=TINY, experiments=_figure1_registry())
        reps = build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=3)
        assert set(base.unique_cases()) <= set(reps.unique_cases())

    def test_expanded_cases_differ_only_in_seed_offset(self):
        reps = build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=2)
        offsets = sorted({spec.seed_offset
                          for spec in reps.unique_cases().values()})
        assert offsets == [0, 1]

    def test_shards_partition_the_expanded_family(self):
        reps = build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=3)
        seen = []
        for index in range(3):
            seen.extend(reps.shard_cases(ShardSpec(index, 3)))
        assert sorted(seen) == sorted(reps.unique_cases())

    def test_duplicate_experiment_keys_are_deduped(self):
        # `--experiments figure1 figure1` must plan and hash exactly like
        # the single selection (else the CI store cache key would roll and
        # merges against deduped artifacts would fail the hash check).
        single = build_manifest(["figure1"], TINY,
                                experiments=_figure1_registry())
        doubled = build_manifest(["figure1", "figure1"], TINY,
                                 experiments=_figure1_registry())
        assert doubled.keys == ["figure1"]
        assert doubled.manifest_hash() == single.manifest_hash()
        assert doubled.total_planned() == single.total_planned()

    def test_describe_reports_repetitions(self):
        reps = build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=3)
        summary = reps.describe()
        assert summary["repetitions"] == 3
        assert summary["planned_cases"] == reps.total_planned()


class TestPinnedHash:
    def test_repetition_counts_never_collide(self):
        one = build_manifest(scale=PINNED_SCALE, experiments=PINNED_REGISTRY)
        three = build_manifest(scale=PINNED_SCALE, experiments=PINNED_REGISTRY,
                               repetitions=3)
        assert one.manifest_hash() == PINNED_HASH_R1, (
            "repetitions=1 manifest hash drifted; if the change to the hash "
            "payload/engine is intentional, update PINNED_HASH_R1")
        assert three.manifest_hash() == PINNED_HASH_R3, (
            "repetitions=3 manifest hash drifted; if the change to the hash "
            "payload/engine is intentional, update PINNED_HASH_R3")
        assert one.manifest_hash() != three.manifest_hash()

    def test_hash_depends_on_repetitions_beyond_the_case_set(self):
        # Belt and braces: a caseless-only manifest expands to the same
        # (empty) case set at every repetition count, so only the explicit
        # "repetitions" field of the hash payload separates these.
        caseless = {"caseless": ExperimentDef(
            "caseless", plan=lambda scale: [],
            assemble=lambda scale, results: None)}
        one = build_manifest(scale=PINNED_SCALE, experiments=caseless)
        three = build_manifest(scale=PINNED_SCALE, experiments=caseless,
                               repetitions=3)
        assert one.unique_cases() == three.unique_cases() == {}
        assert one.manifest_hash() != three.manifest_hash()


class TestParsing:
    @pytest.mark.parametrize("bad", ["0", "-1", "banana", "1.5", "", None])
    def test_malformed_repetitions_rejected(self, bad):
        with pytest.raises(ValueError, match="--repetitions"):
            parse_repetitions(bad)

    def test_valid_repetitions(self):
        assert parse_repetitions("3") == 3
        assert parse_repetitions(1) == 1

    def test_build_manifest_rejects_bad_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            build_manifest(scale=TINY, experiments=_figure1_registry(),
                           repetitions=0)


class TestPlanAt:
    def _manifest(self):
        registry = {"offset": ExperimentDef(
            "offset",
            plan=lambda scale: [CaseSpec("single", PAIRS[0], fpga_prototype(),
                                         "baseline", scale, seed_offset=5)],
            assemble=lambda scale, results: None)}
        return build_manifest(scale=TINY, experiments=registry,
                              repetitions=3)

    def test_shifts_seed_offsets(self):
        manifest = self._manifest()
        base = manifest.plans["offset"][0]
        assert manifest.plan_at("offset", 2)[0].seed_offset == 7
        assert base.seed_offset == 5  # original untouched
        assert manifest.plan_at("offset", 0)[0] is base

    def test_returns_the_expanded_instances(self):
        # Assembly reads the very specs unique_cases() hashed, so it
        # re-hashes no cache key.
        manifest = self._manifest()
        planned = [manifest.plan_at("offset", repetition)[0]
                   for repetition in range(3)]
        assert planned[2] is manifest.plan_at("offset", 2)[0]
        assert [id(spec) for spec in manifest.unique_cases().values()] \
            == [id(spec) for spec in planned]

    @pytest.mark.parametrize("repetition", [-1, 3])
    def test_rejects_repetitions_outside_the_manifest(self, repetition):
        with pytest.raises(ValueError, match="repetitions 0..2"):
            self._manifest().plan_at("offset", repetition)


class TestAggregationDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        manifest = build_manifest(scale=TINY,
                                  experiments=_figure1_registry(),
                                  repetitions=2)
        cache = RunResultCache(store=False)
        return run_serial(manifest, jobs=1, cache=cache)

    def _manifest(self):
        return build_manifest(scale=TINY, experiments=_figure1_registry(),
                              repetitions=2)

    def test_aggregated_output_has_error_bars(self, serial):
        figure = serial["figure1"].figure
        assert set(figure.errors) == set(figure.series)
        assert serial["figure1"].headers == ["series", "mean", "std", "95% CI"]

    def test_sharded_merge_matches_serial_in_any_order(self, serial,
                                                       tmp_path):
        manifest = self._manifest()
        for index in range(3):
            execute_shard(manifest, ShardSpec(index, 3), str(tmp_path),
                          jobs=1, cache=RunResultCache(store=False))
        paths = [shard_artifact_path(str(tmp_path), ShardSpec(i, 3))
                 for i in range(3)]
        expected = _result_bytes(serial)
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            merged = merge_artifacts([paths[i] for i in order],
                                     self._manifest())
            assert _result_bytes(merged) == expected, (
                f"aggregation depended on artifact order {order}")

    def test_store_exchange_matches_serial_in_any_ingest_order(self, serial,
                                                               tmp_path):
        # Each shard publishes into its own store and exports; a fresh
        # machine ingests the exports (in both orders) and replays the
        # aggregation with simulation forbidden.
        manifest = self._manifest()
        exports = []
        for index in range(2):
            store = ResultStore(str(tmp_path / f"store-{index}"))
            execute_shard(manifest, ShardSpec(index, 2),
                          str(tmp_path / "shards"), jobs=1,
                          cache=RunResultCache(store=store))
            path, count = store.export(str(tmp_path / f"export-{index}.json"))
            assert count > 0
            exports.append(path)

        expected = _result_bytes(serial)
        for order in ([0, 1], [1, 0]):
            merged_store = ResultStore(str(tmp_path / f"merged-{order[0]}"))
            for index in order:
                merged_store.ingest(exports[index])
            cache = RunResultCache(store=merged_store)
            replay = SweepExecutor(jobs=1, cache=cache,
                                   allow_simulation=False)
            results = run_serial(self._manifest(), executor=replay)
            assert replay.simulated == 0
            assert cache.store_hits == len(manifest.unique_cases())
            assert _result_bytes(results) == expected, (
                f"aggregation depended on ingest order {order}")

    def test_merge_rejects_mismatched_repetitions(self, tmp_path):
        manifest = self._manifest()
        execute_shard(manifest, None, str(tmp_path), jobs=1,
                      cache=RunResultCache(store=False))
        path = shard_artifact_path(str(tmp_path), None)
        single = build_manifest(scale=TINY, experiments=_figure1_registry())
        with pytest.raises(ValueError, match="repetitions"):
            merge_artifacts([path], single)


class TestNonRepeatableExperiments:
    def _registry(self):
        def assemble(scale, results):
            from repro.experiments.base import ExperimentResult

            return ExperimentResult(name="norep", description="figure-less",
                                    headers=["cycles"],
                                    rows=[[results[0].cycles]])

        return {"norep": ExperimentDef(
            "norep",
            plan=lambda scale: [CaseSpec("single", PAIRS[0], fpga_prototype(),
                                         "baseline", scale)],
            assemble=assemble, repeatable=False)}

    def test_registry_marks_figureless_tables_non_repeatable(self):
        from repro.experiments.manifest import experiment_registry

        registry = experiment_registry()
        for key in ("table4", "ablation_encoder", "ablation_key_refresh"):
            assert not registry[key].repeatable, (
                f"{key} has no figure: N-seed expansion would simulate "
                "repetitions its tabular fold must discard")
        for key in ("figure1", "figure8", "smt4_noisy_xor"):
            assert registry[key].repeatable

    def test_no_expansion_and_single_trajectory_assembly(self):
        reps = build_manifest(scale=TINY, experiments=self._registry(),
                              repetitions=3)
        base = build_manifest(scale=TINY, experiments=self._registry())
        assert list(reps.unique_cases()) == list(base.unique_cases())
        assert reps.total_planned() == base.total_planned() == 1
        executor = SweepExecutor(jobs=1, cache=RunResultCache(store=False))
        aggregated = run_serial(reps, executor=executor)
        assert executor.simulated == 1  # no hidden per-seed re-simulation
        single = run_serial(base, jobs=1,
                            cache=RunResultCache(store=False))
        assert _result_bytes(aggregated) == _result_bytes(single)


class TestSingleRepetitionIdentity:
    def test_default_manifest_is_unchanged_by_the_repetition_machinery(self):
        explicit = build_manifest(scale=PINNED_SCALE,
                                  experiments=PINNED_REGISTRY, repetitions=1)
        implicit = build_manifest(scale=PINNED_SCALE,
                                  experiments=PINNED_REGISTRY)
        assert explicit.manifest_hash() == implicit.manifest_hash()
        assert list(explicit.unique_cases()) == list(implicit.unique_cases())

    def test_single_repetition_results_carry_no_error_bars(self):
        manifest = build_manifest(scale=TINY,
                                  experiments=_figure1_registry())
        results = run_serial(manifest, jobs=1,
                             cache=RunResultCache(store=False))
        figure = results["figure1"].figure
        assert figure.errors == {}
        payload = result_to_dict(results["figure1"])
        assert "errors" not in payload["figure"]
