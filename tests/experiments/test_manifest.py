"""Tests for the declarative experiment-manifest layer.

Covers the planning protocol (every case-based driver's ``plan()`` is
non-empty and stable), cross-experiment dedupe, the deterministic shard
partitioning invariants (disjoint, covering, stable under experiment
reordering), and the strict ``i/n`` shard parsing.
"""

import pytest

from repro.analysis.export import result_to_dict
from repro.cpu.stats import RunResult, ThreadStats
from repro.experiments.manifest import (
    ShardSpec,
    build_manifest,
    env_shard,
    experiment_registry,
    format_stats_line,
    parse_shard,
)
from repro.experiments.scaling import ExperimentScale

#: Tiny scale: planning never simulates, so this only affects cache keys.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

#: Experiments that run their simulations through CaseSpecs.
CASE_BASED = ["figure1", "figure2", "figure3", "figure7", "figure8",
              "figure9", "figure10", "table4", "ablation_encoder",
              "ablation_key_refresh", "ablation_switch_interval",
              "ablation_penalty", "smt4_noisy_xor"]

#: Experiments with no executor cases (config tables, attack-based studies);
#: they are assigned whole to a shard instead.
CASELESS = ["table1", "table2", "table3", "table5", "poc_attacks",
            "ablation_pht_granularity"]


class TestRegistry:
    def test_case_based_and_caseless_partition_the_registry(self):
        assert set(CASE_BASED) | set(CASELESS) == set(experiment_registry())
        assert not set(CASE_BASED) & set(CASELESS)


class TestPlans:
    @pytest.mark.parametrize("key", CASE_BASED)
    def test_case_based_plans_are_non_empty(self, key):
        specs = experiment_registry()[key].plan(TINY)
        assert specs, f"{key}.plan() enumerated no cases"

    @pytest.mark.parametrize("key", CASELESS)
    def test_caseless_plans_are_empty(self, key):
        assert experiment_registry()[key].plan(TINY) == []

    @pytest.mark.parametrize("key", sorted(experiment_registry()))
    def test_plans_are_stable(self, key):
        # Two plan() calls must enumerate identical cases in identical order:
        # the shard executing a case and the merge assembling from it both
        # re-plan independently.
        definition = experiment_registry()[key]
        first = [spec.cache_key() for spec in definition.plan(TINY)]
        second = [spec.cache_key() for spec in definition.plan(TINY)]
        assert first == second

    def test_plans_depend_on_scale(self):
        definition = experiment_registry()["figure1"]
        other = ExperimentScale(seed=8)
        first = {spec.cache_key() for spec in definition.plan(TINY)}
        second = {spec.cache_key() for spec in definition.plan(other)}
        assert not first & second


def _synthetic(spec, position, factor=1.0):
    """A position-dependent stand-in for a simulated case; ``factor`` scales
    every cycle count."""
    cycles = factor * (1_000_000.0 + 10_000.0 * position)
    threads = {
        name: ThreadStats(name=name, instructions=400_000, branches=80_000,
                          conditional_branches=60_000,
                          direction_mispredicts=2_000 + 10 * position,
                          target_mispredicts=300, btb_lookups=80_000,
                          btb_hits=70_000,
                          cycles=cycles / len(spec.pair.benchmarks))
        for name in spec.pair.benchmarks}
    return RunResult(config_name=spec.config.name, mechanism=spec.preset,
                     predictor=spec.config.predictor, cycles=cycles,
                     instructions=400_000 * len(threads), threads=threads,
                     context_switches=40, privilege_switches=400,
                     time_scale=spec.scale.time_scale)


class TestAssemblyReadsEveryCase:
    @pytest.mark.parametrize("key", CASE_BASED)
    def test_every_planned_case_changes_the_result(self, key):
        # An unread case would be a simulation wasted on every run: slow
        # each planned case down in turn and the assembly must notice.
        definition = experiment_registry()[key]
        specs = definition.plan(TINY)
        results = [_synthetic(spec, i) for i, spec in enumerate(specs)]
        reference = result_to_dict(definition.assemble(TINY, results))
        for i, spec in enumerate(specs):
            slowed = list(results)
            slowed[i] = _synthetic(spec, i, factor=1.5)
            assert result_to_dict(definition.assemble(TINY, slowed)) \
                != reference, f"{key} never reads case {i} ({spec.label})"


class TestManifest:
    def test_cross_experiment_dedupe(self):
        # Figures 7, 8 and 9 share their per-pair baselines; the manifest
        # must plan each shared case once.
        manifest = build_manifest(["figure7", "figure8", "figure9"], TINY)
        assert manifest.total_planned() > len(manifest.unique_cases())

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="figure99"):
            build_manifest(["figure99"], TINY)

    def test_hash_is_stable_and_order_invariant(self):
        forward = build_manifest(["figure1", "figure8"], TINY)
        backward = build_manifest(["figure8", "figure1"], TINY)
        assert forward.manifest_hash() == backward.manifest_hash()
        assert forward.manifest_hash() == \
            build_manifest(["figure1", "figure8"], TINY).manifest_hash()

    def test_hash_depends_on_selection_and_scale(self):
        base = build_manifest(["figure1"], TINY)
        assert base.manifest_hash() != \
            build_manifest(["figure8"], TINY).manifest_hash()
        assert base.manifest_hash() != \
            build_manifest(["figure1"], ExperimentScale(seed=8)).manifest_hash()

    def test_describe_counts(self):
        manifest = build_manifest(["figure1", "table5"], TINY)
        summary = manifest.describe()
        assert summary["experiments"]["figure1"] > 0
        assert summary["experiments"]["table5"] == 0
        assert summary["caseless_experiments"] == ["table5"]
        assert summary["unique_cases"] <= summary["planned_cases"]


class TestCaselessLabel:
    def test_full_manifest_names_the_attack_studies(self):
        manifest = build_manifest(scale=TINY)
        assert manifest.caseless_label() == (
            "caseless: 3 re-run (table1, poc_attacks, "
            "ablation_pht_granularity), 3 static")

    def test_label_follows_the_selection(self):
        assert build_manifest(["figure1"], scale=TINY).caseless_label() \
            == "caseless: 0 re-run, 0 static"
        assert build_manifest(["table2", "poc_attacks"],
                              scale=TINY).caseless_label() \
            == "caseless: 1 re-run (poc_attacks), 1 static"

    def test_stats_line_keeps_the_greppable_prefix(self):
        line = format_stats_line(5, 0, 5, "caseless: 0 re-run, 1 static")
        assert line.startswith("cases: 5 unique, 0 simulated, 5 store hit(s)")
        assert line.endswith("; caseless: 0 re-run, 1 static")


class TestSharding:
    def _manifest(self, keys=("figure1", "figure8", "table5", "poc_attacks")):
        return build_manifest(list(keys), TINY)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
    def test_shards_are_disjoint_and_covering(self, count):
        manifest = self._manifest()
        seen = []
        for index in range(count):
            seen.extend(manifest.shard_cases(ShardSpec(index, count)))
        assert sorted(seen) == sorted(manifest.unique_cases())
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_caseless_experiments_are_disjoint_and_covering(self, count):
        manifest = self._manifest()
        seen = []
        for index in range(count):
            seen.extend(manifest.shard_caseless(ShardSpec(index, count)))
        assert sorted(seen) == sorted(manifest.caseless_keys())

    def test_assignment_is_stable_under_experiment_reordering(self):
        # A case's shard is a pure function of its cache key: selecting more
        # experiments, or the same ones in another order, must not move it.
        small = build_manifest(["figure8"], TINY)
        large = build_manifest(["figure1", "figure7", "figure8"], TINY)
        reordered = build_manifest(["figure8", "figure7", "figure1"], TINY)
        shard = ShardSpec(1, 3)
        small_keys = set(small.shard_cases(shard))
        large_keys = set(large.shard_cases(shard))
        assert small_keys <= large_keys
        assert large_keys == set(reordered.shard_cases(shard))

    def test_shard_none_means_everything(self):
        manifest = self._manifest()
        assert manifest.shard_cases(None) == manifest.unique_cases()
        assert manifest.shard_caseless(None) == manifest.caseless_keys()


class TestShardParsing:
    def test_valid_shards(self):
        assert parse_shard("0/4") == ShardSpec(0, 4)
        assert parse_shard(" 3/4 ") == ShardSpec(3, 4)
        assert str(ShardSpec(2, 5)) == "2/5"

    @pytest.mark.parametrize("bad", ["3/2", "4/4", "0/0", "-1/2", "a/b",
                                     "1", "1/2/3", "", "1/ 2"])
    def test_malformed_shards_rejected(self, bad):
        with pytest.raises(ValueError, match="REPRO_SHARD"):
            parse_shard(bad)

    def test_env_shard(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert env_shard() is None
        monkeypatch.setenv("REPRO_SHARD", "1/2")
        assert env_shard() == ShardSpec(1, 2)
        monkeypatch.setenv("REPRO_SHARD", "3/2")
        with pytest.raises(ValueError, match="REPRO_SHARD"):
            env_shard()
