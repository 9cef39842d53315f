"""Tests for the parallel caching sweep executor."""

import dataclasses

import pytest

from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.experiments.executor import (
    CaseSpec,
    ExecutionError,
    RunResultCache,
    SweepExecutor,
    env_jobs,
)
from repro.experiments.runner import (
    overhead_figure_single_thread,
    plan_overhead_single_thread,
    plan_overhead_smt,
)
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS

#: Deliberately tiny budgets: these tests exercise plumbing, not physics.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

CONFIG = fpga_prototype("gshare", n_entries=2048)
SMT_CONFIG = sunny_cove_smt("gshare", n_entries=2048)


def _spec(preset="baseline", **overrides):
    defaults = dict(kind="single", pair=SINGLE_THREAD_PAIRS[0], config=CONFIG,
                    preset=preset, scale=TINY)
    defaults.update(overrides)
    return CaseSpec(**defaults)


class TestCacheKey:
    def test_identical_specs_share_a_key(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_preset_changes_the_key(self):
        assert _spec().cache_key() != _spec(preset="complete_flush").cache_key()

    def test_scale_changes_the_key(self):
        other = dataclasses.replace(TINY, st_target_branches=2_000)
        assert _spec().cache_key() != _spec(scale=other).cache_key()

    def test_switch_interval_changes_the_key(self):
        assert _spec().cache_key() != _spec(switch_interval=4_000_000).cache_key()

    def test_label_is_not_part_of_the_key(self):
        assert _spec(label="a").cache_key() == _spec(label="b").cache_key()

    def test_engine_version_changes_the_key(self, monkeypatch):
        # An engine-version bump must invalidate every cached entry: stale
        # results from an older kernel generation may differ bit-for-bit.
        before = _spec().cache_key()
        monkeypatch.setattr("repro.experiments.executor.ENGINE_VERSION",
                            "0000.0-test-bump")
        assert _spec().cache_key() != before

    def test_engine_version_bump_misses_the_store(self, tmp_path,
                                                  monkeypatch):
        # Publish a case to a result store under the current engine
        # version, then bump the version: the same spec must re-simulate
        # (the stored entry is unused).
        def fresh_executor() -> SweepExecutor:
            store = ResultStore(str(tmp_path))
            return SweepExecutor(jobs=1, cache=RunResultCache(store=store))

        executor = fresh_executor()
        executor.run_spec(_spec())
        assert executor.simulated == 1

        monkeypatch.setattr("repro.experiments.executor.ENGINE_VERSION",
                            "0000.0-test-bump")
        bumped = fresh_executor()
        bumped.run_spec(_spec())
        assert bumped.simulated == 1  # entry from the old engine ignored
        assert bumped.cache.store_hits == 0

        # Undoing the bump makes the stored entry a hit again.
        monkeypatch.undo()
        rerun = fresh_executor()
        rerun.run_spec(_spec())
        assert rerun.simulated == 0
        assert rerun.cache.store_hits == 1


class TestRunResultCache:
    def test_memory_roundtrip(self):
        cache = RunResultCache()
        executor = SweepExecutor(jobs=1, cache=cache)
        result = executor.run_spec(_spec())
        assert cache.get(_spec().cache_key()).cycles == result.cycles

    def test_store_roundtrip_across_fresh_caches(self, tmp_path):
        cache = RunResultCache(store=ResultStore(str(tmp_path)))
        executor = SweepExecutor(jobs=1, cache=cache)
        result = executor.run_spec(_spec())
        # A fresh cache instance (new process, conceptually) reads the
        # published store entry.
        fresh = RunResultCache(store=ResultStore(str(tmp_path)))
        restored = fresh.get(_spec().cache_key())
        assert restored is not None
        assert fresh.store_hits == 1
        assert restored.cycles == result.cycles
        assert restored.threads.keys() == result.threads.keys()
        for name, stats in result.threads.items():
            assert restored.threads[name].branches == stats.branches

    @pytest.mark.parametrize("directory", [None, False])
    def test_memory_only_directory_values_are_accepted(self, tmp_path,
                                                       directory):
        # The benchmark harness builds its caches as
        # RunResultCache(directory=False, store=...): both memory-only
        # spellings must keep working and leave the store wiring intact.
        store = ResultStore(str(tmp_path))
        cache = RunResultCache(directory=directory, store=store)
        assert cache.store is store
        SweepExecutor(jobs=1, cache=cache).run_spec(_spec())
        assert store.get(_spec().cache_key()) is not None

    def test_directory_path_is_rejected(self, tmp_path):
        # The cache has no disk level: a path must fail loudly instead of
        # silently dropping the persistence the caller asked for.
        with pytest.raises(TypeError, match="REPRO_STORE_DIR"):
            RunResultCache(directory=str(tmp_path))


class TestSweepExecutor:
    def test_duplicate_specs_simulate_once(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        results = executor.run_specs([_spec(), _spec(), _spec()])
        assert executor.simulated == 1
        assert results[0] is results[1] is results[2]

    def test_results_keep_submission_order(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        specs = [_spec(preset="baseline"), _spec(preset="complete_flush"),
                 _spec(preset="baseline")]
        results = executor.run_specs(specs)
        assert results[0].mechanism == "baseline"
        assert results[1].mechanism == "complete_flush"
        assert results[2] is results[0]

    def test_parallel_results_match_serial(self):
        serial = SweepExecutor(jobs=1, cache=RunResultCache())
        parallel = SweepExecutor(jobs=2, cache=RunResultCache())
        specs = [_spec(preset="baseline"), _spec(preset="complete_flush")]
        expected = serial.run_specs(specs)
        observed = parallel.run_specs([_spec(preset="baseline"),
                                       _spec(preset="complete_flush")])
        assert [r.cycles for r in observed] == [r.cycles for r in expected]
        assert [r.mechanism for r in observed] == [r.mechanism for r in expected]

    def test_env_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert env_jobs() == 4

    @pytest.mark.parametrize("bad", ["banana", "0", "-2", "1.5", ""])
    def test_env_jobs_rejects_malformed_values(self, bad, monkeypatch):
        # A typo'd REPRO_JOBS used to silently run serially (or crash deep in
        # the pool setup); now it fails at parse time, naming the variable.
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            env_jobs()

    def test_replay_only_executor_rejects_uncached_cases(self):
        cache = RunResultCache()
        warm = SweepExecutor(jobs=1, cache=cache)
        warm.run_spec(_spec())
        replay = SweepExecutor(jobs=1, cache=cache, allow_simulation=False)
        # The cached case replays fine; an uncached one must fail loudly.
        assert replay.run_spec(_spec()).mechanism == "baseline"
        assert replay.simulated == 0
        with pytest.raises(RuntimeError, match="replay-only"):
            replay.run_spec(_spec(preset="complete_flush"))

    def test_unknown_kind_rejected(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        # A deterministic misconfiguration is not retried (no backoff burn)
        # and surfaces as a structured ExecutionError after one attempt.
        with pytest.raises(ExecutionError, match="unknown case kind"):
            executor.run_spec(_spec(kind="gpu"))
        assert len(executor.failures) == 1
        assert executor.failures[0].attempts == 1
        assert executor.failures[0].error == "ValueError"


class TestSweepIntegration:
    def test_single_thread_plan_runs_baseline_once_per_pair(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pairs = SINGLE_THREAD_PAIRS[:2]
        # A series that names the baseline again must reuse the pair's
        # baseline run rather than simulate it twice.
        specs = plan_overhead_single_thread(
            [("baseline", "baseline", None),
             ("complete_flush", "complete_flush", None)], pairs, CONFIG, TINY)
        results = executor.run_specs(specs)
        # 2 pairs x (baseline + complete_flush) = 4 simulations, no dupes.
        assert executor.simulated == 4
        assert len(results) == len(specs) == 6
        assert results[0] == results[2] and results[1] == results[3]

    def test_smt_plan_dedupes_baseline(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pair = SMT2_PAIRS[0]
        executor.run_specs(plan_overhead_smt(
            [("complete_flush", "complete_flush")], [pair], SMT_CONFIG, TINY))
        simulated_after_first = executor.simulated
        assert simulated_after_first == 2
        # A second sweep naming baseline again must not re-simulate it.
        executor.run_specs(plan_overhead_smt([], [pair], SMT_CONFIG, TINY))
        assert executor.simulated == simulated_after_first

    def test_figure_driver_shares_baselines_with_sweeps(self):
        executor = SweepExecutor(jobs=1, cache=RunResultCache())
        pairs = SINGLE_THREAD_PAIRS[:2]
        executor.run_specs(plan_overhead_single_thread([], pairs, CONFIG, TINY))
        baseline_runs = executor.simulated
        figure, baselines = overhead_figure_single_thread(
            "fig", "test figure", [("CF", "complete_flush", None)], list(pairs),
            config=CONFIG, scale=TINY, executor=executor)
        # Only the complete_flush series is new; baselines come from cache.
        assert executor.simulated == baseline_runs + len(pairs)
        assert set(baselines) == {p.case for p in pairs}
        assert "CF" in figure.series

    def test_parallel_sweep_matches_serial(self):
        specs = plan_overhead_single_thread([], SINGLE_THREAD_PAIRS[:2],
                                            CONFIG, TINY)
        serial = SweepExecutor(jobs=1, cache=RunResultCache()).run_specs(specs)
        parallel = SweepExecutor(jobs=2,
                                 cache=RunResultCache()).run_specs(specs)
        assert [result.cycles for result in serial] \
            == [result.cycles for result in parallel]
