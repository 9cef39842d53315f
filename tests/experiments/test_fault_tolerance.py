"""Tests for the fault-tolerant execution layer.

Every recovery path is exercised deterministically through the
``REPRO_FAULT_SPEC`` injection harness (:mod:`repro.testing.faults`):
retry-to-success, retry exhaustion (fail-fast and ``keep_going``), timeout
classification, worker-crash (``BrokenProcessPool``) recovery, real
hang-then-timeout pool abandonment, Ctrl-C propagation, crash-then-rerun
served from the shard's result store, torn-write detection and orphaned
tmp-file sweeping.

The headline invariant: a run that crashed mid-shard and was rerun produces
case payloads — and therefore merged figures — **bit-identical** to an
uninterrupted run.  (Shard-artifact ``stats`` legitimately differ:
they record what each execution actually simulated.)
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.cpu.config import fpga_prototype
from repro.experiments import fig1_flush_single
from repro.experiments.executor import (
    CaseSpec,
    ExecutionError,
    RunResultCache,
    SweepExecutor,
    atomic_write_json,
    sweep_tmp_files,
)
from repro.experiments.manifest import (
    ExperimentDef,
    ShardSpec,
    build_manifest,
)
from repro.experiments.pipeline import (
    execute_shard,
    failure_manifest_path,
    load_artifact,
    merge_artifacts,
    shard_artifact_path,
)
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore
from repro.testing.faults import (
    FaultClause,
    InjectedFault,
    parse_fault_spec,
)
from repro.workloads import SINGLE_THREAD_PAIRS

#: Deliberately tiny budgets: these tests exercise plumbing, not physics.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

CONFIG = fpga_prototype("gshare", n_entries=2048)


def _spec(preset="baseline", **overrides):
    defaults = dict(kind="single", pair=SINGLE_THREAD_PAIRS[0], config=CONFIG,
                    preset=preset, scale=TINY)
    defaults.update(overrides)
    return CaseSpec(**defaults)


def _cache():
    # Memory-only: isolated from any REPRO_STORE_DIR.
    return RunResultCache(store=False)


def _executor(jobs=1, *, retries=0, keep_going=False, timeout=False,
              cache=None, **kwargs):
    # backoff=0: the retry paths must run instantly in tier-1.
    return SweepExecutor(jobs=jobs, cache=cache or _cache(), retries=retries,
                         backoff=0, keep_going=keep_going, timeout=timeout,
                         **kwargs)


class TestFaultSpecParsing:
    def test_clauses_round_trip(self):
        clauses = parse_fault_spec(
            "crash:case_idx=1,timeout:key~fig8;attempts=99,"
            "hang:seconds=2.5,torn_write:path~shard-,fail,interrupt")
        assert [c.kind for c in clauses] == [
            "crash", "timeout", "hang", "torn_write", "fail", "interrupt"]
        assert clauses[0] == FaultClause("crash", case_idx=1)
        assert clauses[1] == FaultClause("timeout", match="fig8", attempts=99)
        assert clauses[2].seconds == 2.5
        assert clauses[3].matches_path("out/shard-0-of-2.json")
        assert not clauses[3].matches_path("out/figure1.json")

    def test_unknown_kind_is_named_error(self):
        with pytest.raises(ValueError,
                           match="REPRO_FAULT_SPEC.*unknown fault kind"):
            parse_fault_spec("explode:case_idx=0")

    def test_unknown_selector_is_named_error(self):
        with pytest.raises(ValueError, match="unknown selector"):
            parse_fault_spec("fail:when=later")

    def test_malformed_int_is_named_error(self):
        with pytest.raises(ValueError, match="case_idx"):
            parse_fault_spec("fail:case_idx=one")

    def test_attempts_window(self):
        clause = parse_fault_spec("fail:attempts=2")[0]
        assert clause.matches_case(index=0, key="k", label="l", attempt=1)
        assert clause.matches_case(index=0, key="k", label="l", attempt=2)
        assert not clause.matches_case(index=0, key="k", label="l", attempt=3)

    def test_bad_spec_fails_at_executor_construction(self, monkeypatch):
        # Not as a cryptic crash inside the first worker.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode")
        with pytest.raises(ValueError, match="REPRO_FAULT_SPEC"):
            SweepExecutor(jobs=1, cache=_cache())


class TestSerialFaults:
    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        clean = _executor().run_spec(_spec())
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=1")
        executor = _executor(retries=2)
        result = executor.run_spec(_spec())
        assert executor.failures == []
        assert executor.simulated == 1
        assert result.cycles == clean.cycles

    def test_retry_exhaustion_is_a_structured_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=99")
        executor = _executor(retries=1)
        with pytest.raises(ExecutionError, match="injected fail"):
            executor.run_spec(_spec())
        (failure,) = executor.failures
        assert failure.attempts == 2  # first try + one retry
        assert failure.error == "InjectedFault"
        assert failure.timed_out is False
        assert failure.key == _spec().cache_key()

    def test_keep_going_completes_healthy_cases(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=99")
        executor = _executor(keep_going=True)
        results = executor.run_specs([_spec(), _spec(preset="complete_flush")])
        assert results[0] is None
        assert results[1] is not None and results[1].mechanism == "complete_flush"
        (failure,) = executor.failures
        assert failure.error == "InjectedCrash"  # serial degrades the kill

    def test_injected_timeout_classifies_as_timed_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "timeout:attempts=99")
        executor = _executor(keep_going=True)
        assert executor.run_spec(_spec()) is None
        assert executor.failures[0].timed_out is True

    def test_interrupt_propagates(self, monkeypatch):
        # KeyboardInterrupt is never swallowed by the retry machinery; the
        # CLI maps it to exit code 130.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "interrupt")
        with pytest.raises(KeyboardInterrupt):
            _executor(retries=5).run_spec(_spec())

    def test_failed_key_is_not_retried_within_executor_lifetime(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=99")
        executor = _executor(keep_going=True)
        assert executor.run_spec(_spec()) is None
        # A later batch naming the same case reuses the failure verdict
        # instead of burning the retry budget again.
        assert executor.run_specs([_spec()]) == [None]
        assert len(executor.failures) == 1


class TestParallelFaults:
    SPECS = staticmethod(lambda: [
        _spec(preset="baseline"), _spec(preset="complete_flush")])

    def test_worker_crash_recovers_bit_identically(self, monkeypatch):
        expected = _executor().run_specs(self.SPECS())
        # Attempt 1 of case 0 hard-kills its worker (BrokenProcessPool);
        # the pool is rebuilt and both cases — the crasher and any
        # co-victim — retry and succeed.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=1")
        executor = _executor(jobs=2, retries=2)
        observed = executor.run_specs(self.SPECS())
        assert executor.failures == []
        assert [r.cycles for r in observed] == [r.cycles for r in expected]
        assert [r.mechanism for r in observed] \
            == [r.mechanism for r in expected]

    def test_worker_crash_exhaustion_under_keep_going(self, monkeypatch):
        # Every case crashes its worker on every attempt.  A broken pool
        # cannot tell the crasher from its co-victims, so each in-flight
        # case consumes an attempt per break; with retries=1 both exhaust
        # after two pool rebuilds — and keep_going still returns instead of
        # raising, with one structured failure per case.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:attempts=99")
        executor = _executor(jobs=2, retries=1, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results == [None, None]
        assert len(executor.failures) == 2
        assert {f.error for f in executor.failures} == {"BrokenProcessPool"}
        assert {f.attempts for f in executor.failures} == {2}

    def test_injected_timeout_in_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "timeout:case_idx=1;attempts=99")
        executor = _executor(jobs=2, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results[0] is not None
        assert results[1] is None
        failure = next(f for f in executor.failures
                       if f.key == _spec(preset="complete_flush").cache_key())
        assert failure.timed_out is True

    def test_real_hang_expires_against_the_case_timeout(self, monkeypatch):
        # The one wall-clock test: a worker wedges (sleeps 4 s) and the
        # parent classifies it as CaseTimeout after ~1 s, abandons the pool
        # it cannot preempt, and still completes the healthy case.  The 4x
        # margin between the hang and the timeout keeps this robust on slow
        # machines without signals or flaky short sleeps.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "hang:case_idx=0;seconds=4")
        executor = _executor(jobs=2, timeout=1.0, keep_going=True)
        results = executor.run_specs(self.SPECS())
        assert results[0] is None
        assert results[1] is not None
        failure = next(f for f in executor.failures
                       if f.key == _spec().cache_key())
        assert failure.error == "CaseTimeout"
        assert failure.timed_out is True


#: Golden-restricted Figure 1 registry for the shard rerun tests.
PAIRS = SINGLE_THREAD_PAIRS[:2]
REGISTRY = {
    "figure1": ExperimentDef(
        "figure1",
        plan=lambda scale: fig1_flush_single.plan(scale, pairs=PAIRS),
        assemble=lambda scale, results: fig1_flush_single.assemble(
            scale, results, pairs=PAIRS)),
}


def _manifest():
    return build_manifest(scale=TINY, experiments=REGISTRY)


class TestStoreRerun:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("reference"))
        return execute_shard(_manifest(), None, out, jobs=1, cache=_cache())

    def test_crash_then_rerun_matches_uninterrupted_run(
            self, reference, tmp_path, monkeypatch):
        manifest = _manifest()
        out = str(tmp_path / "crashed")

        # Case 5 fails permanently: serial execution completes (and
        # publishes to the store under ``out``) cases 0-4, then aborts.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=5;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with pytest.raises(ExecutionError):
            execute_shard(manifest, None, out, jobs=1, cache=_cache())
        assert not os.path.exists(shard_artifact_path(out, None))
        assert len(ResultStore(os.path.join(out, "store"))) == 5

        # Faults cleared, rerunning the same shard serves the finished cases
        # from the store and simulates only the remainder.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache())
        rerun = load_artifact(path)
        ref = load_artifact(reference)
        total = len(manifest.unique_cases())
        assert rerun["stats"]["simulated"] == total - 5
        assert rerun["stats"]["store_hits"] == 5
        assert ref["stats"]["simulated"] == total

        # Case payloads are bit-identical; only the execution-history stats
        # block differs.
        assert rerun["cases"] == ref["cases"]
        assert {k: v for k, v in rerun.items() if k != "stats"} \
            == {k: v for k, v in ref.items() if k != "stats"}

        # And therefore the merged figures are byte-identical files.
        ref_merged = str(tmp_path / "m-ref")
        rerun_merged = str(tmp_path / "m-rerun")
        merge_artifacts([reference], manifest, out_dir=ref_merged)
        merge_artifacts([path], manifest, out_dir=rerun_merged)
        for name in ("figure1.json", "figure1.txt"):
            with open(os.path.join(ref_merged, name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(rerun_merged, name), "rb") as handle:
                assert handle.read() == expected, f"{name} drifted"

    def test_torn_entry_after_crash_resimulates_on_rerun(
            self, reference, tmp_path, monkeypatch):
        manifest = _manifest()
        out = str(tmp_path / "torn")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=5;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with pytest.raises(ExecutionError):
            execute_shard(manifest, None, out, jobs=1, cache=_cache())

        # Tear one finished case's entry, as a crash of the machine between
        # the write and the page-cache flush would.
        store = ResultStore(os.path.join(out, "store"))
        torn = store.entry_path(store.keys()[0])
        with open(torn, "rb") as handle:
            intact = handle.read()
        with open(torn, "wb") as handle:
            handle.write(intact[: len(intact) // 2])

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache())
        rerun = load_artifact(path)
        total = len(manifest.unique_cases())
        assert rerun["stats"]["store_hits"] == 4
        assert rerun["stats"]["simulated"] == total - 4
        assert len(store.quarantined()) == 1
        assert rerun["cases"] == load_artifact(reference)["cases"]

    def test_another_runs_entries_are_not_served(self, tmp_path):
        out = str(tmp_path / "shared")
        execute_shard(_manifest(), None, out, jobs=1, cache=_cache())
        # Same experiments and out_dir, another seed: every case key
        # differs, so nothing the first run stored is served.
        other = build_manifest(scale=dataclasses.replace(TINY, seed=8),
                               experiments=REGISTRY)
        total = len(other.unique_cases())
        artifact = load_artifact(
            execute_shard(other, None, out, jobs=1, cache=_cache()))
        assert artifact["stats"]["store_hits"] == 0
        assert artifact["stats"]["simulated"] == total
        assert len(ResultStore(os.path.join(out, "store"))) == 2 * total

    def test_other_shards_entries_are_not_served(self, reference, tmp_path):
        manifest = _manifest()
        out = str(tmp_path / "split")
        first, second = ShardSpec(0, 2), ShardSpec(1, 2)
        path0 = execute_shard(manifest, first, out, jobs=1, cache=_cache())
        # Shard 1 shares shard 0's out_dir and so its store, but reads only
        # the keys it owns and publishes only those.
        path1 = execute_shard(manifest, second, out, jobs=1, cache=_cache())
        art0, art1 = load_artifact(path0), load_artifact(path1)
        assert art1["stats"]["store_hits"] == 0
        assert sorted(art1["cases"]) == sorted(manifest.shard_cases(second))
        assert not set(art0["cases"]) & set(art1["cases"])
        assert len(ResultStore(os.path.join(out, "store"))) \
            == len(manifest.unique_cases())

        merged = str(tmp_path / "m-split")
        ref_merged = str(tmp_path / "m-ref")
        merge_artifacts([path0, path1], manifest, out_dir=merged)
        merge_artifacts([reference], manifest, out_dir=ref_merged)
        for name in ("figure1.json", "figure1.txt"):
            with open(os.path.join(ref_merged, name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(merged, name), "rb") as handle:
                assert handle.read() == expected, f"{name} drifted"

    def test_keep_going_writes_a_failure_manifest(self, tmp_path,
                                                  monkeypatch):
        manifest = _manifest()
        out = str(tmp_path / "keepgoing")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                             keep_going=True)
        fpath = failure_manifest_path(out, None)
        with open(fpath, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["failures"][0]["error"] == "InjectedCrash"
        # figure1 is case-based: it assembles at merge time, where the hole
        # fails the exactly-once check loudly — no caseless failures here.
        assert payload["failed_experiments"] == {}
        artifact = load_artifact(path)
        assert len(artifact["cases"]) == len(manifest.unique_cases()) - 1

        # A later clean run of the same shard clears the stale manifest —
        # the file's existence is the machine-readable failure signal.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                      keep_going=True)
        assert not os.path.exists(fpath)

    def test_caseless_assembly_failure_is_recorded(self, tmp_path):
        def _boom(scale, results):
            raise RuntimeError("kaput")

        registry = dict(REGISTRY)
        registry["boom"] = ExperimentDef("boom", plan=lambda scale: [],
                                         assemble=_boom)
        manifest = build_manifest(scale=TINY, experiments=registry)
        out = str(tmp_path / "caseless")
        with pytest.raises(RuntimeError, match="kaput"):
            execute_shard(manifest, None, out, jobs=1, cache=_cache())
        path = execute_shard(manifest, None, out, jobs=1, cache=_cache(),
                             keep_going=True)
        with open(failure_manifest_path(out, None),
                  encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["failed_experiments"] == {"boom": "RuntimeError: kaput"}
        assert payload["failures"] == []
        # The healthy cases (and figure1's artifact entry set) are intact.
        artifact = load_artifact(path)
        assert len(artifact["cases"]) == len(manifest.unique_cases())
        assert "boom" not in artifact["experiment_results"]


class TestTornWritesAndSweep:
    def test_torn_write_leaves_truncated_doc_and_orphan_tmp(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "torn_write:path~victim.json")
        victim = str(tmp_path / "victim.json")
        atomic_write_json(victim, {"payload": list(range(64))})
        with pytest.raises(ValueError):
            json.loads(open(victim, encoding="utf-8").read())
        orphans = [name for name in os.listdir(str(tmp_path))
                   if ".tmp." in name]
        assert orphans == [f"victim.json.tmp.{os.getpid()}"]
        # Unmatched paths still write atomically.
        clean = str(tmp_path / "clean.json")
        atomic_write_json(clean, {"ok": True})
        assert json.loads(open(clean, encoding="utf-8").read()) == {"ok": True}

    def test_sweep_removes_dead_writers_tmp_and_keeps_live(self, tmp_path):
        live = tmp_path / f"entry.json.tmp.{os.getpid()}"
        live.write_text("{}")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead = tmp_path / f"other.json.tmp.{proc.pid}"
        dead.write_text("{}")
        not_a_tmp = tmp_path / "entry.json"
        not_a_tmp.write_text("{}")
        removed = sweep_tmp_files(str(tmp_path))
        assert removed == [str(dead)]
        assert live.exists() and not_a_tmp.exists() and not dead.exists()

    def test_torn_store_entry_is_quarantined_on_contact(
            self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "torn_write:path~" + store_dir)
        store = ResultStore(store_dir)
        writer = SweepExecutor(jobs=1, cache=RunResultCache(store=store),
                               retries=0, backoff=0)
        writer.run_spec(_spec())  # store entry written torn

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        fresh = ResultStore(store_dir)
        key = _spec().cache_key()
        assert fresh.get(key) is None  # corrupt entry moved aside, not served
        assert len(fresh.quarantined()) == 1
        # Self-heal: a clean put replaces the entry and the store serves it.
        healed = SweepExecutor(jobs=1, cache=RunResultCache(store=fresh),
                               retries=0, backoff=0)
        result = healed.run_spec(_spec())
        restored = ResultStore(store_dir).get(key)
        assert restored is not None and restored.cycles == result.cycles
