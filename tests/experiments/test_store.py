"""Tests for the content-addressed result store.

Covers the entry round trip (put → get, export → ingest → verify),
corruption and cross-engine rejection, gc of stale engine revisions, and the
cache wiring: the store as the second level of
:class:`~repro.experiments.executor.RunResultCache` (memory →
``REPRO_STORE_DIR``) with write-through publication.
"""

import json
import os

import pytest

from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.cpu.stats import run_result_to_dict
from repro.experiments.executor import (
    ENGINE_VERSION,
    CaseSpec,
    RunResultCache,
    SweepExecutor,
)
from repro.experiments.manifest import ExperimentDef, build_manifest
from repro.experiments.pipeline import (
    execute_shard,
    load_artifact,
    merge_artifacts,
)
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import (
    STORE_SCHEMA,
    ResultStore,
    env_store,
    result_digest,
)
from repro.experiments.runner import build_bpu
from repro.workloads import make_pair_workloads
from repro.workloads.pairs import SINGLE_THREAD_PAIRS, SMT2_PAIRS

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


def _probe_registry():
    """One experiment planning the one ``_spec()``; its assembly is the
    plan's results."""
    return {"probe": ExperimentDef(
        "probe",
        plan=lambda scale: [_spec()],
        assemble=lambda scale, results: results)}


@pytest.fixture(scope="module")
def simulated():
    """One real (key, RunResult) pair, simulated once for the module."""
    executor = SweepExecutor(jobs=1, cache=RunResultCache(store=False))
    spec = _spec()
    return spec.cache_key(), executor.run_spec(spec)


class TestEntryRoundTrip:
    def test_put_get(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        restored = store.get(key)
        assert restored is not None
        assert restored.cycles == result.cycles
        assert store.keys() == [key]
        assert len(store) == 1

    def test_put_skips_identical_and_rejects_conflicting(self, tmp_path,
                                                         simulated):
        import dataclasses

        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        before = os.path.getmtime(store.entry_path(key))
        store.put(key, result)  # identical: no rewrite
        assert os.path.getmtime(store.entry_path(key)) == before
        divergent = dataclasses.replace(result, cycles=result.cycles + 1)
        with pytest.raises(ValueError, match="different result digest"):
            store.put(key, divergent)
        assert store.get(key).cycles == result.cycles  # original intact

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).get("0" * 64) is None

    def test_needs_a_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with pytest.raises(ValueError, match="REPRO_STORE_DIR"):
            ResultStore()
        assert env_store() is None

    def test_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert ResultStore().directory == str(tmp_path)
        assert env_store().directory == str(tmp_path)

    def test_entry_layout_is_engine_and_bucket_sharded(self, tmp_path,
                                                       simulated):
        from repro.experiments.executor import ENGINE_VERSION

        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        expected = tmp_path / ENGINE_VERSION / key[:2] / f"{key}.json"
        assert expected.exists()
        assert store.engines() == [ENGINE_VERSION]


class TestCorruption:
    def _corrupt_entry(self, store, key):
        path = store.entry_path(key)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["result"]["cycles"] = payload["result"]["cycles"] + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def test_tampered_entry_is_a_miss_and_verify_names_it(self, tmp_path,
                                                          simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        self._corrupt_entry(store, key)
        # verify is a read-only audit: it names the problem in place.
        report = store.verify()
        assert report["entries"] == 1
        assert len(report["corrupt"]) == 1
        assert "digest" in report["corrupt"][0][1]
        assert report["quarantined"] == 0
        # A read quarantines the entry (preserving the bytes) and misses.
        assert store.get(key) is None
        report = store.verify()
        assert report["corrupt"] == []
        assert report["quarantined"] == 1
        assert store.quarantined() == [
            os.path.join(ENGINE_VERSION, key[:2], f"{key}.json")]

    def test_truncated_entry_is_a_miss(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        with open(store.entry_path(key), "w", encoding="utf-8") as handle:
            handle.write('{"schema":')
        assert store.verify()["corrupt"][0][1] == "not valid JSON"
        assert store.get(key) is None
        assert not os.path.exists(store.entry_path(key))  # quarantined
        assert store.verify()["quarantined"] == 1

    def test_misfiled_key_detected(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        wrong = "f" * 64
        target = store.entry_path(wrong)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.rename(store.entry_path(key), target)
        report = store.verify()
        assert "filed under key" in report["corrupt"][0][1]
        assert store.get(wrong) is None
        assert store.verify()["quarantined"] == 1

    def test_put_quarantines_and_replaces_corrupt_entry(self, tmp_path,
                                                        simulated):
        # Publication self-heals: the damaged bytes go to quarantine, the
        # fresh result takes the slot, and the store serves it again.
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        with open(store.entry_path(key), "w", encoding="utf-8") as handle:
            handle.write("{torn")
        store.put(key, result)
        assert store.get(key) is not None
        assert store.verify()["corrupt"] == []
        assert store.verify()["quarantined"] == 1

    def test_quarantine_is_invisible_to_engines_and_gc(self, tmp_path,
                                                       simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        self._corrupt_entry(store, key)
        assert store.get(key) is None  # quarantines
        assert store.keys() == []  # nothing servable left
        assert "quarantine" not in store.engines()
        assert store.gc() == 0
        assert store.verify()["quarantined"] == 1  # gc left the evidence

    def test_export_refuses_misfiled_entries(self, tmp_path, simulated):
        # An internally-consistent entry copied under another key's path
        # must not be exported (and later replayed) as that key's result.
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        wrong = "e" * 64
        target = store.entry_path(wrong)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        import shutil

        shutil.copyfile(store.entry_path(key), target)
        with pytest.raises(ValueError, match="mis-filed"):
            store.export(str(tmp_path / "export.json"))

    def test_export_refuses_corrupt_entries(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        self._corrupt_entry(store, key)
        with pytest.raises(ValueError, match="verify"):
            store.export(str(tmp_path / "export.json"))

    def test_clean_store_verifies(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        report = store.verify()
        assert report["corrupt"] == []
        assert report["entries"] == 1


class TestExchange:
    def test_export_ingest_round_trip(self, tmp_path, simulated):
        key, result = simulated
        source = ResultStore(str(tmp_path / "a"))
        source.put(key, result)
        path, count = source.export(str(tmp_path / "export.json"))
        assert count == 1
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["schema"] == STORE_SCHEMA
        assert payload["kind"] == "store-export"
        assert list(payload["cases"]) == [key]

        target = ResultStore(str(tmp_path / "b"))
        assert target.ingest(path) == (1, 0)
        assert target.get(key).cycles == result.cycles
        # Re-ingesting identical content is a clean no-op.
        assert target.ingest(path) == (0, 1)
        assert target.verify()["corrupt"] == []

    def test_cross_engine_ingest_rejected(self, tmp_path, simulated):
        key, result = simulated
        source = ResultStore(str(tmp_path / "a"))
        source.put(key, result)
        path, _ = source.export(str(tmp_path / "export.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["engine"] = "0000.0-other-engine"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        target = ResultStore(str(tmp_path / "b"))
        with pytest.raises(ValueError, match="engine"):
            target.ingest(path)
        assert len(target) == 0

    def test_corrupt_case_payload_rejected(self, tmp_path, simulated):
        key, result = simulated
        source = ResultStore(str(tmp_path / "a"))
        source.put(key, result)
        path, _ = source.export(str(tmp_path / "export.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["cases"][key] = {"not": "a run result"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="RunResult"):
            ResultStore(str(tmp_path / "b")).ingest(path)

    def test_conflicting_digest_rejected(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path / "store"))
        store.put(key, result)
        source = ResultStore(str(tmp_path / "a"))
        source.put(key, result)
        path, _ = source.export(str(tmp_path / "export.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["cases"][key]["cycles"] = payload["cases"][key]["cycles"] + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="different result digest"):
            store.ingest(path)

    def test_traversal_keys_rejected(self, tmp_path):
        # Artifacts cross machine boundaries; a crafted key must never
        # become a filesystem path outside the store.
        evil = tmp_path / "evil.json"
        store = ResultStore(str(tmp_path / "store"))
        for bad_key in ("../../../escape", "a" * 64 + "\n", "A" * 64, "42"):
            evil.write_text(json.dumps({
                "schema": STORE_SCHEMA,
                "kind": "store-export",
                "engine": ENGINE_VERSION,
                "cases": {bad_key: {"cycles": 1}}}))
            with pytest.raises(ValueError, match="SHA-256 cache key"):
                store.ingest(str(evil))
        assert not (tmp_path / "escape.json").exists()
        assert len(store) == 0

    def test_shard_receipts_are_not_ingested(self, tmp_path):
        # A shard artifact lists digests, not results: the store export is
        # the one exchange format.
        manifest = build_manifest(scale=TINY, experiments=_probe_registry())
        receipt = execute_shard(manifest, None, str(tmp_path / "shards"),
                                jobs=1, cache=RunResultCache(store=False))
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ValueError, match="repro store export"):
            store.ingest(receipt)
        assert len(store) == 0

    def test_unknown_schema_rejected(self, tmp_path, simulated):
        key, result = simulated
        source = ResultStore(str(tmp_path / "a"))
        source.put(key, result)
        path, _ = source.export(str(tmp_path / "export.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["schema"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="schema"):
            ResultStore(str(tmp_path / "b")).ingest(path)

    def test_non_artifact_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a store export"):
            ResultStore(str(tmp_path / "store")).ingest(str(bogus))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            ResultStore(str(tmp_path / "store")).ingest(str(broken))


class TestGc:
    def test_gc_drops_stale_engines_only(self, tmp_path, simulated):
        from repro.cpu.stats import run_result_to_dict

        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        store._write(key, run_result_to_dict(result),
                     engine="0000.0-superseded")
        store._write("ab" * 32, run_result_to_dict(result),
                     engine="0000.0-superseded")
        assert len(store.keys("0000.0-superseded")) == 2
        assert store.gc() == 2
        assert store.keys("0000.0-superseded") == []
        assert store.get(key) is not None
        assert store.gc() == 0  # idempotent

    def test_gc_leaves_foreign_directories_in_a_shared_root(self, tmp_path,
                                                            simulated):
        # A store rooted next to the user's own folders (REPRO_STORE_DIR
        # pointing at a shared results directory) must gc only directories
        # with the store's bucket layout, never siblings.
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)  # writes the marker + one engine dir
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "todo.txt").write_text("keep me")
        (tmp_path / "drafts").mkdir()  # empty foreign dir in a marked root
        assert store.gc() == 0
        assert (tmp_path / "notes" / "todo.txt").exists()
        assert (tmp_path / "drafts").exists()
        # Foreign content is invisible to every operation, not just gc: a
        # healthy store in a shared root verifies clean and exports fine.
        from repro.experiments.executor import ENGINE_VERSION

        report = store.verify()
        assert report["corrupt"] == []
        assert list(report["engines"]) == [ENGINE_VERSION]
        _path, count = store.export(str(tmp_path / "notes" / "export.json"))
        assert count == 1

    def test_stray_file_in_engine_dir_does_not_hide_entries(self, tmp_path,
                                                            simulated):
        # A stray file at the engine root must not blind verify/gc to the
        # engine's real entries (get() would still serve them, so hiding
        # them from the audits would let corruption live forever).
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        from repro.experiments.executor import ENGINE_VERSION

        (tmp_path / ENGINE_VERSION / "stray.txt").write_text("oops")
        assert store.engines() == [ENGINE_VERSION]
        assert store.verify()["entries"] == 1

    def test_gc_refuses_directories_that_are_not_stores(self, tmp_path):
        # A mistyped --dir/REPRO_STORE_DIR must never turn gc into recursive
        # deletion of arbitrary user data: without the marker written by the
        # store itself, every subdirectory would look like a "stale engine".
        victim = tmp_path / "not-a-store"
        (victim / "src").mkdir(parents=True)
        (victim / "docs").mkdir()
        with pytest.raises(ValueError, match="missing"):
            ResultStore(str(victim)).gc()
        assert (victim / "src").exists() and (victim / "docs").exists()
        # An empty/nonexistent directory is a clean no-op, not an error.
        assert ResultStore(str(tmp_path / "absent")).gc() == 0


class TestCacheWiring:
    def test_put_writes_through_and_get_promotes(self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path / "store"))
        publisher = RunResultCache(store=store)
        publisher.put(key, result)
        assert store.get(key) is not None  # write-through publication

        consumer = RunResultCache(store=store)
        restored = consumer.get(key)
        assert restored is not None
        assert consumer.store_hits == 1
        assert consumer.hits == 1
        # The hit was promoted to memory: a second get is served without
        # touching the store.
        os.remove(store.entry_path(key))
        assert consumer.get(key) is not None
        assert consumer.hits == 2
        assert consumer.store_hits == 1

    def test_executor_replays_across_machines_via_store(self, tmp_path):
        store_a = ResultStore(str(tmp_path / "shared"))
        machine_a = SweepExecutor(
            jobs=1, cache=RunResultCache(store=store_a))
        machine_a.run_spec(_spec(preset="complete_flush"))
        assert machine_a.simulated == 1

        # A different "machine": fresh memory, same store.
        store_b = ResultStore(str(tmp_path / "shared"))
        machine_b = SweepExecutor(
            jobs=1, cache=RunResultCache(store=store_b))
        result = machine_b.run_spec(_spec(preset="complete_flush"))
        assert machine_b.simulated == 0
        assert machine_b.cache.store_hits == 1
        assert result.mechanism == "complete_flush"

    def test_cache_picks_up_env_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        cache = RunResultCache()
        assert cache.store is not None
        assert cache.store.directory == str(tmp_path)
        monkeypatch.delenv("REPRO_STORE_DIR")
        assert RunResultCache().store is None

    def test_store_false_opts_out_of_the_env_store(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert RunResultCache(store=False).store is None


class TestReceiptMerge:
    """``merge_artifacts`` replays exactly the receipt keys from the store."""

    @staticmethod
    def _shard(tmp_path):
        manifest = build_manifest(scale=TINY, experiments=_probe_registry())
        out = tmp_path / "shards"
        receipt = execute_shard(manifest, None, str(out), jobs=1,
                                cache=RunResultCache(store=False))
        return manifest, receipt, ResultStore(str(out / "store"))

    def test_receipt_holds_digests_and_merge_reads_the_store(self, tmp_path,
                                                             simulated):
        key, result = simulated
        manifest, receipt, _store = self._shard(tmp_path)
        assert load_artifact(receipt)["cases"] == {
            key: result_digest(run_result_to_dict(result))}
        merged = merge_artifacts([receipt], manifest)
        assert merged["probe"][0].cycles == result.cycles

    def test_digest_mismatch_refused(self, tmp_path, simulated):
        key, result = simulated
        manifest, receipt, store = self._shard(tmp_path)
        # A self-consistent entry (its own digest checks out) holding a
        # different result than the shard executed.
        tampered = run_result_to_dict(result)
        tampered["cycles"] += 1
        store._write(key, tampered)
        with pytest.raises(ValueError,
                           match=f"{key} has another digest.*store ingest"):
            merge_artifacts([receipt], manifest)

    def test_missing_store_entry_refused(self, tmp_path, monkeypatch):
        manifest, receipt, store = self._shard(tmp_path)
        key = store.keys()[0]
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "elsewhere"))
        with pytest.raises(ValueError,
                           match=f"{key} is missing from the result store.*"
                                 "REPRO_STORE_DIR"):
            merge_artifacts([receipt], manifest)
        monkeypatch.delenv("REPRO_STORE_DIR")
        os.remove(store.entry_path(key))
        with pytest.raises(ValueError, match=f"{key}.*store ingest"):
            merge_artifacts([receipt], manifest)

    def test_malformed_receipt_refused(self, tmp_path):
        manifest, receipt, _store = self._shard(tmp_path)
        payload = load_artifact(receipt)
        key = next(iter(payload["cases"]))
        payload["cases"][key] = {"cycles": 1}  # a result, not a digest
        with open(receipt, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match=f"{key} is not a 64-hex"):
            merge_artifacts([receipt], manifest)
        payload["schema"] = 2
        with open(receipt, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="schema 2.*result store"):
            merge_artifacts([receipt], manifest)

    def test_unexecuted_store_entry_is_never_served(self, tmp_path,
                                                    simulated, monkeypatch):
        # The merge store (here REPRO_STORE_DIR, which the shard published
        # to) also holds a case no shard executed: the assembly reads only
        # its plan's results, and the merge adds no entry.
        key, result = simulated
        store = ResultStore(str(tmp_path / "env-store"))
        hidden = _spec(preset="complete_flush")
        SweepExecutor(jobs=1, cache=RunResultCache(store=store)).run_spec(
            hidden)

        manifest = build_manifest(scale=TINY, experiments=_probe_registry())
        receipt = execute_shard(manifest, None, str(tmp_path / "shards"),
                                jobs=1, cache=RunResultCache(store=store))
        assert load_artifact(receipt)["cases"] == {
            key: result_digest(run_result_to_dict(result))}
        before = store.keys()
        assert before == sorted([key, hidden.cache_key()])

        monkeypatch.setenv("REPRO_STORE_DIR", store.directory)
        merged = merge_artifacts([receipt], manifest)
        assert [run.cycles for run in merged["probe"]] == [result.cycles]
        assert store.keys() == before
        assert not (tmp_path / "shards" / "store").exists()


class TestManifestScope:
    """Manifest indexes: the unit of scoped gc, export and federation."""

    @staticmethod
    def _fill(store, result, keys):
        from repro.cpu.stats import run_result_to_dict

        for key in keys:
            store._write(key, run_result_to_dict(result))

    def test_register_list_and_lookup(self, tmp_path, simulated):
        key, _result = simulated
        store = ResultStore(str(tmp_path))
        manifest_hash = "1f" * 32
        store.register_manifest(manifest_hash, [key])
        assert store.manifests() == [manifest_hash]
        assert store.manifest_keys(manifest_hash) == [key]
        # Idempotent re-registration; a different case set under the same
        # hash is the manifest-shaped determinism violation put() refuses.
        store.register_manifest(manifest_hash, [key])
        with pytest.raises(ValueError, match="different case set"):
            store.register_manifest(manifest_hash, ["ab" * 32])

    def test_bad_hashes_and_keys_refused(self, tmp_path, simulated):
        key, _result = simulated
        store = ResultStore(str(tmp_path))
        with pytest.raises(ValueError, match="not a SHA-256 digest"):
            store.register_manifest("../../escape", [key])
        with pytest.raises(ValueError, match="not a SHA-256 cache key"):
            store.register_manifest("2f" * 32, ["../../etc/passwd"])

    def test_engine_prefixed_hash_accepted_everywhere(self, tmp_path,
                                                      simulated):
        # 'repro plan --hash' prints engine:hash; scoped lookup, export and
        # gc must take that spelling as-is, not just the bare digest.
        from repro.experiments.executor import ENGINE_VERSION

        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        manifest_hash = "8f" * 32
        store.register_manifest(manifest_hash, [key])
        prefixed = f"{ENGINE_VERSION}:{manifest_hash}"
        assert store.manifest_keys(prefixed) == [key]
        _path, count = store.export(str(tmp_path / "scoped.json"),
                                    manifest_hashes=[prefixed])
        assert count == 1
        assert store.gc(manifest_hashes=[prefixed]) == 0
        # The live manifest named by its prefixed spelling survives gc.
        assert store.manifests() == [manifest_hash]

    def test_foreign_engine_prefix_refused(self, tmp_path, simulated):
        key, _result = simulated
        store = ResultStore(str(tmp_path))
        store.register_manifest("9f" * 32, [key])
        with pytest.raises(ValueError, match="names engine '1999.0-other'"):
            store.manifest_keys(f"1999.0-other:{'9f' * 32}")
        with pytest.raises(ValueError, match="repro plan --hash"):
            store.manifest_keys("not-a-digest")

    def test_unregistered_manifest_lookup_names_the_registered(
            self, tmp_path, simulated):
        key, _result = simulated
        store = ResultStore(str(tmp_path))
        store.register_manifest("3f" * 32, [key])
        with pytest.raises(ValueError, match="registered: 3f3f3f3f3f3f"):
            store.manifest_keys("4f" * 32)

    def test_manifest_indexes_invisible_to_keys_verify_export(
            self, tmp_path, simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        store.register_manifest("5f" * 32, [key])
        assert store.keys() == [key]
        report = store.verify()
        assert report["entries"] == 1 and report["corrupt"] == []
        _path, count = store.export(str(tmp_path / "all.json"))
        assert count == 1

    def test_gc_prunes_superseded_manifest_entries(self, tmp_path,
                                                   simulated):
        _key, result = simulated
        store = ResultStore(str(tmp_path))
        old_key, new_key = "aa" * 32, "bb" * 32
        self._fill(store, result, [old_key, new_key])
        old_manifest, new_manifest = "6f" * 32, "7f" * 32
        store.register_manifest(old_manifest, [old_key])
        store.register_manifest(new_manifest, [new_key])
        removed = store.gc(manifest_hashes=[new_manifest])
        assert removed == 1
        assert store.keys() == [new_key]
        # The superseded manifest's index went with its entries.
        assert store.manifests() == [new_manifest]

    def test_gc_retains_entries_shared_across_live_manifests(
            self, tmp_path, simulated):
        _key, result = simulated
        store = ResultStore(str(tmp_path))
        shared, only_old = "cc" * 32, "dd" * 32
        self._fill(store, result, [shared, only_old])
        old_manifest, new_manifest = "8f" * 32, "9f" * 32
        store.register_manifest(old_manifest, [shared, only_old])
        store.register_manifest(new_manifest, [shared])
        # Both manifests live: nothing to prune.
        assert store.gc(manifest_hashes=[old_manifest, new_manifest]) == 0
        assert len(store) == 2
        # Only the new manifest live: the shared entry survives.
        assert store.gc(manifest_hashes=[new_manifest]) == 1
        assert store.keys() == [shared]

    def test_gc_with_unregistered_manifest_deletes_nothing(self, tmp_path,
                                                           simulated):
        key, result = simulated
        store = ResultStore(str(tmp_path))
        store.put(key, result)
        store.register_manifest("af" * 32, [key])
        with pytest.raises(ValueError, match="not registered"):
            store.gc(manifest_hashes=["bf" * 32])
        # The keep set is resolved before any deletion, so the typo'd hash
        # cost nothing.
        assert store.keys() == [key]
        assert store.manifests() == ["af" * 32]

    def test_scoped_gc_still_refuses_non_store_directories(self, tmp_path):
        victim = tmp_path / "not-a-store"
        (victim / "src").mkdir(parents=True)
        with pytest.raises(ValueError, match="missing"):
            ResultStore(str(victim)).gc(manifest_hashes=["cf" * 32])
        assert (victim / "src").exists()

    def test_export_scoped_to_manifests(self, tmp_path, simulated):
        _key, result = simulated
        store = ResultStore(str(tmp_path))
        mine, other = "ee" * 32, "ff" * 32
        self._fill(store, result, [mine, other])
        store.register_manifest("d1" * 32, [mine])
        path, count = store.export(str(tmp_path / "scoped.json"),
                                   manifest_hashes=["d1" * 32])
        assert count == 1
        target = ResultStore(str(tmp_path / "target"))
        added, _skipped = target.ingest(path)
        assert added == 1
        assert target.keys() == [mine]
        with pytest.raises(ValueError, match="not registered"):
            store.export(str(tmp_path / "nope.json"),
                         manifest_hashes=["d2" * 32])


class TestIngestUrl:
    def test_non_http_schemes_refused(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for url in ("ftp://host/export.json", "file:///etc/passwd",
                    "gopher://x"):
            with pytest.raises(ValueError, match="must be http"):
                store.ingest_url(url)

    def test_unreachable_url_is_a_named_download_failure(self, tmp_path):
        store = ResultStore(str(tmp_path))
        # A port bound then closed: connection refused, quickly.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ValueError, match="download failed"):
            store.ingest_url(f"http://127.0.0.1:{port}/export.json")


def _engine_run(kind, engine):
    """One ``xor_bp`` TAGE case at the tiny scale on one engine."""
    if kind == "single":
        config = fpga_prototype("tage")
        core = SingleThreadCore(
            config, build_bpu(config, "xor_bp", seed=TINY.seed + 1),
            make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=TINY.seed),
            time_scale=TINY.time_scale,
            syscall_time_scale=TINY.syscall_time_scale)
        return core.run(target_branches=TINY.st_target_branches,
                        warmup_branches=TINY.st_warmup_branches,
                        mechanism_name="xor_bp", engine=engine)
    config = sunny_cove_smt("tage")
    core = SmtCore(config, build_bpu(config, "xor_bp", seed=TINY.seed + 1),
                   make_pair_workloads(SMT2_PAIRS[0], seed=TINY.seed),
                   time_scale=TINY.smt_time_scale)
    return core.run(instructions=TINY.smt_instructions,
                    warmup_instructions=TINY.smt_warmup_instructions,
                    mechanism_name="xor_bp", engine=engine)


class TestStoreRoundTrip:
    """Store entries do not depend on the engine that produced them.

    ``CaseSpec.cache_key()`` and the store digest never mention the
    engine, so a scalar-produced entry must be byte-identical to the
    batched one: ``put``-ing both under one key must succeed, since the
    store rejects a conflicting digest.
    """

    @pytest.mark.parametrize("kind", ["single", "smt"])
    def test_scalar_and_batched_entries_byte_identical(self, tmp_path, kind):
        res_scalar = _engine_run(kind, "scalar")
        res_batched = _engine_run(kind, "batched")
        key = f"{kind}-xor_bp-tage"

        store = ResultStore(str(tmp_path / "scalar-first"))
        store.put(key, res_scalar)
        store.put(key, res_batched)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_batched)

        store = ResultStore(str(tmp_path / "batched-first"))
        store.put(key, res_batched)
        store.put(key, res_scalar)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_scalar)
