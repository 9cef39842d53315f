"""Tests for the sharded reproduction pipeline.

The headline invariant: a manifest executed as N shards and merged from the
shard artifacts produces figures/tables **bit-identical** to a serial run of
the same manifest — and, for the golden-restricted Figure 1 / Figure 8
variants, bit-identical to the committed golden traces.  Also covers the
merge validator (missing shard, duplicated case, foreign manifest) and the
shard artifact round trip for caseless experiments.
"""

import json
import os

import pytest

from repro.analysis.export import result_to_dict
from repro.experiments import fig1_flush_single, fig8_xor_pht, table5_hwcost
from repro.experiments.executor import RunResultCache
from repro.experiments.manifest import (
    ExperimentDef,
    ShardSpec,
    build_manifest,
)
from repro.experiments.pipeline import (
    execute_shard,
    load_artifact,
    merge_artifacts,
    run_serial,
    shard_artifact_path,
    write_outputs,
)
from repro.experiments.scaling import ExperimentScale
from repro.workloads.pairs import SINGLE_THREAD_PAIRS

#: Same fixed scale as the committed golden traces (never from REPRO_SCALE).
GOLDEN_SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=600.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=2021)

GOLDEN_PAIRS = SINGLE_THREAD_PAIRS[:2]

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "integration", "golden")

#: Golden-restricted registry: the same reduced Figure 1 / Figure 8 problems
#: the golden fixtures pin, plus one caseless experiment (Table 5) to cover
#: the whole-result artifact path.
REGISTRY = {
    "figure1": ExperimentDef(
        "figure1",
        plan=lambda scale: fig1_flush_single.plan(scale, pairs=GOLDEN_PAIRS),
        assemble=lambda scale, results: fig1_flush_single.assemble(
            scale, results, pairs=GOLDEN_PAIRS)),
    "figure8": ExperimentDef(
        "figure8",
        plan=lambda scale: fig8_xor_pht.plan(scale, pairs=GOLDEN_PAIRS,
                                             intervals=["8M"]),
        assemble=lambda scale, results: fig8_xor_pht.assemble(
            scale, results, pairs=GOLDEN_PAIRS, intervals=["8M"])),
    "table5": ExperimentDef(
        "table5",
        plan=lambda scale: [],
        assemble=lambda scale, results: table5_hwcost.run(scale)),
}


def _manifest():
    return build_manifest(scale=GOLDEN_SCALE, experiments=REGISTRY)


def _memory_cache():
    # Explicit memory-only caches keep the tests isolated from any
    # REPRO_STORE_DIR in the environment.
    return RunResultCache(store=False)


def _snapshot(result):
    """The golden fixtures' snapshot shape (see test_golden_traces)."""
    figure = result.figure
    return {
        "name": result.name,
        "categories": list(figure.categories),
        "series": {label: list(values)
                   for label, values in figure.series.items()},
        "rows": [[str(cell) for cell in row] for row in result.rows],
    }


@pytest.fixture(scope="module")
def serial_results():
    return run_serial(_manifest(), jobs=1, cache=_memory_cache())


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shards")
    manifest = _manifest()
    for index in range(2):
        execute_shard(manifest, ShardSpec(index, 2), str(out), jobs=1,
                      cache=_memory_cache())
    return out


class TestShardedVsSerial:
    def test_manifest_dedupes_shared_baselines(self):
        manifest = _manifest()
        # Figure 1 and Figure 8 share their two per-pair baselines.
        assert manifest.total_planned() == len(manifest.unique_cases()) + 2

    def test_sharded_merge_is_bit_identical_to_serial(self, serial_results,
                                                      shard_dir):
        manifest = _manifest()
        paths = [shard_artifact_path(str(shard_dir), ShardSpec(i, 2))
                 for i in range(2)]
        merged = merge_artifacts(paths, manifest)
        assert set(merged) == set(serial_results)
        for key in merged:
            serial_json = json.dumps(result_to_dict(serial_results[key]),
                                     sort_keys=True)
            merged_json = json.dumps(result_to_dict(merged[key]),
                                     sort_keys=True)
            assert merged_json == serial_json, f"{key} drifted across shards"

    @pytest.mark.parametrize("name", ["fig1", "fig8"])
    def test_serial_pipeline_matches_committed_golden_trace(
            self, serial_results, name):
        # run_serial assembles through the manifest machinery; the result
        # must still be exactly the committed fixture (itself generated by
        # the plain figure drivers).
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"),
                  encoding="utf-8") as handle:
            expected = json.load(handle)
        key = {"fig1": "figure1", "fig8": "figure8"}[name]
        assert _snapshot(serial_results[key]) == expected

    def test_shards_split_the_work(self, shard_dir):
        manifest = _manifest()
        payloads = [load_artifact(shard_artifact_path(str(shard_dir),
                                                      ShardSpec(i, 2)))
                    for i in range(2)]
        case_counts = [len(payload["cases"]) for payload in payloads]
        assert sum(case_counts) == len(manifest.unique_cases())
        assert all(count > 0 for count in case_counts)
        # Exactly one shard owns the caseless table5 result.
        owners = [payload for payload in payloads
                  if "table5" in payload["experiment_results"]]
        assert len(owners) == 1

    def test_merge_replays_without_simulating(self, shard_dir, monkeypatch):
        # If the replay executor simulated anything the merge would not be a
        # pure function of the artifacts; prove it never does by making
        # simulation impossible.
        from repro.experiments import executor as executor_module

        def _boom(spec):
            raise AssertionError(
                f"merge tried to simulate {spec.preset}/{spec.pair.case}")

        monkeypatch.setattr(executor_module, "_execute_spec", _boom)
        paths = [shard_artifact_path(str(shard_dir), ShardSpec(i, 2))
                 for i in range(2)]
        merged = merge_artifacts(paths, _manifest())
        assert set(merged) == {"figure1", "figure8", "table5"}


class TestMergeValidation:
    def test_missing_shard_rejected(self, shard_dir):
        path = shard_artifact_path(str(shard_dir), ShardSpec(0, 2))
        with pytest.raises(ValueError, match="executed by no shard"):
            merge_artifacts([path], _manifest())

    def test_duplicate_shard_rejected(self, shard_dir):
        path = shard_artifact_path(str(shard_dir), ShardSpec(0, 2))
        with pytest.raises(ValueError, match="already provided"):
            merge_artifacts([path, path], _manifest())

    def test_duplicated_case_rejected(self, shard_dir, tmp_path):
        # Simulate an overlapping (non-disjoint) partition: shard 1 of 2 also
        # claims a case shard 0 executed.
        first = load_artifact(shard_artifact_path(str(shard_dir),
                                                  ShardSpec(0, 2)))
        second = load_artifact(shard_artifact_path(str(shard_dir),
                                                   ShardSpec(1, 2)))
        stolen = next(iter(first["cases"]))
        second["cases"][stolen] = first["cases"][stolen]
        forged = tmp_path / "shard-1-of-2.json"
        forged.write_text(json.dumps(second))
        with pytest.raises(ValueError, match="more than one shard"):
            merge_artifacts([shard_artifact_path(str(shard_dir),
                                                 ShardSpec(0, 2)),
                             str(forged)], _manifest())

    def test_foreign_manifest_rejected(self, shard_dir):
        other = build_manifest(
            scale=GOLDEN_SCALE,
            experiments={"figure1": REGISTRY["figure1"]})
        paths = [shard_artifact_path(str(shard_dir), ShardSpec(i, 2))
                 for i in range(2)]
        with pytest.raises(ValueError, match="manifest hash"):
            merge_artifacts(paths, other)

    def test_no_artifacts_rejected(self):
        with pytest.raises(ValueError, match="no shard artifacts"):
            merge_artifacts([], _manifest())

    def test_missing_caseless_shard_rejected(self, tmp_path):
        # A caseless-only manifest has zero cases, so the case-coverage
        # checks are vacuous; a missing shard that owned a caseless
        # experiment must still fail the merge instead of being silently
        # re-simulated.
        registry = {"table5": REGISTRY["table5"]}
        manifest = build_manifest(scale=GOLDEN_SCALE, experiments=registry)
        for index in range(2):
            execute_shard(manifest, ShardSpec(index, 2), str(tmp_path),
                          jobs=1, cache=_memory_cache())
        payloads = {
            index: load_artifact(shard_artifact_path(str(tmp_path),
                                                     ShardSpec(index, 2)))
            for index in range(2)}
        empty = next(i for i, payload in payloads.items()
                     if "table5" not in payload["experiment_results"])
        with pytest.raises(ValueError,
                           match="caseless experiment.*no shard"):
            merge_artifacts([shard_artifact_path(str(tmp_path),
                                                 ShardSpec(empty, 2))],
                            manifest)

    def test_duplicated_caseless_rejected(self, tmp_path):
        registry = {"table5": REGISTRY["table5"]}
        manifest = build_manifest(scale=GOLDEN_SCALE, experiments=registry)
        execute_shard(manifest, ShardSpec(0, 1), str(tmp_path), jobs=1,
                      cache=_memory_cache())
        path = shard_artifact_path(str(tmp_path), ShardSpec(0, 1))
        payload = load_artifact(path)
        payload["shard"] = {"index": 1, "count": 2}
        forged = tmp_path / "shard-1-of-2.json"
        forged.write_text(json.dumps(payload))
        payload["shard"] = {"index": 0, "count": 2}
        other = tmp_path / "shard-0-of-2.json"
        other.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match="caseless experiment.*more than one shard"):
            merge_artifacts([str(other), str(forged)], manifest)

    def test_bad_schema_rejected(self, tmp_path):
        bogus = tmp_path / "shard-0-of-1.json"
        bogus.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(str(bogus))

    @pytest.mark.parametrize("payload", [[], "receipt", 3, None])
    def test_non_object_artifact_rejected(self, tmp_path, payload):
        bogus = tmp_path / "shard-0-of-1.json"
        bogus.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match=f"{bogus}: a shard artifact is a JSON "
                                 "object"):
            load_artifact(str(bogus))

    @pytest.mark.parametrize("field", ["cases", "experiment_results"])
    @pytest.mark.parametrize("value", [[], None, "x"])
    def test_non_object_fields_rejected(self, shard_dir, tmp_path, field,
                                        value):
        payload = load_artifact(shard_artifact_path(str(shard_dir),
                                                    ShardSpec(0, 2)))
        payload[field] = value
        bogus = tmp_path / "shard-0-of-2.json"
        bogus.write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match=f"{bogus}: shard-artifact field "
                                 f"'{field}' must be an object"):
            merge_artifacts([str(bogus)], _manifest())


class TestOutputs:
    def test_write_outputs_round_trip(self, serial_results, tmp_path):
        manifest = _manifest()
        written = write_outputs(serial_results, manifest, str(tmp_path))
        assert (tmp_path / "figure1.json").exists()
        assert (tmp_path / "figure8.txt").exists()
        assert (tmp_path / "summary.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["manifest_hash"] == manifest.manifest_hash()
        payload = json.loads((tmp_path / "figure1.json").read_text())
        assert payload == result_to_dict(serial_results["figure1"])
        assert len(written) == 2 * len(serial_results) + 1
