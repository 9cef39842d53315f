"""Self-tests of the benchmark, at the smallest scale the program accepts.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check the metric catalogue against ``BENCHMARK.json``, that every
per-layer metric names the end-to-end metric and workload it should move,
that the correctness gate trips on tampered outputs and on a warm job that
simulates, that the traced run reconciles, that comparisons refuse mixed
manifests, and that the command fails without the program under test.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from e2e import catalog, gate, layers, workloads  # noqa: E402

import compare  # noqa: E402

SMALL_ST = ("table4",)
SMALL_WARM = ("table4", "table5")


def work_dir(test: unittest.TestCase) -> str:
    parent = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=parent)
    test.addCleanup(shutil.rmtree, path, True)
    return path


class CatalogTest(unittest.TestCase):
    def test_names_match_the_pattern_and_carry_units(self):
        names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for metric in catalog.END_TO_END + catalog.PER_LAYER:
            self.assertRegex(metric.name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(catalog.NAME_RE.fullmatch(metric.name))
            self.assertTrue(catalog.UNIT_RE.fullmatch(metric.unit),
                            metric.name)
            self.assertIn(metric.better, ("lower", "higher"))

    def test_each_layer_metric_names_its_end_to_end_metric_and_workload(self):
        end_to_end = {m.name for m in catalog.END_TO_END}
        for metric in catalog.PER_LAYER:
            self.assertIn(metric.moves, end_to_end, metric.name)
            self.assertTrue(metric.on, metric.name)
            self.assertLessEqual(set(metric.on), set(catalog.WORKLOADS))
            self.assertLessEqual(set(metric.flat_on), set(catalog.WORKLOADS))
            self.assertFalse(set(metric.on) & set(metric.flat_on))
            self.assertTrue(metric.description, metric.name)

    def test_benchmark_json_agrees_with_the_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in declared["end_to_end"]],
            [(m.name, m.unit, m.better, m.bound)
             for m in catalog.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in declared["per_layer"]],
            [(m.name, m.unit, m.better) for m in catalog.PER_LAYER])
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(catalog.WORKLOADS))
        self.assertEqual(
            max(m.bound for m in catalog.END_TO_END),
            next(m.bound for m in catalog.END_TO_END
                 if m.name == "setup_s"))

    def test_every_span_feeds_a_layer_metric(self):
        per_layer = {m.name for m in catalog.PER_LAYER}
        for metric in catalog.SPAN_METRICS.values():
            self.assertIn(metric, per_layer)


class GateTest(unittest.TestCase):
    def test_a_tampered_output_file_changes_the_digest(self):
        out = work_dir(self)
        for name, text in (("a.json", "{}\n"), ("b.txt", "x\n")):
            with open(os.path.join(out, name), "w") as handle:
                handle.write(text)
        before = gate.digest_dir(out)
        with open(os.path.join(out, "b.txt"), "a") as handle:
            handle.write(" ")
        self.assertNotEqual(before, gate.digest_dir(out))

    def test_a_tampered_pass_fails_the_run(self):
        from repro.experiments import pipeline

        original = pipeline.write_outputs
        calls = []

        def tampering(results, manifest, out_dir):
            written = original(results, manifest, out_dir)
            calls.append(out_dir)
            if len(calls) == 2:
                with open(written[0], "a", encoding="utf-8") as handle:
                    handle.write("\n")
            return written

        pipeline.write_outputs = tampering
        try:
            outcome = workloads.run_cold(
                "st_tage", seed=1, seconds=0, trace=True,
                work=work_dir(self), keys=SMALL_ST)
        finally:
            pipeline.write_outputs = original
        self.assertEqual(len(calls), 2)
        self.assertGreater(outcome.failed, 0)
        self.assertTrue(any("outputs differ" in problem
                            for problem in outcome.problems))

    def test_a_warm_job_that_simulates_fails_the_run(self):
        def drop_one_result(store, manifest):
            key = sorted(manifest.unique_cases())[0]
            os.remove(store.entry_path(key))

        outcome = workloads.run_warm(
            seed=1, seconds=0, trace=False, work=work_dir(self),
            keys=SMALL_WARM,
            between_fill_and_jobs=drop_one_result)
        self.assertEqual(outcome.failed, 1)
        self.assertTrue(any("simulated 1 != 0" in problem
                            for problem in outcome.problems))

    def test_compare_refuses_mixed_manifest_hashes(self):
        def record(manifest_hash):
            return {("st_tage", 1): {
                "provenance": {"workload": "st_tage", "seed": 1,
                               "manifest_hash": manifest_hash},
                "metrics": {m.name: {"value": 1.0, "unit": m.unit}
                            for m in catalog.END_TO_END}}}

        self.assertTrue(compare.compare(record("a"), record("a")))
        with self.assertRaises(compare.MixedManifests):
            compare.compare(record("a"), record("b"))


class RunTest(unittest.TestCase):
    def test_traced_cold_run_reconciles_and_matches_untraced(self):
        outcome = workloads.run_cold(
            "smt_zoo", seed=2, seconds=0, trace=True, work=work_dir(self),
            keys=("figure2",))
        self.assertEqual(outcome.problems, [])
        self.assertEqual(outcome.failed, 0)
        self.assertEqual(set(outcome.metrics),
                         {m.name for m in catalog.PER_LAYER})
        self.assertLess(layers.reconcile_error(outcome.tracer), 1e-6)
        self.assertGreater(sum(value for name, value in outcome.metrics.items()
                               if re.fullmatch(r"cpu\.smt_.*\.run_s", name)),
                           0)
        self.assertEqual(outcome.metrics["cpu.st_tage.run_s"], 0)
        self.assertGreater(outcome.metrics["executor.pool_efficiency"], 0)

    def test_warm_run_serves_every_case_from_the_store(self):
        outcome = workloads.run_warm(
            seed=2, seconds=0, trace=True, work=work_dir(self),
            keys=SMALL_WARM)
        self.assertEqual(outcome.problems, [])
        self.assertEqual(outcome.metrics["store.hit_ratio"], 1.0)
        self.assertEqual(outcome.metrics["executor.simulated"], 0)
        self.assertGreater(outcome.metrics["service.report_get_s"], 0)

    def test_the_command_fails_without_the_program(self):
        bare = work_dir(self)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "st_tage",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(completed.returncode, 0)
        self.assertFalse(re.search(r'"correct"', completed.stdout))


if __name__ == "__main__":
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    unittest.main()
