"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.experiments.store import ResultStore


class TestParser:
    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("list", "run", "attack", "leakage", "covert", "hwcost",
                        "report", "merge", "plan"):
            args = parser.parse_args([command] + (
                ["figure7"] if command == "run" else
                ["branchscope"] if command == "attack" else
                ["shard.json"] if command == "merge" else []))
            assert args.command == command

    def test_run_all_options(self):
        args = build_parser().parse_args(
            ["run", "all", "--shard", "1/4", "--jobs", "2", "--out", "out",
             "--experiments", "figure1", "figure8"])
        assert args.experiment == "all"
        assert args.shard == "1/4"
        assert args.jobs == "2"
        assert args.out == "out"
        assert args.experiments == ["figure1", "figure8"]

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table5"])
        assert args.experiment == "table5"
        assert args.scale is None
        assert args.json is None

    def test_attack_options(self):
        args = build_parser().parse_args(
            ["attack", "sbpa", "--mechanism", "noisy_xor_bp", "--smt",
             "--iterations", "50"])
        assert args.mechanism == "noisy_xor_bp"
        assert args.smt is True
        assert args.iterations == 50


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_mentions_experiments_attacks_and_presets(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure7" in output
        assert "branchscope" in output
        assert "noisy_xor_bp" in output


class TestRunCommand:
    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table5_with_exports(self, tmp_path, capsys):
        json_path = str(tmp_path / "table5.json")
        csv_path = str(tmp_path / "table5.csv")
        assert main(["run", "table5", "--json", json_path, "--csv", csv_path]) == 0
        output = capsys.readouterr().out
        assert "Table 5" in output
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["name"].lower().startswith("table 5")
        # Table 5 has no figure series, so the CSV export reports a no-op.
        assert "no figure series" in output or "CSV written" in output

    def test_run_table2_is_configuration_only(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_run_key_writes_out_dir_like_run_all(self, tmp_path, capsys):
        # `run KEY` is `run all --experiments KEY`: --out takes effect.
        out = tmp_path / "out"
        assert main(["run", "table5", "--out", str(out)]) == 0
        assert "cases: 0 unique" in capsys.readouterr().out
        with open(out / "table5.json", encoding="utf-8") as handle:
            assert json.load(handle)["name"].startswith("Table 5")
        assert sorted(os.listdir(out)) == \
            ["summary.json", "table5.json", "table5.txt"]

    def test_run_key_folds_repetitions(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "figure1", "--scale", "0.05", "--repetitions",
                     "2", "--out", str(out)]) == 0
        assert "cases: 96 unique" in capsys.readouterr().out
        with open(out / "figure1.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["replicates"]) == 2
        assert set(payload["figure"]["errors"]) == \
            {"flush-4M", "flush-8M", "flush-12M"}
        with open(out / "figure1.txt", encoding="utf-8") as handle:
            assert "±" in handle.read()

    def test_run_key_shards_and_merges_like_run_all(self, tmp_path, capsys):
        # --shard on `run KEY` writes a receipt instead of running the
        # whole experiment; the merged output is the unsharded run's bytes.
        out = tmp_path / "shards"
        for index in range(2):
            assert main(["run", "table5", "--shard", f"{index}/2",
                         "--out", str(out)]) == 0
        assert "shard artifact written" in capsys.readouterr().out
        merged, serial = tmp_path / "merged", tmp_path / "serial"
        assert main(["merge", "--out", str(merged),
                     str(out / "shard-0-of-2.json"),
                     str(out / "shard-1-of-2.json")]) == 0
        assert main(["run", "table5", "--out", str(serial)]) == 0
        assert (merged / "table5.json").read_bytes() == \
            (serial / "table5.json").read_bytes()

    def test_run_key_validates_jobs(self, capsys):
        # --jobs is read, not dropped: a malformed value is exit 2.
        assert main(["run", "table5", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("keep_going, code", [(False, 1), (True, 3)])
    def test_run_key_honours_keep_going(self, keep_going, code, tmp_path,
                                        capsys, monkeypatch):
        # One figure1 case fails permanently: without --keep-going the run
        # stops (exit 1); with it every other case finishes and a failure
        # manifest is written (exit 3).
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:case_idx=0;attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        out = tmp_path / "out"
        assert main(["run", "figure1", "--scale", "0.05", "--out", str(out)]
                    + (["--keep-going"] if keep_going else [])) == code
        err = capsys.readouterr().err
        assert "InjectedCrash" in err
        assert (out / "failures-0-of-1.json").exists() == keep_going
        assert not (out / "figure1.json").exists()

    @pytest.mark.parametrize("flag", ["--experiments", "--bench-set"])
    def test_run_key_rejects_experiment_selectors(self, flag, capsys):
        assert main(["run", "figure1", flag, "int"]) == 2
        assert flag in capsys.readouterr().err

    def test_json_export_needs_exactly_one_experiment(self, tmp_path,
                                                      capsys):
        assert main(["run", "all", "--experiments", "table2", "table5",
                     "--json", str(tmp_path / "x.json")]) == 2
        assert "--json/--csv" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv", [["report", "--scale", "-1"],
                                      ["run", "figure1", "--scale", "nan"]])
    def test_bad_scale_exits_2_naming_the_flag(self, argv, capsys):
        assert main(argv) == 2
        assert "--scale" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_prints_manifest_table(self, capsys):
        assert main(["plan", "--experiments", "figure1", "table5"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "unique after dedupe" in output

    def test_plan_hash_is_engine_prefixed_and_stable(self, capsys):
        from repro.experiments import ENGINE_VERSION

        assert main(["plan", "--hash", "--experiments", "figure1"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["plan", "--hash", "--experiments", "figure1"]) == 0
        assert capsys.readouterr().out.strip() == first
        assert first.startswith(f"{ENGINE_VERSION}:")

    def test_plan_json(self, capsys):
        assert main(["plan", "--json", "--experiments", "table5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiments"] == {"table5": 0}

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["plan", "--experiments", "figure99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_plan_bench_set_hash_is_stable(self, capsys):
        assert main(["plan", "--hash", "--bench-set", "int"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["plan", "--hash", "--bench-set", "int"]) == 0
        assert capsys.readouterr().out.strip() == first
        # A different selection plans a different manifest.
        assert main(["plan", "--hash", "--bench-set", "fp"]) == 0
        assert capsys.readouterr().out.strip() != first

    def test_plan_unknown_bench_set_rejected(self, capsys):
        assert main(["plan", "--bench-set", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "large_footprint" in err

    def test_plan_bad_trace_dir_rejected(self, capsys, tmp_path):
        missing = str(tmp_path / "nowhere")
        assert main(["plan", "--bench-set", "traces",
                     "--trace-dir", missing]) == 2
        assert "trace" in capsys.readouterr().err.lower()


class TestRunAllCommand:
    def test_malformed_shard_rejected(self, capsys):
        assert main(["run", "all", "--shard", "3/2"]) == 2
        err = capsys.readouterr().err
        assert "--shard" in err and "0-based" in err

    def test_malformed_jobs_rejected(self, capsys):
        assert main(["run", "all", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_malformed_env_shard_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "banana")
        assert main(["run", "all", "--experiments", "table5"]) == 2
        assert "REPRO_SHARD" in capsys.readouterr().err

    def test_malformed_env_jobs_rejected_before_planning(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert main(["run", "all", "--experiments", "table5"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_sharded_run_and_merge_round_trip(self, tmp_path, capsys):
        # Caseless-only manifest: exercises the full CLI pipeline (two shard
        # artifacts, then a validated merge) without any simulation cost.
        out = str(tmp_path / "shards")
        for index in range(2):
            assert main(["run", "all", "--experiments", "table2", "table5",
                         "--shard", f"{index}/2", "--out", out]) == 0
        output = capsys.readouterr().out
        assert "shard artifact written" in output
        merged = str(tmp_path / "merged")
        shards = [f"{out}/shard-0-of-2.json", f"{out}/shard-1-of-2.json"]
        assert main(["merge", "--out", merged] + shards) == 0
        output = capsys.readouterr().out
        assert "executed exactly once" in output
        with open(f"{merged}/table5.json", encoding="utf-8") as handle:
            assert json.load(handle)["name"].startswith("Table 5")

    def test_malformed_env_timeout_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CASE_TIMEOUT", "-5")
        assert main(["run", "all", "--experiments", "table5"]) == 2
        assert "REPRO_CASE_TIMEOUT" in capsys.readouterr().err

    def test_malformed_fault_spec_rejected_before_planning(self, capsys,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode:case_idx=0")
        assert main(["run", "all", "--experiments", "table5"]) == 2
        assert "REPRO_FAULT_SPEC" in capsys.readouterr().err

    def test_resume_flag_is_unknown(self, capsys):
        # A killed shard continues by rerunning the same command: its
        # finished cases are store hits.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "all", "--experiments", "table5", "--shard", "0/2",
                  "--resume", "out"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    @pytest.mark.parametrize("env_store", [False, True])
    def test_shard_store_defaults_under_out(self, env_store, tmp_path,
                                            capsys, monkeypatch):
        shard = self._one_case_shard()
        out = tmp_path / "out"
        store = tmp_path / "env-store"
        if env_store:
            monkeypatch.setenv("REPRO_STORE_DIR", str(store))
        else:
            monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["run", "all", "--experiments", "figure1", "--scale",
                     "0.05", "--shard", f"{shard}/64", "--out",
                     str(out)]) == 0
        used, unused = (store, out / "store") if env_store \
            else (out / "store", store)
        assert len(ResultStore(str(used))) == 1
        assert not unused.exists()

    @staticmethod
    def _one_case_shard():
        # Shard ownership is key-hash based; find a 1-of-64 shard that owns
        # exactly one figure1 case at --scale 0.05 instead of hard-coding an
        # index that would drift on an engine bump.
        from repro.experiments.manifest import (
            ShardSpec,
            build_manifest,
            experiment_registry,
        )
        from repro.experiments.scaling import ExperimentScale

        manifest = build_manifest(
            scale=ExperimentScale().scaled_by(0.05),
            experiments={"figure1": experiment_registry()["figure1"]})
        return next(i for i in range(64)
                    if len(manifest.shard_cases(ShardSpec(i, 64))) == 1)

    def test_interrupt_maps_to_exit_130(self, tmp_path, capsys, monkeypatch):
        # The injected Ctrl-C fires at the top of the first case attempt,
        # before any simulation work.
        shard = self._one_case_shard()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "interrupt:case_idx=0")
        assert main(["run", "all", "--experiments", "figure1",
                     "--scale", "0.05", "--shard", f"{shard}/64",
                     "--out", str(tmp_path / "out")]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_keep_going_exits_3_and_resume_heals(self, tmp_path, capsys,
                                                 monkeypatch):
        # One-case shard whose only case fails permanently: the run still
        # completes (exit 3) and writes a machine-readable failure manifest;
        # a fault-free rerun re-simulates the hole and clears it.
        shard = self._one_case_shard()
        out = str(tmp_path / "chaos")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert main(["run", "all", "--experiments", "figure1", "--scale",
                     "0.05", "--shard", f"{shard}/64", "--out", out,
                     "--keep-going"]) == 3
        err = capsys.readouterr().err
        assert "FAILED" in err and "InjectedCrash" in err
        assert f"failures-{shard}-of-64.json" in err

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        assert main(["run", "all", "--experiments", "figure1", "--scale",
                     "0.05", "--shard", f"{shard}/64", "--out", out,
                     "--keep-going"]) == 0
        assert not (tmp_path / "chaos" /
                    f"failures-{shard}-of-64.json").exists()
        assert (tmp_path / "chaos" /
                f"shard-{shard}-of-64.json").exists()

    def test_merge_rejects_incomplete_fleet(self, tmp_path, capsys):
        out = str(tmp_path / "shards")
        assert main(["run", "all", "--experiments", "figure1", "--scale",
                     "0.05", "--shard", "0/64", "--out", out]) == 0
        capsys.readouterr()
        assert main(["merge", f"{out}/shard-0-of-64.json"]) == 2
        assert "merge failed" in capsys.readouterr().err


class TestRepetitionsOption:
    def test_malformed_repetitions_rejected(self, capsys):
        assert main(["run", "all", "--repetitions", "0",
                     "--experiments", "table5"]) == 2
        assert "--repetitions" in capsys.readouterr().err

    def test_plan_hash_is_repetition_aware(self, capsys):
        assert main(["plan", "--hash", "--experiments", "figure1"]) == 0
        single = capsys.readouterr().out.strip()
        assert main(["plan", "--hash", "--experiments", "figure1",
                     "--repetitions", "3"]) == 0
        assert capsys.readouterr().out.strip() != single

    def test_plan_table_reports_repetitions(self, capsys):
        assert main(["plan", "--experiments", "figure1",
                     "--repetitions", "2"]) == 0
        assert "repetitions" in capsys.readouterr().out

    def test_run_all_prints_assertable_store_stats(self, capsys):
        # Caseless-only manifest: zero executor cases, so the stats line is
        # exact without simulating anything.
        assert main(["run", "all", "--experiments", "table5"]) == 0
        assert ("cases: 0 unique, 0 simulated, 0 store hit(s); "
                "caseless: 0 re-run, 1 static\n") in capsys.readouterr().out


class TestSingleExecutionPath:
    """There is one execution path: no backend flag, knob or dependency."""

    @pytest.mark.parametrize("command", ["run", "serve", "submit"])
    def test_backend_flag_is_unknown(self, command, capsys):
        argv = {"run": ["run", "table2"], "serve": ["serve"],
                "submit": ["submit"]}[command] + ["--backend", "python"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_stale_backend_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        assert main(["run", "all", "--experiments", "table5"]) == 0
        assert "REPRO_BACKEND" not in capsys.readouterr().err

    def test_run_imports_no_numpy(self):
        # setup.py promises a stdlib-only package: a run must not pull in
        # numpy even where numpy is installed.
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.abspath(src)
        probe = ("import sys\n"
                 "from repro.cli import main\n"
                 "assert main(['run', 'table2']) == 0\n"
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'numpy'))\n")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestStoreCommand:
    def _populate(self, store_dir):
        from repro.experiments.executor import (
            CaseSpec,
            RunResultCache,
            SweepExecutor,
        )
        from repro.experiments.scaling import ExperimentScale
        from repro.experiments.store import ResultStore
        from repro.cpu.config import fpga_prototype
        from repro.workloads.pairs import SINGLE_THREAD_PAIRS

        tiny = ExperimentScale(
            time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
            st_target_branches=1_200, st_warmup_branches=300,
            smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)
        spec = CaseSpec("single", SINGLE_THREAD_PAIRS[0],
                        fpga_prototype("gshare", n_entries=2048),
                        "baseline", tiny)
        store = ResultStore(str(store_dir))
        executor = SweepExecutor(
            jobs=1, cache=RunResultCache(store=store))
        executor.run_spec(spec)
        return store

    def test_missing_operation_and_directory_rejected(self, capsys,
                                                      monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["store"]) == 2
        assert "operation" in capsys.readouterr().err
        assert main(["store", "verify"]) == 2
        assert "REPRO_STORE_DIR" in capsys.readouterr().err

    def test_export_ingest_verify_gc_round_trip(self, tmp_path, capsys):
        self._populate(tmp_path / "a")
        export_path = str(tmp_path / "export.json")
        assert main(["store", "export", "--dir", str(tmp_path / "a"),
                     "--out", export_path]) == 0
        assert "exported 1 entr(ies)" in capsys.readouterr().out

        assert main(["store", "ingest", "--dir", str(tmp_path / "b"),
                     export_path]) == 0
        assert "1 ingested" in capsys.readouterr().out

        assert main(["store", "verify", "--dir", str(tmp_path / "b")]) == 0
        assert "verify ok" in capsys.readouterr().out

        assert main(["store", "gc", "--dir", str(tmp_path / "b")]) == 0
        assert "0 entr(ies)" in capsys.readouterr().out

    def test_env_store_dir_is_honoured(self, tmp_path, capsys, monkeypatch):
        store = self._populate(tmp_path / "a")
        assert len(store) == 1
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "a"))
        assert main(["store", "verify"]) == 0
        assert "1 entr(ies)" in capsys.readouterr().out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        store = self._populate(tmp_path / "a")
        key = store.keys()[0]
        with open(store.entry_path(key), "a", encoding="utf-8") as handle:
            handle.write("garbage")
        assert main(["store", "verify", "--dir", str(tmp_path / "a")]) == 2
        assert "CORRUPT" in capsys.readouterr().err

    def test_gc_refuses_non_store_directories(self, tmp_path, capsys):
        (tmp_path / "precious").mkdir()
        assert main(["store", "gc", "--dir", str(tmp_path)]) == 2
        assert "gc failed" in capsys.readouterr().err
        assert (tmp_path / "precious").exists()

    def test_ingest_rejects_foreign_engine(self, tmp_path, capsys):
        import json as _json

        bogus = tmp_path / "foreign.json"
        bogus.write_text(_json.dumps(
            {"engine": "0000.0-other", "cases": {}}))
        assert main(["store", "ingest", "--dir", str(tmp_path / "store"),
                     str(bogus)]) == 2
        assert "ingest failed" in capsys.readouterr().err


class TestAttackCommand:
    def test_unknown_attack_fails(self, capsys):
        assert main(["attack", "not_an_attack"]) == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_attack_reports_success_rate(self, capsys):
        assert main(["attack", "branchscope", "--mechanism", "noisy_xor_bp",
                     "--iterations", "60"]) == 0
        output = capsys.readouterr().out
        assert "success rate" in output
        assert "noisy_xor_bp" in output


class TestLeakageCommand:
    def test_leakage_table_lists_all_mechanisms(self, capsys):
        assert main(["leakage", "--mechanisms", "baseline", "noisy_xor_bp",
                     "--trials", "40"]) == 0
        output = capsys.readouterr().out
        assert "baseline" in output
        assert "noisy_xor_bp" in output
        assert "pht_direction" in output
        assert "btb_occupancy" in output


class TestCovertCommand:
    def test_baseline_channel_reported_open(self, capsys):
        assert main(["covert", "--bits", "64"]) == 0
        output = capsys.readouterr().out
        assert "bit error rate" in output
        assert "bits/s" in output

    def test_protected_channel_reported_closed(self, capsys):
        assert main(["covert", "--mechanism", "noisy_xor_bp", "--bits", "64"]) == 0
        assert "noisy_xor_bp" in capsys.readouterr().out


class TestHwcostCommand:
    def test_default_estimate(self, capsys):
        assert main(["hwcost"]) == 0
        output = capsys.readouterr().out
        assert "BTB 2w256" in output
        assert "TAGE PHT" in output

    def test_custom_geometry(self, capsys):
        assert main(["hwcost", "--btb", "512", "--ways", "4", "--pht", "1024"]) == 0
        assert "BTB 4w512" in capsys.readouterr().out


class TestReportCommand:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["report", "--experiments", "figure99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_report_writes_markdown_beside_html(self, tmp_path, capsys):
        assert main(["report", "--experiments", "table2", "table5",
                     "--out", str(tmp_path / "r.html")]) == 0
        output = capsys.readouterr().out
        assert "Paper reports" in output
        assert "\nverdicts: 1 hold, 1 known divergence(s), 0 diverge\n" \
            in output
        with open(tmp_path / "r.md", "r", encoding="utf-8") as handle:
            markdown = handle.read()
        assert "Table 5" in markdown
        assert "known (hwcost-small-btb-area)" in markdown
        assert "\nverdicts: 1 hold, 1 known divergence(s), 0 diverge\n" \
            in markdown

    def test_markdown_path_as_out_rejected(self, tmp_path, capsys):
        assert main(["report", "--experiments", "table5",
                     "--out", str(tmp_path / "r.md")]) == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "r.md").exists()

    def test_bench_set_report_counts_no_verdict(self, tmp_path, capsys):
        # bench:<selector> experiments make no paper claim: the report
        # renders them but neither lists nor counts a verdict for them.
        assert main(["report", "--experiments", "bench:int", "--scale",
                     "0.05", "--out", str(tmp_path / "r.html")]) == 0
        assert "\nverdicts: 0 hold, 0 known divergence(s), 0 diverge\n" \
            in capsys.readouterr().out
        assert (tmp_path / "r.html").exists()

    def test_html_report_end_to_end(self, tmp_path, capsys):
        from repro.experiments.executor import ENGINE_VERSION
        from repro.experiments.manifest import build_manifest

        output_path = str(tmp_path / "sub" / "report.html")
        assert main(["report", "--experiments", "table2", "table5",
                     "--out", output_path]) == 0
        output = capsys.readouterr().out
        assert "cases: 0 unique, 0 simulated, 0 store hit(s)" in output
        assert f"HTML report written to {output_path}" in output
        assert "\nverdicts: 1 hold, 1 known divergence(s), 0 diverge\n" \
            in output
        with open(output_path, "r", encoding="utf-8") as handle:
            html = handle.read()
        assert "<th>Verdict</th>" in html
        # Provenance pins the manifest the same keys would plan.
        manifest = build_manifest(keys=["table2", "table5"])
        assert manifest.manifest_hash() in html
        assert ENGINE_VERSION in html
        assert "Pareto" in html
        assert "<script" not in html


class TestServiceParser:
    def test_known_service_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).command == "serve"
        for command in ("watch", "fetch"):
            args = parser.parse_args(
                [command, "job-0001-ab12cd34"] +
                (["--out", "served"] if command == "fetch" else []))
            assert args.command == command
            assert args.job == "job-0001-ab12cd34"
        args = parser.parse_args(
            ["submit", "--experiments", "figure1", "figure8",
             "--bench-set", "unconditional", "--scale", "0.25",
             "--repetitions", "3", "--url", "http://h:1"])
        assert args.command == "submit"
        assert args.experiments == ["figure1", "figure8"]
        assert args.bench_set == ["unconditional"]
        assert args.scale == 0.25
        assert args.url == "http://h:1"

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000", "--dir",
             "store", "--data-dir", "data", "--workers", "2", "--jobs", "4"])
        assert args.host == "0.0.0.0"
        assert args.port == "9000"
        assert args.dir == "store"
        assert args.data_dir == "data"
        assert args.workers == "2"

    def test_store_scoping_flags(self):
        args = build_parser().parse_args(
            ["store", "export", "--out", "x.json",
             "--manifest", "a" * 64, "--manifest", "b" * 64])
        assert args.manifest == ["a" * 64, "b" * 64]
        args = build_parser().parse_args(
            ["store", "gc", "--manifest-hash", "c" * 64])
        assert args.manifest_hash == ["c" * 64]


class TestServeCommand:
    def test_serve_requires_a_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["serve"]) == 2
        assert "REPRO_STORE_DIR" in capsys.readouterr().err

    def test_malformed_port_and_workers_rejected(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["serve", "--dir", store_dir, "--port", "abc"]) == 2
        assert "--port" in capsys.readouterr().err
        assert main(["serve", "--dir", store_dir, "--port", "70000"]) == 2
        assert "[0, 65535]" in capsys.readouterr().err
        assert main(["serve", "--dir", store_dir, "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_malformed_env_port_rejected(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "nope")
        assert main(["serve", "--dir", str(tmp_path / "store")]) == 2
        assert "REPRO_SERVE_PORT" in capsys.readouterr().err


class TestClientCommands:
    """submit/watch/fetch driven through main() against a live service."""

    @pytest.fixture()
    def service(self, tmp_path):
        from repro.experiments.store import ResultStore
        from repro.service import SimulationService

        svc = SimulationService(ResultStore(str(tmp_path / "store")),
                                str(tmp_path / "data"), port=0, workers=1)
        svc.start()
        yield svc
        svc.stop()

    def test_submit_watch_fetch_round_trip(self, service, tmp_path, capsys):
        # table5 is caseless (a configuration table), so the round trip is
        # fast even against the real registry the server plans from.
        assert main(["submit", "--url", service.url,
                     "--experiments", "table5"]) == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip()  # the id alone, shell-capturable
        assert job_id.startswith("job-")
        assert "queued" in captured.err

        assert main(["watch", job_id, "--url", service.url]) == 0
        captured = capsys.readouterr()
        assert "0 unique, 0 simulated, 0 store hit(s)" in captured.out

        out_dir = tmp_path / "served"
        assert main(["fetch", job_id, "--url", service.url,
                     "--out", str(out_dir)]) == 0
        assert "fetched" in capsys.readouterr().out
        assert sorted(os.listdir(out_dir)) == \
            ["summary.json", "table5.json", "table5.txt"]

    def test_submit_validation_error_exits_2(self, service, capsys):
        assert main(["submit", "--url", service.url,
                     "--experiments", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_client_repetitions_parsed_before_any_request(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:1",
                     "--repetitions", "0"]) == 2
        assert "--repetitions" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        for argv in (["submit", "--experiments", "table5"],
                     ["watch", "job-0001-aaaaaaaa"],
                     ["fetch", "job-0001-aaaaaaaa", "--out", "x"]):
            assert main(argv + ["--url", f"http://127.0.0.1:{port}"]) == 2
            assert "is 'repro serve' running?" in capsys.readouterr().err


class TestScopedStoreCommands:
    def test_ingest_rejects_non_http_scheme_url(self, tmp_path, capsys):
        assert main(["store", "ingest", "--dir", str(tmp_path / "s"),
                     "ftp://host/export.json"]) == 2
        assert "must be http" in capsys.readouterr().err

    def test_scoped_export_and_gc_flow(self, tmp_path, capsys):
        from repro.cpu.stats import run_result_to_dict
        from repro.experiments.store import ResultStore

        store = TestStoreCommand()._populate(tmp_path / "a")
        key = store.keys()[0]
        store._write("ab" * 32, run_result_to_dict(store.get(key)))
        live = "1a" * 32
        store.register_manifest(live, [key])

        export_path = str(tmp_path / "scoped.json")
        assert main(["store", "export", "--dir", str(tmp_path / "a"),
                     "--out", export_path, "--manifest", live]) == 0
        out = capsys.readouterr().out
        assert "exported 1 entr(ies)" in out and "1 manifest(s)" in out

        assert main(["store", "gc", "--dir", str(tmp_path / "a"),
                     "--manifest-hash", live]) == 0
        assert "superseded manifests" in capsys.readouterr().out
        assert store.keys() == [key]

        assert main(["store", "gc", "--dir", str(tmp_path / "a"),
                     "--manifest-hash", "2b" * 32]) == 2
        assert "not registered" in capsys.readouterr().err
