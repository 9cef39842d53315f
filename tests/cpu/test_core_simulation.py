"""Integration-level tests for the single-threaded and SMT core simulations."""

import pytest

from repro.core.registry import make_bpu
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore, unique_labels
from repro.cpu.smt import SmtCore
from repro.workloads import get_pair, make_pair_workloads, make_workload


def _build(config, preset, seed=11):
    return make_bpu(config.predictor, preset, seed=seed,
                    btb_sets=config.btb_sets, btb_ways=config.btb_ways,
                    btb_miss_forces_not_taken=config.btb_miss_forces_not_taken,
                    predictor_kwargs=dict(config.predictor_kwargs))


@pytest.fixture(scope="module")
def fast_config():
    """A small, fast core configuration for simulation tests."""
    return fpga_prototype("gshare", n_entries=2048)


class TestUniqueLabels:
    def test_unique_names_pass_through(self):
        assert unique_labels(["a", "b"]) == ["a", "b"]

    def test_duplicates_are_disambiguated(self):
        assert unique_labels(["a", "a", "a"]) == ["a", "a#2", "a#3"]


class TestSingleThreadCore:
    def test_runs_and_reports_target_work(self, fast_config):
        pair = get_pair("case6", "single")
        workloads = make_pair_workloads(pair, seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads, time_scale=200.0)
        result = core.run(target_branches=2000, warmup_branches=0)
        assert result.thread(pair.target).branches == 2000
        assert result.cycles > 0
        assert result.instructions > 2000

    def test_requires_at_least_one_workload(self, fast_config):
        with pytest.raises(ValueError):
            SingleThreadCore(fast_config, _build(fast_config, "baseline"), [])

    def test_unknown_engine_rejected(self, fast_config):
        workloads = make_pair_workloads(get_pair("case6", "single"), seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads)
        with pytest.raises(ValueError):
            core.run(target_branches=100, engine="vectorised")

    def test_background_workload_also_progresses(self, fast_config):
        pair = get_pair("case6", "single")
        workloads = make_pair_workloads(pair, seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads, time_scale=400.0)
        result = core.run(target_branches=4000, warmup_branches=0)
        background = pair.benchmarks[1]
        assert result.thread(background).branches > 0

    def test_context_switches_follow_interval(self, fast_config):
        pair = get_pair("case6", "single")
        workloads = make_pair_workloads(pair, seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads, time_scale=400.0)
        result = core.run(target_branches=4000, warmup_branches=0)
        expected = result.cycles / (fast_config.context_switch_interval / 400.0)
        assert result.context_switches == pytest.approx(expected, abs=2)

    def test_privilege_switches_are_even(self, fast_config):
        pair = get_pair("case1", "single")
        workloads = make_pair_workloads(pair, seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads, time_scale=200.0, syscall_time_scale=200.0)
        result = core.run(target_branches=3000, warmup_branches=0)
        assert result.privilege_switches % 2 == 0
        assert result.privilege_switches > 0

    def test_warmup_phase_excluded_from_stats(self, fast_config):
        pair = get_pair("case6", "single")
        workloads = make_pair_workloads(pair, seed=1)
        core = SingleThreadCore(fast_config, _build(fast_config, "baseline"),
                                workloads, time_scale=400.0)
        result = core.run(target_branches=1000, warmup_branches=1000)
        assert result.thread(pair.target).branches == 1000

    def test_deterministic_given_seeds(self, fast_config):
        pair = get_pair("case6", "single")

        def once():
            workloads = make_pair_workloads(pair, seed=3)
            core = SingleThreadCore(fast_config, _build(fast_config, "noisy_xor_bp", seed=5),
                                    workloads, time_scale=200.0)
            return core.run(target_branches=1500, warmup_branches=0)

        first, second = once(), once()
        assert first.cycles == second.cycles
        assert first.mpki == second.mpki

    def test_flush_mechanism_costs_cycles(self, fast_config):
        pair = get_pair("case6", "single")
        results = {}
        for preset in ("baseline", "complete_flush"):
            workloads = make_pair_workloads(pair, seed=3)
            core = SingleThreadCore(fast_config, _build(fast_config, preset),
                                    workloads, time_scale=800.0)
            results[preset] = core.run(target_branches=6000, warmup_branches=1500)
        overhead = results["complete_flush"].overhead_vs(results["baseline"],
                                                         workload=pair.target)
        assert overhead > 0.0


class TestSmtCore:
    def test_runs_until_instruction_budget(self):
        config = sunny_cove_smt("gshare", 2)
        pair = get_pair("case8", "smt2")
        workloads = make_pair_workloads(pair, seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads,
                       time_scale=200.0)
        result = core.run(instructions=30_000, warmup_instructions=0)
        assert result.instructions >= 30_000
        assert result.cycles > 0
        assert len(result.threads) == 2

    def test_thread_count_must_match(self):
        config = sunny_cove_smt("gshare", 2)
        with pytest.raises(ValueError):
            SmtCore(config, _build(config, "baseline"), [make_workload("milc")])

    def test_unknown_engine_rejected(self):
        config = sunny_cove_smt("gshare", 2)
        workloads = make_pair_workloads(get_pair("case8", "smt2"), seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads)
        with pytest.raises(ValueError):
            core.run(instructions=1_000, engine="vectorised")

    def test_se_mode_suppresses_syscalls(self):
        config = sunny_cove_smt("gshare", 2)
        pair = get_pair("case8", "smt2")
        workloads = make_pair_workloads(pair, seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads,
                       time_scale=200.0, se_mode=True)
        result = core.run(instructions=25_000)
        assert result.privilege_switches == 0

    def test_full_system_mode_injects_syscalls(self):
        config = sunny_cove_smt("gshare", 2)
        pair = get_pair("case8", "smt2")
        workloads = make_pair_workloads(pair, seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads,
                       time_scale=200.0, se_mode=False)
        result = core.run(instructions=60_000)
        assert result.privilege_switches > 0

    def test_smt4_supported(self):
        config = sunny_cove_smt("gshare", 4)
        pair = get_pair("quad1", "smt4")
        workloads = make_pair_workloads(pair, seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads,
                       time_scale=200.0)
        result = core.run(instructions=30_000)
        assert len(result.threads) == 4

    def test_duplicate_benchmarks_get_distinct_labels(self):
        config = sunny_cove_smt("gshare", 4)
        pair = get_pair("quad1", "smt4")  # contains zeusmp twice
        workloads = make_pair_workloads(pair, seed=1)
        core = SmtCore(config, _build(config, "baseline"), workloads,
                       time_scale=200.0)
        result = core.run(instructions=20_000)
        assert len(set(result.threads)) == 4

    def test_complete_flush_hurts_more_than_baseline_on_smt(self):
        config = sunny_cove_smt("gshare", 2)
        pair = get_pair("case7", "smt2")
        results = {}
        for preset in ("baseline", "complete_flush"):
            workloads = make_pair_workloads(pair, seed=1)
            core = SmtCore(config, _build(config, preset), workloads,
                           time_scale=600.0)
            results[preset] = core.run(instructions=60_000, warmup_instructions=15_000)
        assert results["complete_flush"].overhead_vs(results["baseline"]) > 0.0
