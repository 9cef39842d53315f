"""Tests for the synthetic workload substrate (profiles, generator, pairs, traces)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.types import BranchType
from repro.workloads.generator import SyntheticWorkload, make_workload
from repro.workloads.pairs import (
    SINGLE_THREAD_PAIRS,
    SMT2_PAIRS,
    SMT4_QUADS,
    case_names,
    get_pair,
    make_pair_workloads,
)
from repro.workloads.spec_profiles import SPEC_PROFILES, get_profile, profile_names
from repro.workloads.trace import BranchRecord, collect_stats


class TestProfiles:
    def test_every_table3_benchmark_has_a_profile(self):
        needed = set()
        for pair in SINGLE_THREAD_PAIRS + SMT2_PAIRS:
            needed.update(pair.benchmarks)
        assert needed <= set(SPEC_PROFILES)

    def test_profiles_have_consistent_fractions(self):
        for profile in SPEC_PROFILES.values():
            total = (profile.loop_fraction + profile.biased_fraction
                     + profile.pattern_fraction + profile.random_fraction)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_branch_ratio_is_sane(self):
        for profile in SPEC_PROFILES.values():
            assert 0.01 <= profile.branch_ratio <= 0.30

    def test_get_profile_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_profile("doom3")

    def test_profile_names_sorted(self):
        names = profile_names()
        assert names == sorted(names)

    def test_paper_specific_characteristics(self):
        # gobmk: big branch working set; libquantum: tiny and predictable.
        assert get_profile("gobmk").static_conditional > 4 * get_profile("libquantum").static_conditional
        assert get_profile("libquantum").pht_accuracy_hint > get_profile("gobmk").pht_accuracy_hint
        # povray has the highest syscall rate (case2 in Table 4).
        rates = {n: p.privilege_switches_per_million_cycles
                 for n, p in SPEC_PROFILES.items()}
        assert rates["povray"] == max(rates.values())

    def test_table4_pair_rates_match_paper_approximately(self):
        expected = {"case1": 4.9, "case2": 7.0, "case6": 1.6, "case11": 3.5}
        for case, value in expected.items():
            pair = get_pair(case, "single")
            rates = [get_profile(b).privilege_switches_per_million_cycles
                     for b in pair.benchmarks]
            assert sum(rates) / 2 == pytest.approx(value, rel=0.15)


class TestPairs:
    def test_twelve_cases_each(self):
        assert len(SINGLE_THREAD_PAIRS) == 12
        assert len(SMT2_PAIRS) == 12
        assert len(SMT4_QUADS) == 6

    def test_case_names(self):
        assert case_names("single") == [f"case{i}" for i in range(1, 13)]

    def test_table3_contents(self):
        assert get_pair("case1", "single").benchmarks == ("gcc", "calculix")
        assert get_pair("case6", "single").benchmarks == ("gobmk", "libquantum")
        assert get_pair("case1", "smt2").benchmarks == ("zeusmp", "lbm")
        assert get_pair("case12", "smt2").benchmarks == ("zeusmp", "gobmk")

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            get_pair("case99", "single")

    def test_quads_have_four_benchmarks(self):
        for quad in SMT4_QUADS:
            assert len(quad.benchmarks) == 4

    def test_pair_helpers(self):
        pair = get_pair("case1", "single")
        assert pair.target == "gcc"
        assert pair.background == ("calculix",)
        assert pair.label() == "gcc+calculix"

    def test_make_pair_workloads(self):
        workloads = make_pair_workloads(get_pair("case1", "single"), seed=4)
        assert [w.name for w in workloads] == ["gcc", "calculix"]


class TestBranchRecord:
    def test_instructions_includes_gap(self):
        record = BranchRecord(0x1000, True, 0x2000, gap=9)
        assert record.instructions == 10

    def test_collect_stats(self):
        records = [
            BranchRecord(0x1000, True, 0x2000, BranchType.CONDITIONAL, gap=4),
            BranchRecord(0x1004, False, 0x2000, BranchType.CONDITIONAL, gap=4),
            BranchRecord(0x2000, True, 0x3000, BranchType.CALL, gap=4),
            BranchRecord(0x3000, True, 0x2004, BranchType.RETURN, gap=4,
                         syscall_after=True),
            BranchRecord(0x4000, True, 0x5000, BranchType.INDIRECT, gap=4),
        ]
        stats = collect_stats(records)
        assert stats.branches == 5
        assert stats.conditional == 2
        assert stats.taken_conditional == 1
        assert stats.calls == 1 and stats.returns == 1 and stats.indirect == 1
        assert stats.syscalls == 1
        assert stats.instructions == 25
        assert stats.distinct_pcs == 5
        assert stats.taken_ratio == pytest.approx(0.5)


class TestGenerator:
    def test_trace_is_deterministic_for_a_seed(self):
        a = make_workload("gcc", seed=3).segment(500)
        b = make_workload("gcc", seed=3).segment(500)
        assert [(r.pc, r.taken) for r in a] == [(r.pc, r.taken) for r in b]

    def test_different_seeds_differ(self):
        a = make_workload("gcc", seed=3).segment(500)
        b = make_workload("gcc", seed=4).segment(500)
        assert [(r.pc, r.taken) for r in a] != [(r.pc, r.taken) for r in b]

    def test_seed_offset_changes_interleaving(self):
        workload = make_workload("gcc", seed=3)
        a = workload.segment(300, seed_offset=0)
        b = workload.segment(300, seed_offset=1)
        assert [(r.pc, r.taken) for r in a] != [(r.pc, r.taken) for r in b]

    def test_branch_ratio_roughly_matches_profile(self):
        workload = make_workload("gcc", seed=1)
        stats = collect_stats(workload.segment(4000))
        profile = get_profile("gcc")
        measured = stats.branches / stats.instructions
        assert measured == pytest.approx(profile.branch_ratio, rel=0.35)

    def test_distinct_pcs_bounded_by_static_population(self):
        workload = make_workload("libquantum", seed=1)
        stats = collect_stats(workload.segment(3000))
        assert stats.distinct_pcs <= (workload.profile.static_conditional
                                      + workload.profile.static_calls * 2
                                      + workload.profile.static_indirect)

    def test_working_set_size_scales_with_code_size(self):
        assert make_workload("gobmk").working_set_size() > make_workload("lbm").working_set_size()

    def test_conditional_records_dominate(self):
        stats = collect_stats(make_workload("hmmer", seed=1).segment(2000))
        assert stats.conditional > stats.branches * 0.7

    def test_call_and_return_are_paired(self):
        stats = collect_stats(make_workload("dealII", seed=1).segment(4000))
        assert stats.calls == pytest.approx(stats.returns, abs=1)

    def test_indirect_branches_present_for_indirect_heavy_benchmarks(self):
        stats = collect_stats(make_workload("perlbench", seed=1).segment(4000))
        assert stats.indirect > 0

    def test_loop_heavy_benchmark_is_mostly_taken(self):
        stats = collect_stats(make_workload("lbm", seed=1).segment(3000))
        assert stats.taken_ratio > 0.85

    def test_profile_object_accepted_directly(self):
        profile = get_profile("milc")
        workload = SyntheticWorkload(profile, seed=2)
        assert workload.name == "milc"

    def test_records_stream_is_endless(self):
        workload = make_workload("milc", seed=2)
        stream = workload.records()
        first_10k = list(itertools.islice(stream, 10_000))
        assert len(first_10k) == 10_000

    @given(st.sampled_from(sorted(SPEC_PROFILES)), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_every_profile_generates_valid_records(self, name, seed):
        workload = make_workload(name, seed=seed)
        for record in workload.segment(200):
            assert record.pc % 4 == 0 or record.pc >= 0
            assert isinstance(record.taken, bool)
            assert record.gap >= 0
            assert isinstance(record.branch_type, BranchType)


class TestRecordBatches:
    def test_record_batches_match_records(self):
        workload = make_workload("gcc", seed=5)
        records = workload.segment(3_000, seed_offset=2)
        flat = []
        for batch in workload.record_batches(257, seed_offset=2):
            flat.extend(batch)
            if len(flat) >= 3_000:
                break
        for record, row in zip(records, flat):
            assert row == (record.pc, record.taken, record.target,
                           record.branch_type, record.instructions,
                           record.syscall_after)

    def test_batch_sizes_respect_minimum(self):
        workload = make_workload("milc", seed=1)
        stream = workload.record_batches(100)
        for _ in range(5):
            assert len(next(stream)) >= 100
