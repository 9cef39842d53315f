"""Differential parity for trace replay with embedded syscall markers.

A recorded trace line may carry ``syscall_after=1``: replay must inject the
kernel round-trip (privilege-switch pair + kernel cycles) *at that record*,
identically in the scalar reference loop and the batched fast engine, on
both core models.  These tests pin that contract
end-to-end and at the raw-storage level: a marker forces a rekey boundary in
the keyed isolation presets, so drifting by even one record would desync the
encoded predictor state.
"""

import dataclasses

import pytest

from repro.core.registry import make_bpu
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.types import Privilege
from repro.workloads import TraceWorkload, make_workload, write_trace

#: Marker period chosen co-prime-ish with the batched engines' chunk size so
#: markers land in chunk interiors, at chunk edges, and mid-warm-up.
MARK_EVERY = 50

PRESETS = ["baseline", "noisy_xor_bp", "complete_flush"]


def _marker_records(n=1_200, every=MARK_EVERY, *, profile="gcc", seed=3):
    records = make_workload(profile, seed=seed).segment(n)
    return [dataclasses.replace(r, syscall_after=(i % every == every - 1))
            for i, r in enumerate(records)]


def _marker_trace(tmp_path, filename, **kwargs):
    path = str(tmp_path / filename)
    write_trace(_marker_records(**kwargs), path)
    return TraceWorkload.from_file(path)


def _result_snapshot(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "context_switches": result.context_switches,
        "privilege_switches": result.privilege_switches,
        "threads": {
            name: (t.cycles, t.instructions, t.branches,
                   t.conditional_branches, t.direction_mispredicts,
                   t.target_mispredicts, t.btb_lookups, t.btb_hits,
                   t.syscalls, t.context_switches)
            for name, t in result.threads.items()},
    }


def _raw_state(bpu):
    return ([list(table.rows()) for table in bpu.direction.tables()],
            bpu.btb.raw_sets())


class TestSingleThreadMarkerParity:
    def _simulate(self, trace, preset, *, engine):
        config = fpga_prototype("gshare")
        bpu = make_bpu("gshare", preset, seed=11, btb_sets=config.btb_sets,
                       btb_ways=config.btb_ways)
        core = SingleThreadCore(config, bpu, [trace], time_scale=200.0)
        return core.run(target_branches=900, warmup_branches=200,
                        mechanism_name=preset, engine=engine), bpu

    def _run(self, trace, preset, *, engine):
        return self._simulate(trace, preset, engine=engine)[0]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_scalar_batched_bit_identical_with_markers(self, tmp_path,
                                                       preset):
        trace = _marker_trace(tmp_path, "marked.trace.gz")
        scalar = self._run(trace, preset, engine="scalar")
        batched = self._run(trace, preset, engine="batched")
        # The markers really fired: warm-up consumes 200 records, the
        # measured phase the next 900, so >= (900 // MARK_EVERY) syscalls.
        assert scalar.thread(trace.name).syscalls >= 900 // MARK_EVERY
        assert scalar.privilege_switches >= 2 * (900 // MARK_EVERY)
        assert _result_snapshot(batched) == _result_snapshot(scalar)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_scalar_batched_raw_storage_identical_with_markers(self, tmp_path,
                                                               preset):
        trace = _marker_trace(tmp_path, "marked.trace.gz")
        _, scalar_bpu = self._simulate(trace, preset, engine="scalar")
        _, batched_bpu = self._simulate(trace, preset, engine="batched")
        assert _raw_state(batched_bpu) == _raw_state(scalar_bpu)

    def test_marker_free_trace_stays_marker_free(self, tmp_path):
        # A trace without markers (and the 0.0 syscall rate every trace
        # profile carries) must never synthesise privilege switches.
        path = str(tmp_path / "plain.trace.gz")
        write_trace(make_workload("gcc", seed=3).segment(1_200), path)
        trace = TraceWorkload.from_file(path)
        for engine in ("scalar", "batched"):
            result = self._run(trace, "noisy_xor_bp", engine=engine)
            assert result.privilege_switches == 0
            assert result.thread(trace.name).syscalls == 0


class TestSmtMarkerParity:
    def _simulate(self, traces, preset, *, engine, se_mode):
        config = sunny_cove_smt("gshare")
        bpu = build_bpu(config, preset, seed=7)
        core = SmtCore(config, bpu, traces, time_scale=400.0,
                       se_mode=se_mode)
        return core.run(instructions=12_000, warmup_instructions=3_000,
                        mechanism_name=preset, engine=engine), bpu

    def _run(self, traces, preset, *, engine, se_mode):
        return self._simulate(traces, preset, engine=engine,
                              se_mode=se_mode)[0]

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("se_mode", [True, False])
    def test_scalar_batched_bit_identical_with_markers(self, tmp_path,
                                                       preset, se_mode):
        traces = [_marker_trace(tmp_path, f"t{i}.trace.gz", seed=3 + i)
                  for i in range(2)]
        scalar = self._run(traces, preset, engine="scalar", se_mode=se_mode)
        batched = self._run(traces, preset, engine="batched",
                            se_mode=se_mode)
        # Embedded markers are replayed *even in SE mode*: they are part of
        # the recorded workload, unlike the periodic syscall model SE mode
        # disables.
        assert scalar.privilege_switches > 0
        assert sum(t.syscalls for t in scalar.threads.values()) > 0
        assert _result_snapshot(batched) == _result_snapshot(scalar)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_scalar_batched_raw_storage_identical_with_markers(self, tmp_path,
                                                               preset):
        traces = [_marker_trace(tmp_path, f"t{i}.trace.gz", seed=3 + i)
                  for i in range(2)]
        _, scalar_bpu = self._simulate(traces, preset, engine="scalar",
                                       se_mode=False)
        _, batched_bpu = self._simulate(traces, preset, engine="batched",
                                        se_mode=False)
        assert _raw_state(batched_bpu) == _raw_state(scalar_bpu)


class TestMarkerBoundaryStorage:
    """Raw encoded storage compared at every marker-driven rekey boundary."""

    @pytest.mark.parametrize("preset", ["noisy_xor_bp", "complete_flush"])
    @pytest.mark.parametrize("predictor", ["gshare", "tage"])
    def test_fast_vs_generic_dispatch_at_marker_boundaries(self, preset,
                                                           predictor):
        records = _marker_records(n=900, every=37)
        fast = make_bpu(predictor, preset, seed=5)
        slow = make_bpu(predictor, preset, seed=5)
        slow.force_generic_dispatch()

        boundaries = 0
        for i, record in enumerate(records):
            out_fast = fast.execute_branch_fast(
                record.pc, record.taken, record.target, record.branch_type, 0)
            out_slow = slow.execute_branch_fast(
                record.pc, record.taken, record.target, record.branch_type, 0)
            assert out_fast == out_slow, f"outcome diverged at record {i}"
            if record.syscall_after:
                for bpu in (fast, slow):
                    bpu.notify_privilege_switch(0, Privilege.KERNEL)
                    bpu.notify_privilege_switch(0, Privilege.USER)
                boundaries += 1
                assert _raw_state(fast) == _raw_state(slow), \
                    f"raw storage diverged at marker after record {i}"
        assert boundaries > 10
        assert _raw_state(fast) == _raw_state(slow)
