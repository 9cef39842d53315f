"""SMT core simulation (the gem5-based experiments).

In the paper's SMT methodology (Section 6.1), the benchmarks of a pair run
*concurrently*, one per hardware thread, on a Sunny-Cove-like core; the
predictors are shared between the hardware threads.  Each hardware thread
still receives OS timer ticks (which trigger the isolation action: a flush or
a key regeneration for that thread) and performs its own system calls.

The simulation interleaves the per-thread branch streams in cycle order: at
every step the hardware thread with the smallest local cycle count commits its
next branch, so the threads stay time-aligned and shared-structure
interference (the source of the SMT-specific costs in Figures 2, 3 and 10)
happens in a realistic order.  Per-thread base CPI is scaled by the number of
hardware threads to reflect the shared issue bandwidth.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.secure import BranchPredictionUnit
from ..types import BranchType, Privilege
from ..workloads.generator import SyntheticWorkload
from .config import CoreConfig
from .core import TRACE_BATCH, unique_labels
from .scheduler import PeriodicEvent, SyscallModel
from .stats import RunResult, ThreadStats
from .timing import BranchTimingModel

__all__ = ["SmtCore"]


class SmtCore:
    """Trace-driven SMT core with per-hardware-thread OS events.

    Args:
        config: core configuration; ``config.smt_threads`` hardware threads.
        bpu: the shared branch prediction unit under test.
        workloads: one workload per hardware thread.
        time_scale: real cycles represented by one simulated cycle (the
            context-switch and syscall intervals are divided by it).
    """

    def __init__(self, config: CoreConfig, bpu: BranchPredictionUnit,
                 workloads: Sequence[SyntheticWorkload], *,
                 time_scale: float = 100.0, se_mode: bool = True) -> None:
        if len(workloads) != config.smt_threads:
            raise ValueError(
                f"expected {config.smt_threads} workloads, got {len(workloads)}")
        self.config = config
        self.bpu = bpu
        self.workloads: List[SyntheticWorkload] = list(workloads)
        self.time_scale = time_scale
        #: System-call-emulation mode (the paper's gem5 SMT methodology): no
        #: privilege switches occur; only OS timer ticks drive the isolation
        #: mechanisms.  Set False to model a full-system SMT run.
        self.se_mode = se_mode
        # Each hardware thread sees 1/N of the core's sustained bandwidth.
        per_thread_config = replace(config, base_cpi=config.base_cpi * config.smt_threads)
        self._timing = BranchTimingModel(per_thread_config)

    def run(self, instructions: int = 400_000, *,
            warmup_instructions: int = 0,
            mechanism_name: Optional[str] = None,
            engine: str = "batched") -> RunResult:
        """Simulate until the combined committed-instruction budget is met.

        This mirrors the paper's SMT methodology: warm up, then "count the
        execution cycles of the next N instructions executed by either
        thread".  Hardware threads advance in cycle order, so a thread that
        suffers more mispredictions contributes fewer instructions by the
        time the budget is reached and the elapsed cycle count grows.

        Args:
            instructions: combined committed instructions in the measured
                phase.
            warmup_instructions: combined instructions executed before
                statistics are reset.
            mechanism_name: label recorded in the result.
            engine: ``"batched"`` (default) uses the chunked-trace fast
                engine; ``"scalar"`` keeps the original per-record reference
                loop.  Both produce bit-identical :class:`RunResult`
                statistics for the same seeds.

        Returns:
            A :class:`repro.cpu.stats.RunResult` whose ``cycles`` is the
            elapsed time of the measured phase.
        """
        if engine not in ("batched", "scalar"):
            raise ValueError(f"unknown engine {engine!r}")
        # Every hardware thread holds a key from the first cycle, drawn in
        # thread order: drawn lazily, the engines and dispatch arms would
        # leave differently encoded stale entries.
        self.bpu.draw_keys(self.config.smt_threads)
        if engine == "batched":
            return self._run_batched(instructions, warmup_instructions,
                                     mechanism_name)
        return self._run_scalar(instructions, warmup_instructions,
                                mechanism_name)

    def _run_scalar(self, instructions: int, warmup_instructions: int,
                    mechanism_name: Optional[str]) -> RunResult:
        """Reference per-record engine (the seed implementation)."""
        config = self.config
        n = config.smt_threads
        switch_interval = config.context_switch_interval / self.time_scale
        kernel_cycles = float(config.syscall_kernel_cycles)

        iterators = [wl.records(seed_offset=i) for i, wl in enumerate(self.workloads)]
        labels = unique_labels([wl.name for wl in self.workloads])
        stats = [ThreadStats(name=label) for label in labels]
        local_cycles = [0.0] * n
        # Stagger timer ticks across hardware threads so flushes interleave.
        timers = [PeriodicEvent(switch_interval, phase=i * switch_interval / max(n, 1))
                  for i in range(n)]
        syscalls = [SyscallModel(wl, self.time_scale, phase=i * 23.0)
                    for i, wl in enumerate(self.workloads)]

        context_switches = 0
        privilege_switches = 0
        committed_instructions = 0
        baseline_time = 0.0
        warming = warmup_instructions > 0
        budget = warmup_instructions if warming else instructions

        while True:
            if committed_instructions >= budget:
                if warming:
                    warming = False
                    budget = instructions
                    committed_instructions = 0
                    stats = [ThreadStats(name=label) for label in labels]
                    baseline_time = max(local_cycles)
                    context_switches = 0
                    privilege_switches = 0
                    continue
                break
            # Advance the hardware thread that is furthest behind in time.
            thread = min(range(n), key=lambda t: local_cycles[t])

            record = next(iterators[thread])
            outcome = self.bpu.execute_branch(record.pc, record.taken, record.target,
                                              record.branch_type, thread)
            cost = self._timing.record_cost(record.instructions, outcome)
            local_cycles[thread] += cost
            committed_instructions += record.instructions

            stat = stats[thread]
            stat.cycles += cost
            stat.instructions += record.instructions
            stat.branches += 1
            if record.branch_type is BranchType.CONDITIONAL:
                stat.conditional_branches += 1
                if outcome.direction_mispredicted:
                    stat.direction_mispredicts += 1
            if outcome.target_mispredicted:
                stat.target_mispredicts += 1
            if outcome.btb_accessed:
                stat.btb_lookups += 1
                if outcome.btb_hit:
                    stat.btb_hits += 1

            # Trace-embedded syscall marker: honored even in SE mode (the
            # marker is recorded program behavior, not the periodic OS model).
            if record.syscall_after:
                self.bpu.notify_privilege_switch(thread, Privilege.KERNEL)
                self.bpu.notify_privilege_switch(thread, Privilege.USER)
                privilege_switches += 2
                stat.syscalls += 1
                local_cycles[thread] += kernel_cycles
                stat.cycles += kernel_cycles

            # Per-thread system calls (absent in SE mode).
            n_syscalls = 0 if self.se_mode else syscalls[thread].due(local_cycles[thread])
            for _ in range(n_syscalls):
                self.bpu.notify_privilege_switch(thread, Privilege.KERNEL)
                self.bpu.notify_privilege_switch(thread, Privilege.USER)
                privilege_switches += 2
                stat.syscalls += 1
                local_cycles[thread] += kernel_cycles
                stat.cycles += kernel_cycles

            # Per-thread OS timer ticks.
            ticks = timers[thread].pending(local_cycles[thread])
            if ticks:
                context_switches += ticks
                stat.context_switches += ticks
                for _ in range(ticks):
                    self.bpu.notify_context_switch(thread)

        elapsed = max(local_cycles)
        if warmup_instructions > 0:
            elapsed -= baseline_time
        result = RunResult(
            config_name=config.name,
            mechanism=mechanism_name or getattr(self.bpu.isolation, "name", "unknown"),
            predictor=config.predictor,
            cycles=elapsed,
            instructions=sum(s.instructions for s in stats),
            threads={s.name: s for s in stats},
            context_switches=context_switches,
            privilege_switches=privilege_switches,
            time_scale=self.time_scale,
        )
        return result

    def _run_batched(self, instructions: int, warmup_instructions: int,
                     mechanism_name: Optional[str]) -> RunResult:
        """Chunked-trace fast engine (cycle-exact vs. :meth:`_run_scalar`).

        Same restructuring as
        :meth:`repro.cpu.core.SingleThreadCore._run_batched`: tuple batches
        instead of per-record generators, the BPU fast path, inline timing
        arithmetic and due-checked OS events.  Thread interleaving, float
        accumulation order and statistics are identical to the scalar loop.
        """
        config = self.config
        n = config.smt_threads
        switch_interval = config.context_switch_interval / self.time_scale
        kernel_cycles = float(config.syscall_kernel_cycles)

        batch_iters = [wl.record_batches(TRACE_BATCH, seed_offset=i)
                       for i, wl in enumerate(self.workloads)]
        buffers: List[list] = [[] for _ in range(n)]
        positions = [0] * n
        labels = unique_labels([wl.name for wl in self.workloads])
        stats = [ThreadStats(name=label) for label in labels]
        local_cycles = [0.0] * n
        # Stagger timer ticks across hardware threads so flushes interleave.
        timers = [PeriodicEvent(switch_interval, phase=i * switch_interval / max(n, 1))
                  for i in range(n)]
        syscall_events = [SyscallModel(wl, self.time_scale, phase=i * 23.0).event
                          for i, wl in enumerate(self.workloads)]

        # Hot-loop local bindings.  Conditional branches (the vast majority)
        # are driven directly through the predictor/BTB fused entry points,
        # skipping the execute_branch_fast call frame; the logic below is the
        # same statement-for-statement, so outcomes are identical.
        bpu = self.bpu
        execute = bpu.execute_branch_fast
        # Per-hardware-thread direction and BTB kernels (see
        # ``SingleThreadCore._run_batched``); re-fetched per thread after its
        # switch notifications.  Kernels accept and ignore a trailing
        # thread id.
        exec_kernel = bpu.direction.exec_kernel
        btb_kernel = bpu.btb.exec_conditional_kernel
        dir_kernels = [exec_kernel(t) for t in range(n)]
        btb_kernels = [btb_kernel(t) for t in range(n)]
        miss_forces_not_taken = bpu._btb_miss_forces_not_taken
        notify_privilege = bpu.notify_privilege_switch
        notify_context = bpu.notify_context_switch
        timing = self._timing
        base_cpi = timing._base_cpi
        mispredict_penalty = float(timing._mispredict_penalty)
        btb_miss_penalty = float(timing._btb_miss_penalty)
        conditional = BranchType.CONDITIONAL
        kernel = Privilege.KERNEL
        user = Privilege.USER
        se_mode = self.se_mode
        two_threads = n == 2

        context_switches = 0
        privilege_switches = 0
        committed_instructions = 0
        baseline_time = 0.0
        warming = warmup_instructions > 0
        budget = warmup_instructions if warming else instructions

        while True:
            if committed_instructions >= budget:
                if warming:
                    warming = False
                    budget = instructions
                    committed_instructions = 0
                    stats = [ThreadStats(name=label) for label in labels]
                    baseline_time = max(local_cycles)
                    context_switches = 0
                    privilege_switches = 0
                    continue
                break
            # Advance the hardware thread that is furthest behind in time.
            if two_threads:
                thread = 0 if local_cycles[0] <= local_cycles[1] else 1
            else:
                thread = min(range(n), key=local_cycles.__getitem__)

            buf = buffers[thread]
            pos = positions[thread]
            if pos >= len(buf):
                buf = buffers[thread] = next(batch_iters[thread])
                pos = 0
            pc, taken, target, branch_type, record_instructions, syscall_after = buf[pos]
            positions[thread] = pos + 1

            if branch_type is conditional:
                # Inlined conditional-branch path of execute_branch_fast.
                predicted = dir_kernels[thread](pc, taken, thread)
                hit, btb_target = btb_kernels[thread](pc, target, taken, thread)
                if predicted and not hit and miss_forces_not_taken:
                    predicted = False
                dirm = predicted != taken
                tgtm = (not dirm and taken
                        and (not hit or btb_target != target))
                if dirm or tgtm:
                    cost = record_instructions * base_cpi + mispredict_penalty
                elif not hit and taken:
                    cost = record_instructions * base_cpi + btb_miss_penalty
                else:
                    cost = record_instructions * base_cpi + 0.0
                local = local_cycles[thread] + cost
                local_cycles[thread] = local
                committed_instructions += record_instructions

                stat = stats[thread]
                stat.cycles += cost
                stat.instructions += record_instructions
                stat.branches += 1
                stat.conditional_branches += 1
                if dirm:
                    stat.direction_mispredicts += 1
                if tgtm:
                    stat.target_mispredicts += 1
                stat.btb_lookups += 1
                if hit:
                    stat.btb_hits += 1
            else:
                dirm, tgtm, btb_accessed, btb_hit = execute(pc, taken, target,
                                                            branch_type, thread)
                if dirm or tgtm:
                    cost = record_instructions * base_cpi + mispredict_penalty
                elif btb_accessed and not btb_hit:
                    cost = record_instructions * base_cpi + btb_miss_penalty
                else:
                    cost = record_instructions * base_cpi + 0.0
                local = local_cycles[thread] + cost
                local_cycles[thread] = local
                committed_instructions += record_instructions

                stat = stats[thread]
                stat.cycles += cost
                stat.instructions += record_instructions
                stat.branches += 1
                if tgtm:
                    stat.target_mispredicts += 1
                if btb_accessed:
                    stat.btb_lookups += 1
                    if btb_hit:
                        stat.btb_hits += 1

            # Trace-embedded syscall marker (mirrors the scalar engine; honored
            # even in SE mode — it is recorded program behavior).  Kernels are
            # re-fetched because the privilege switch may rotate keys.
            if syscall_after:
                notify_privilege(thread, kernel)
                notify_privilege(thread, user)
                privilege_switches += 2
                stat.syscalls += 1
                local += kernel_cycles
                stat.cycles += kernel_cycles
                local_cycles[thread] = local
                dir_kernels[thread] = exec_kernel(thread)
                btb_kernels[thread] = btb_kernel(thread)

            # Per-thread system calls (absent in SE mode).
            if not se_mode:
                event = syscall_events[thread]
                if local >= event._next:
                    n_events = event.pending(local)
                    for _ in range(n_events):
                        notify_privilege(thread, kernel)
                        notify_privilege(thread, user)
                        privilege_switches += 2
                        stat.syscalls += 1
                        local += kernel_cycles
                        stat.cycles += kernel_cycles
                    local_cycles[thread] = local
                    if n_events:
                        dir_kernels[thread] = exec_kernel(thread)
                        btb_kernels[thread] = btb_kernel(thread)

            # Per-thread OS timer ticks.
            timer = timers[thread]
            if local >= timer._next:
                ticks = timer.pending(local)
                if ticks:
                    context_switches += ticks
                    stat.context_switches += ticks
                    for _ in range(ticks):
                        notify_context(thread)
                    dir_kernels[thread] = exec_kernel(thread)
                    btb_kernels[thread] = btb_kernel(thread)

        elapsed = max(local_cycles)
        if warmup_instructions > 0:
            elapsed -= baseline_time
        return RunResult(
            config_name=config.name,
            mechanism=mechanism_name or getattr(self.bpu.isolation, "name", "unknown"),
            predictor=config.predictor,
            cycles=elapsed,
            instructions=sum(s.instructions for s in stats),
            threads={s.name: s for s in stats},
            context_switches=context_switches,
            privilege_switches=privilege_switches,
            time_scale=self.time_scale,
        )
