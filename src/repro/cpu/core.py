"""Single-threaded core simulation (the FPGA-prototype experiments).

The paper's single-thread methodology (Section 6.1): a *target* benchmark and
a *background* benchmark time-share one core under the Linux scheduler
(250 Hz timer); the execution time of the target benchmark is measured.  The
isolation mechanism reacts to every context switch and to every privilege
switch (system call) of the running benchmark.

This module reproduces that setup as a trace-driven simulation: the two
synthetic workloads are interleaved in slices of ``context_switch_interval``
simulated cycles, the branch prediction unit is notified on every switch, and
cycles are attributed to whichever workload is running.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.secure import BranchPredictionUnit
from ..types import BranchType, Privilege
from ..workloads.generator import SyntheticWorkload
from .config import CoreConfig
from .scheduler import RoundRobinScheduler, SyscallModel
from .stats import RunResult, ThreadStats
from .timing import BranchTimingModel

__all__ = ["SingleThreadCore", "unique_labels", "TRACE_BATCH"]

#: Records pulled from each workload per trace-generation chunk.
TRACE_BATCH = 2048


def unique_labels(names: Sequence[str]) -> List[str]:
    """Disambiguate duplicate workload names (e.g. two copies of zeusmp)."""
    seen: Dict[str, int] = {}
    labels = []
    for name in names:
        count = seen.get(name, 0)
        labels.append(name if count == 0 else f"{name}#{count + 1}")
        seen[name] = count + 1
    return labels


class SingleThreadCore:
    """Trace-driven single-threaded core with an OS scheduler.

    Args:
        config: core configuration (FPGA prototype by default sizing).
        bpu: the branch prediction unit under test.
        workloads: software contexts sharing the core; the first one is the
            *target* benchmark whose cycles the experiments measure.
        time_scale: how many real cycles one simulated cycle represents; the
            context-switch and syscall intervals are divided by it so that
            the ratio of execution-window length to predictor warm-up time is
            preserved at tractable trace lengths.
    """

    HW_THREAD = 0

    def __init__(self, config: CoreConfig, bpu: BranchPredictionUnit,
                 workloads: Sequence[SyntheticWorkload], *,
                 time_scale: float = 100.0,
                 syscall_time_scale: Optional[float] = None) -> None:
        if not workloads:
            raise ValueError("at least one workload is required")
        self.config = config
        self.bpu = bpu
        self.workloads: List[SyntheticWorkload] = list(workloads)
        self.time_scale = time_scale
        #: Scale applied to the system-call period.  Defaults to the context-
        #: switch scale; experiments may scale system calls less aggressively
        #: so that the per-event warm-up cost amortises more realistically.
        self.syscall_time_scale = (syscall_time_scale if syscall_time_scale is not None
                                   else time_scale)
        self._timing = BranchTimingModel(config)

    def run(self, target_branches: int = 50_000, *,
            warmup_branches: int = 0,
            mechanism_name: Optional[str] = None,
            engine: str = "batched") -> RunResult:
        """Simulate until the target workload has committed ``target_branches``.

        Args:
            target_branches: conditional+unconditional branch records the
                *target* (first) workload must commit after warm-up.
            warmup_branches: target-workload branches executed before
                statistics are reset (predictor warm-up).
            mechanism_name: label recorded in the result.
            engine: ``"batched"`` (default) uses the chunked-trace fast
                engine; ``"scalar"`` keeps the original per-record reference
                loop.  Both produce bit-identical :class:`RunResult`
                statistics for the same seeds.

        Returns:
            A :class:`repro.cpu.stats.RunResult`.
        """
        if engine == "batched":
            return self._run_batched(target_branches, warmup_branches,
                                     mechanism_name)
        if engine != "scalar":
            raise ValueError(f"unknown engine {engine!r}")
        return self._run_scalar(target_branches, warmup_branches,
                                mechanism_name)

    def _run_scalar(self, target_branches: int, warmup_branches: int,
                    mechanism_name: Optional[str]) -> RunResult:
        """Reference per-record engine (the seed implementation)."""
        config = self.config
        switch_interval = config.context_switch_interval / self.time_scale
        kernel_cycles = float(config.syscall_kernel_cycles)
        scheduler = RoundRobinScheduler(len(self.workloads), switch_interval)
        iterators = [wl.records(seed_offset=i) for i, wl in enumerate(self.workloads)]
        labels = unique_labels([wl.name for wl in self.workloads])
        stats = [ThreadStats(name=label) for label in labels]
        syscalls = [SyscallModel(wl, self.syscall_time_scale, phase=i * 17.0)
                    for i, wl in enumerate(self.workloads)]

        cycles = 0.0
        privilege_switches = 0
        target_committed = 0
        warming = warmup_branches > 0
        budget = warmup_branches if warming else target_branches
        # Per-workload cycle clocks that drive its syscall schedule; unlike the
        # statistics they are never reset at the warm-up boundary.
        own_cycles = [0.0] * len(self.workloads)

        while True:
            current = scheduler.current
            record = next(iterators[current])
            outcome = self.bpu.execute_branch(record.pc, record.taken, record.target,
                                              record.branch_type, self.HW_THREAD)
            cost = self._timing.record_cost(record.instructions, outcome)
            cycles += cost

            own_cycles[current] += cost
            stat = stats[current]
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

            # Trace-embedded syscall marker: the recorded program performed a
            # system call right after this branch, so the privilege round-trip
            # happens here regardless of the periodic model's schedule.
            if record.syscall_after:
                self.bpu.notify_privilege_switch(self.HW_THREAD, Privilege.KERNEL)
                self.bpu.notify_privilege_switch(self.HW_THREAD, Privilege.USER)
                privilege_switches += 2
                stat.syscalls += 1
                cycles += kernel_cycles
                stat.cycles += kernel_cycles
                own_cycles[current] += kernel_cycles

            # System calls of the running workload (driven by its own cycles).
            n_syscalls = syscalls[current].due(own_cycles[current])
            for _ in range(n_syscalls):
                self.bpu.notify_privilege_switch(self.HW_THREAD, Privilege.KERNEL)
                self.bpu.notify_privilege_switch(self.HW_THREAD, Privilege.USER)
                privilege_switches += 2
                stat.syscalls += 1
                cycles += kernel_cycles
                stat.cycles += kernel_cycles
                own_cycles[current] += kernel_cycles

            # Timer tick: round-robin to the next software context.
            if scheduler.maybe_switch(cycles):
                stat.context_switches += 1
                self.bpu.notify_context_switch(self.HW_THREAD)

            if current == 0:
                target_committed += 1
                if target_committed >= budget:
                    if warming:
                        # Reset statistics and start the measured phase.
                        warming = False
                        budget = target_branches
                        target_committed = 0
                        for i, label in enumerate(labels):
                            stats[i] = ThreadStats(name=label)
                        cycles_offset = cycles
                        privilege_switches = 0
                        scheduler.switches = 0
                        continue
                    break

        measured_cycles = cycles if warmup_branches == 0 else cycles - cycles_offset
        result = RunResult(
            config_name=config.name,
            mechanism=mechanism_name or getattr(self.bpu.isolation, "name", "unknown"),
            predictor=config.predictor,
            cycles=measured_cycles,
            instructions=sum(s.instructions for s in stats),
            threads={s.name: s for s in stats},
            context_switches=scheduler.switches,
            privilege_switches=privilege_switches,
            time_scale=self.time_scale,
        )
        return result

    def _run_batched(self, target_branches: int, warmup_branches: int,
                     mechanism_name: Optional[str]) -> RunResult:
        """Chunked-trace fast engine (cycle-exact vs. :meth:`_run_scalar`).

        The loop consumes pre-generated ``(pc, taken, target, type,
        instructions, syscall_after)`` tuples from
        :meth:`SyntheticWorkload.record_batches`,
        drives the BPU through its allocation-light fast path, folds the
        timing model into inline arithmetic and only calls into the periodic
        OS-event machinery when an event is actually due.  Every arithmetic
        operation happens with the same values in the same order as the
        scalar engine, so the returned statistics are bit-identical.
        """
        config = self.config
        switch_interval = config.context_switch_interval / self.time_scale
        kernel_cycles = float(config.syscall_kernel_cycles)
        n_workloads = len(self.workloads)
        scheduler = RoundRobinScheduler(n_workloads, switch_interval)
        timer = scheduler.timer
        batch_iters = [wl.record_batches(TRACE_BATCH, seed_offset=i)
                       for i, wl in enumerate(self.workloads)]
        buffers: List[list] = [[] for _ in range(n_workloads)]
        positions = [0] * n_workloads
        labels = unique_labels([wl.name for wl in self.workloads])
        stats = [ThreadStats(name=label) for label in labels]
        syscall_events = [SyscallModel(wl, self.syscall_time_scale,
                                       phase=i * 17.0).event
                          for i, wl in enumerate(self.workloads)]

        # Hot-loop local bindings.  Conditional branches (the vast majority)
        # are driven directly through the predictor/BTB fused entry points,
        # skipping the execute_branch_fast call frame; the logic below is the
        # same statement-for-statement, so outcomes are identical.
        bpu = self.bpu
        execute = bpu.execute_branch_fast
        hw = self.HW_THREAD
        # The direction predictor and the BTB hand the loop per-thread
        # kernels, re-fetched after every switch notification (switches may
        # rotate keys or drop bound state).
        exec_kernel = bpu.direction.exec_kernel
        btb_kernel = bpu.btb.exec_conditional_kernel
        dir_execute = exec_kernel(hw)
        btb_conditional = btb_kernel(hw)
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

        cycles = 0.0
        cycles_offset = 0.0
        privilege_switches = 0
        target_committed = 0
        warming = warmup_branches > 0
        budget = warmup_branches if warming else target_branches
        # Per-workload cycle clocks that drive its syscall schedule; unlike
        # the statistics they are never reset at the warm-up boundary.
        own_cycles = [0.0] * n_workloads

        # Per-context state hoisted into locals; written back to the lists
        # whenever the scheduler switches to another software context.
        current = scheduler.current
        buf = buffers[current]
        buf_len = len(buf)
        pos = positions[current]
        stat = stats[current]
        event = syscall_events[current]
        event_next = event._next
        timer_next = timer._next
        own = own_cycles[current]
        # Integer statistics of the *current* context accumulate in locals
        # and are folded into the ThreadStats object when the context (or
        # measurement phase) changes.  ``s_cycles`` is the context's
        # ``stat.cycles`` held in a local between fold points: it receives
        # the exact same per-record ``+=`` sequence from the same starting
        # value, so the float rounding is bit-identical to the scalar
        # engine's per-record attribute adds.
        s_instr = s_branches = s_cond = s_dirm = s_tgtm = 0
        s_lookups = s_hits = s_sys = s_switches = 0
        s_cycles = stat.cycles

        while True:
            if pos >= buf_len:
                buf = next(batch_iters[current])
                buf_len = len(buf)
                pos = 0
            pc, taken, target, branch_type, instructions, syscall_after = buf[pos]
            pos += 1

            if branch_type is conditional:
                # Inlined conditional-branch path of execute_branch_fast.
                # The kernels are per-thread (hw is baked in at fetch time),
                # so no thread argument is passed.
                predicted = dir_execute(pc, taken)
                hit, btb_target = btb_conditional(pc, target, taken)
                if predicted and not hit and miss_forces_not_taken:
                    predicted = False
                dirm = predicted != taken
                tgtm = (not dirm and taken
                        and (not hit or btb_target != target))
                if dirm or tgtm:
                    cost = instructions * base_cpi + mispredict_penalty
                elif not hit and taken:
                    cost = instructions * base_cpi + btb_miss_penalty
                else:
                    cost = instructions * base_cpi + 0.0
                cycles += cost
                own += cost
                s_cycles += cost
                s_instr += instructions
                s_branches += 1
                s_cond += 1
                if dirm:
                    s_dirm += 1
                if tgtm:
                    s_tgtm += 1
                s_lookups += 1
                if hit:
                    s_hits += 1
            else:
                dirm, tgtm, btb_accessed, btb_hit = execute(pc, taken, target,
                                                            branch_type, hw)
                if dirm or tgtm:
                    cost = instructions * base_cpi + mispredict_penalty
                elif btb_accessed and not btb_hit:
                    cost = instructions * base_cpi + btb_miss_penalty
                else:
                    cost = instructions * base_cpi + 0.0
                cycles += cost
                own += cost
                s_cycles += cost
                s_instr += instructions
                s_branches += 1
                if tgtm:
                    s_tgtm += 1
                if btb_accessed:
                    s_lookups += 1
                    if btb_hit:
                        s_hits += 1

            # Trace-embedded syscall marker (mirrors the scalar engine): the
            # privilege round-trip happens immediately after this record, and
            # the kernels are re-fetched because a switch may rotate keys.
            if syscall_after:
                notify_privilege(hw, kernel)
                notify_privilege(hw, user)
                privilege_switches += 2
                s_sys += 1
                cycles += kernel_cycles
                s_cycles += kernel_cycles
                own += kernel_cycles
                dir_execute = exec_kernel(hw)
                btb_conditional = btb_kernel(hw)

            # System calls of the running workload (driven by its own cycles);
            # the schedule is only consulted when a call is actually due.
            if own >= event_next:
                n_events = event.pending(own)
                for _ in range(n_events):
                    notify_privilege(hw, kernel)
                    notify_privilege(hw, user)
                    privilege_switches += 2
                    s_sys += 1
                    cycles += kernel_cycles
                    s_cycles += kernel_cycles
                    own += kernel_cycles
                event_next = event._next
                if n_events:
                    dir_execute = exec_kernel(hw)
                    btb_conditional = btb_kernel(hw)

            # Timer tick: round-robin to the next software context.  The
            # local context state is reloaded only after the commit check
            # below, which refers to the context that executed this record.
            switched = False
            if cycles >= timer_next:
                fires = timer.pending(cycles)
                timer_next = timer._next
                if fires:
                    scheduler.current = (current + fires) % n_workloads
                    scheduler.switches += fires
                    s_switches += 1
                    notify_context(hw)
                    dir_execute = exec_kernel(hw)
                    btb_conditional = btb_kernel(hw)
                    buffers[current] = buf
                    positions[current] = pos
                    own_cycles[current] = own
                    switched = True

            if current == 0:
                target_committed += 1
                if target_committed >= budget:
                    if warming:
                        # Reset statistics and start the measured phase: the
                        # warm-up counts (including the pending locals) are
                        # discarded with the replaced ThreadStats objects.
                        warming = False
                        budget = target_branches
                        target_committed = 0
                        stats = [ThreadStats(name=label) for label in labels]
                        stat = stats[current]
                        s_instr = s_branches = s_cond = s_dirm = s_tgtm = 0
                        s_lookups = s_hits = s_sys = s_switches = 0
                        s_cycles = stat.cycles
                        cycles_offset = cycles
                        privilege_switches = 0
                        scheduler.switches = 0
                    else:
                        stat.cycles = s_cycles
                        stat.instructions += s_instr
                        stat.branches += s_branches
                        stat.conditional_branches += s_cond
                        stat.direction_mispredicts += s_dirm
                        stat.target_mispredicts += s_tgtm
                        stat.btb_lookups += s_lookups
                        stat.btb_hits += s_hits
                        stat.syscalls += s_sys
                        stat.context_switches += s_switches
                        break
            if switched:
                # Fold the outgoing context's counters, then load the
                # incoming context.
                stat.cycles = s_cycles
                stat.instructions += s_instr
                stat.branches += s_branches
                stat.conditional_branches += s_cond
                stat.direction_mispredicts += s_dirm
                stat.target_mispredicts += s_tgtm
                stat.btb_lookups += s_lookups
                stat.btb_hits += s_hits
                stat.syscalls += s_sys
                stat.context_switches += s_switches
                s_instr = s_branches = s_cond = s_dirm = s_tgtm = 0
                s_lookups = s_hits = s_sys = s_switches = 0
                current = scheduler.current
                buf = buffers[current]
                buf_len = len(buf)
                pos = positions[current]
                stat = stats[current]
                s_cycles = stat.cycles
                event = syscall_events[current]
                event_next = event._next
                own = own_cycles[current]
        own_cycles[current] = own

        measured_cycles = cycles if warmup_branches == 0 else cycles - cycles_offset
        return RunResult(
            config_name=config.name,
            mechanism=mechanism_name or getattr(self.bpu.isolation, "name", "unknown"),
            predictor=config.predictor,
            cycles=measured_cycles,
            instructions=sum(s.instructions for s in stats),
            threads={s.name: s for s in stats},
            context_switches=scheduler.switches,
            privilege_switches=privilege_switches,
            time_scale=self.time_scale,
        )
