"""One parity harness: every fast path against the scalar oracle.

XOR-BP and Noisy-XOR-BP cost "little space or time overhead" here only
because every generated kernel arm (``passthrough``, ``fused-xor``,
``owner``, ``generic``) is bit-identical to the scalar oracle: the
predictors' ``lookup``/``update``, ``BranchTargetBuffer.lookup``/``update``,
``BranchPredictionUnit.execute_branch`` and the cores' scalar engine, all of
which go through the isolation policy's ``map_index``/``encode``/``decode``
and owner check.  This module holds that contract in one table of rows.

A row is a predictor × an isolation (a protection preset, one with a
non-XOR content encoder, or XOR without row diversification) × a level × a
number of hardware threads.  Each row builds three twins of the system:

* ``fast``: every structure on the arm its policy selects;
* ``generic``: the same fast paths after ``force_generic_dispatch()``;
* ``oracle``: the scalar protocol of the level.

It drives them through one scripted event sequence (context switches,
privilege switches, which rekey the XOR policies, trace syscall markers,
``flush``, ``flush_thread`` and ``reset_stats``) and compares the twins at
every boundary: the raw encoded storage and owner list of every direction
table, the BTB's ``snapshot()`` and counters, per-thread predictor
statistics, TAGE's allocation LFSR and USE_ALT counter, and at the core
levels the ``RunResult`` and the order the threads' keys were drawn in.
``flush`` and ``flush_thread`` are also checked against a reference reset
computed from the storage before the event.

Levels (``LEVELS``):

* ``kernel``: direction kernels (``exec_kernel``) vs ``lookup``/``update``;
* ``btb``: the BTB probe kernels vs ``lookup``/``update``, every isolation
  at 1, 2 and 4 threads and 1, 2 and 4 ways;
* ``bpu``: ``execute_branch_fast`` vs ``execute_branch``, default sizes;
* ``st``: the single-thread core, batched vs scalar engine;
* ``smt``: the SMT core in system-call-emulation mode;
* ``fs``: the SMT core in full-system mode (periodic system calls);
* ``attack``: attack studies, ``AttackEnvironment.commit`` vs the scalar
  ``execute_branch`` commit, every study on every isolation in both
  scenarios (``pht_training`` on two).

Adding a predictor: register it, then add it to ``SMALL`` (a geometry whose
tables collide constantly); ``KERNEL_ROWS`` pairs it with every isolation,
and ``test_every_predictor_preset_and_arm_has_rows`` fails until it also has
``bpu`` and core rows.  Adding a preset, encoder or arm: add it to
``ISOLATIONS`` with the arms it must select (the ``btb`` and ``attack`` rows
take it up) and to rows of the other levels; the coverage test names what
is missing.
"""

import dataclasses
import random
from typing import NamedTuple

import pytest

import repro.attacks.covert_channel as covert_channel
import repro.attacks.harness as attack_harness
import repro.security.leakage as leakage
from repro.attacks import ALL_ATTACKS, AttackEnvironment, run_attack
from repro.core.encoding import ENCODERS
from repro.core.registry import make_bpu, preset_names
from repro.core.secure import BranchPredictionUnit
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.cpu.stats import run_result_to_dict
from repro.predictors import (DIRECTION_PREDICTORS, DirectionPrediction,
                              DirectionPredictor, PredictorTable,
                              TagePredictor, counter_is_taken,
                              saturating_update)
from repro.predictors.tage import TageConfig
from repro.types import BranchType, Privilege
from repro.workloads import (SINGLE_THREAD_PAIRS, SMT2_PAIRS, SMT4_QUADS,
                             TraceWorkload, make_pair_workloads,
                             make_workload)

LEVELS = ("kernel", "btb", "bpu", "st", "smt", "fs", "attack")
UNIT_LEVELS = ("kernel", "btb", "bpu")
ARMS = ("passthrough", "fused-xor", "owner", "generic")

#: Isolation id -> (preset, ProtectionConfig overrides, BTB arm, PHT arm).
#: The arms are what ``table.isolation_arm`` must select for the policy;
#: ``test_isolations_select_their_arms`` holds the registry to them.
ISOLATIONS = {
    "baseline": ("baseline", None, "passthrough", "passthrough"),
    "complete_flush": ("complete_flush", None, "passthrough", "passthrough"),
    "precise_flush": ("precise_flush", None, "owner", "owner"),
    "xor_btb": ("xor_btb", None, "fused-xor", "passthrough"),
    "noisy_xor_btb": ("noisy_xor_btb", None, "fused-xor", "passthrough"),
    "xor_pht": ("xor_pht", None, "passthrough", "fused-xor"),
    "xor_pht_simple": ("xor_pht_simple", None, "passthrough", "fused-xor"),
    "noisy_xor_pht": ("noisy_xor_pht", None, "passthrough", "fused-xor"),
    "xor_bp": ("xor_bp", None, "fused-xor", "fused-xor"),
    "noisy_xor_bp": ("noisy_xor_bp", None, "fused-xor", "fused-xor"),
    "sbox": ("noisy_xor_bp", {"encoder": "sbox"}, "generic", "generic"),
    "shift_xor": ("xor_bp", {"encoder": "shift_xor"}, "generic", "generic"),
    # No preset runs the BTB's undiversified fused-XOR kernel variant.
    "xor_btb_flat": ("xor_btb", {"row_diversified": False}, "fused-xor",
                     "passthrough"),
}

#: Tiny TAGE tables on real branch streams: entries become useful and are
#: contended, so allocation ages, installs and breaks LFSR ties, and the
#: short reset period fires the kernels' call-out to the scalar allocator.
_SMALL_TAGE = TageConfig(n_tables=4, table_entries=16, base_entries=512,
                         min_history=4, max_history=24,
                         useful_reset_period=509)

#: Predictor -> constructor keywords of a geometry whose tables collide
#: constantly (threads read and take over each other's entries).
SMALL = {
    "bimodal": {"n_entries": 256},
    # 27 history bits over a 10-bit index: the history fold XORs 3 chunks.
    "gshare": {"n_entries": 1024, "history_bits": 27},
    "tournament": {"local_history_entries": 64, "local_entries": 64,
                   "global_entries": 256, "choice_entries": 256},
    "tage": {"config": _SMALL_TAGE},
    # 64 loop entries: enough for loops to reach confidence.
    "ltage": {"tage_config": _SMALL_TAGE, "loop_entries": 64},
    "tage_sc_l": {"tage_config": _SMALL_TAGE, "loop_entries": 64,
                  "sc_entries": 64},
}


class CounterPredictor(DirectionPredictor):
    """A predictor written only against ``lookup``/``update``: it has no
    generated kernel and runs through ``DirectionPredictor.exec_kernel``."""

    name = "counter"

    def __init__(self, n_entries: int = 64, *, isolation=None) -> None:
        super().__init__(isolation)
        self._mask = n_entries - 1
        self._table = PredictorTable(n_entries, 3, reset_value=3,
                                     name="counter", isolation=isolation)

    def lookup(self, pc, thread_id=0):
        counter = self._table.read((pc >> 2) & self._mask, thread_id)
        return DirectionPrediction(counter_is_taken(counter, bits=3))

    def update(self, pc, taken, prediction=None, thread_id=0):
        index = (pc >> 2) & self._mask
        counter = self._table.read(index, thread_id)
        self._table.write(index, saturating_update(counter, taken, bits=3),
                          thread_id)

    def tables(self):
        return [self._table]


class Row(NamedTuple):
    level: str
    predictor: str
    isolation: str
    threads: int
    ways: int = 2    # BTB associativity at the ``btb`` level
    study: str = ""  # attack study at the ``attack`` level

    @property
    def id(self) -> str:
        extra = f"-w{self.ways}" if self.level == "btb" else ""
        name = self.study or self.predictor
        return f"{self.level}-{name}-{self.isolation}-t{self.threads}{extra}"


KERNEL_ISOLATIONS = ["baseline", "complete_flush", "precise_flush", "xor_bp",
                     "noisy_xor_bp", "xor_pht_simple", "sbox", "shift_xor"]
#: Every registered predictor on every arm (and both fused-XOR variants);
#: the single-table predictors and ``custom`` (a ``CounterPredictor``, no
#: generated kernel) on every isolation.
KERNEL_ROWS = [Row("kernel", predictor, isolation,
                   {"baseline": 1, "precise_flush": 4}.get(isolation, 2))
               for predictor in [*SMALL, "custom"]
               for isolation in (ISOLATIONS if predictor in
                                 ("bimodal", "gshare", "custom")
                                 else KERNEL_ISOLATIONS)]

#: Every isolation at every thread count and associativity.
BTB_ROWS = [Row("btb", "bimodal", isolation, threads, ways)
            for isolation in ISOLATIONS for threads in (1, 2, 4)
            for ways in (1, 2, 4)]

#: Default geometries: every predictor twice, every isolation once.
BPU_ROWS = [Row("bpu", predictor, isolation, threads)
            for predictor, isolation, threads in [
                ("bimodal", "baseline", 1), ("bimodal", "noisy_xor_pht", 2),
                ("gshare", "complete_flush", 2), ("gshare", "xor_btb", 1),
                ("tournament", "precise_flush", 4),
                ("tournament", "xor_pht", 2),
                ("tage", "xor_bp", 1), ("tage", "noisy_xor_btb", 2),
                ("ltage", "noisy_xor_bp", 2), ("ltage", "shift_xor", 1),
                ("tage_sc_l", "xor_pht_simple", 2),
                ("tage_sc_l", "sbox", 2)]]

CORE_ROWS = [Row(level, predictor, isolation, threads)
             for level, predictor, isolation, threads in [
                 ("st", "tage", "baseline", 1),
                 ("st", "tage", "xor_bp", 1),
                 ("st", "gshare", "complete_flush", 1),
                 ("st", "tournament", "precise_flush", 1),
                 ("st", "ltage", "noisy_xor_pht", 1),
                 ("st", "tage_sc_l", "noisy_xor_bp", 1),
                 ("st", "bimodal", "sbox", 1),
                 ("st", "custom", "xor_btb", 1),
                 # xor_btb keys only the BTB: the rows that show whether
                 # the SMT core draws the threads' keys in thread order.
                 ("smt", "tage", "xor_btb", 2),
                 ("smt", "gshare", "xor_btb", 4),
                 ("smt", "tage_sc_l", "noisy_xor_bp", 2),
                 ("smt", "gshare", "precise_flush", 2),
                 ("smt", "tournament", "shift_xor", 2),
                 ("smt", "ltage", "complete_flush", 4),
                 ("smt", "bimodal", "xor_pht_simple", 2),
                 ("smt", "custom", "precise_flush", 2),
                 ("fs", "tage", "noisy_xor_bp", 2),
                 ("fs", "gshare", "xor_bp", 2),
                 ("fs", "tage_sc_l", "precise_flush", 2),
                 ("fs", "tournament", "sbox", 2),
                 ("fs", "ltage", "baseline", 4)]]

def _attack_study(attack):
    return lambda preset, smt: run_attack(attack, preset, smt=smt,
                                          iterations=12)


#: Every driver that builds attack units: study -> fn(preset, smt).
STUDIES = {
    **{attack: _attack_study(attack) for attack in ALL_ATTACKS},
    "covert_channel": lambda preset, smt: covert_channel.run_covert_channel(
        preset, payload_bits=64, smt=smt),
    "direction_leakage": lambda preset, smt:
        leakage.measure_direction_leakage(preset, trials=40, smt=smt),
    "btb_occupancy_leakage": lambda preset, smt:
        leakage.measure_btb_occupancy_leakage(preset, trials=40, smt=smt),
}

#: Attack studies (attack units use a bimodal PHT); one thread is the
#: time-shared single-thread scenario, two the SMT one.  Every study runs
#: on every isolation in both scenarios, except ``pht_training``, whose
#: study alone takes half a second a row.  The SMT ``xor_pht_simple`` rows
#: are where a commit that draws a key the fast path does not draw shows.
ATTACK_ROWS = [Row("attack", "bimodal", isolation, threads, study=study)
               for study in STUDIES if study != "pht_training"
               for isolation in ISOLATIONS for threads in (1, 2)] + [
    Row("attack", "bimodal", "noisy_xor_bp", 1, study="pht_training"),
    Row("attack", "bimodal", "precise_flush", 2, study="pht_training")]

ROWS = KERNEL_ROWS + BTB_ROWS + BPU_ROWS + CORE_ROWS + ATTACK_ROWS


# -- building and observing a unit --------------------------------------------
def build_unit(row, *, generic, small=True, btb_sets=8, **kwargs):
    """One twin's branch prediction unit; ``generic`` forces every
    structure onto the generic arm."""
    preset, overrides, _, _ = ISOLATIONS[row.isolation]
    name = "bimodal" if row.predictor == "custom" else row.predictor
    bpu = make_bpu(name, preset, seed=11, btb_sets=btb_sets,
                   btb_ways=row.ways,
                   predictor_kwargs=SMALL[name] if small else None,
                   config_overrides=overrides, **kwargs)
    if row.predictor == "custom":
        bpu.direction = CounterPredictor(isolation=bpu.direction.isolation)
    if generic:
        bpu.force_generic_dispatch()
    return bpu


#: The BTB's packed per-way fields (what ``snapshot()`` reads).
BTB_FIELDS = ("_valid", "_tags", "_targets", "_types", "_owners", "_last")


def unit_state(bpu):
    """Everything a kernel may write, still encoded, as hashable fields."""
    direction, btb = bpu.direction, bpu.btb
    state = {
        "tables": tuple((table.name, tuple(table.rows()), tuple(table._owner))
                        for table in direction.tables()),
        "stats": tuple((thread, s.lookups, s.mispredictions)
                       for thread, s in sorted(direction._stats.items())
                       if s.lookups),
        "btb": tuple(tuple(getattr(btb, field)) for field in BTB_FIELDS),
        "btb_counts": (btb.lookups, btb.hits, btb._clock),
    }
    tage = getattr(direction, "tage", direction)
    if isinstance(tage, TagePredictor):
        state["tage"] = (tage._lfsr._state, tage._use_alt)
    return state


def digest(state):
    """A boundary's state, one hash per field: whole-run levels log
    thousands of boundaries."""
    return {field: hash(value) for field, value in state.items()}


def reference_reset(bpu, event, thread):
    """What ``flush`` (everything) or ``flush_thread(thread)`` (the rows
    and ways the thread owns, or everything where owners are not tracked)
    must leave, from the storage before the event."""
    state = unit_state(bpu)
    tables = []
    for table, (name, rows, owners) in zip(bpu.direction.tables(),
                                           state["tables"]):
        if event == "flush_thread" and table.isolation.tracks_owner:
            rows = tuple(table._reset_value if owner == thread else value
                         for value, owner in zip(rows, owners))
            owners = tuple(-1 if owner == thread else owner
                           for owner in owners)
        else:
            rows = (table._reset_value,) * len(rows)
            owners = (-1,) * len(owners)
        tables.append((name, rows, owners))
    valid, tags, targets, types, owners, last = state["btb"]
    cleared = [event == "flush" or owner == thread for owner in owners]
    valid = tuple(v and not c for v, c in zip(valid, cleared))
    owners = tuple(-1 if c else owner for owner, c in zip(owners, cleared))
    return {"tables": tuple(tables),
            "btb": (valid, tags, targets, types, owners, last)}


def assert_same(got, want, where):
    """Fail naming the state fields that differ (never diffing storage)."""
    if got != want:
        fields = [key for key in want if got.get(key) != want.get(key)]
        pytest.fail(f"{where}: {', '.join(fields)} differ", pytrace=False)


def assert_twins_agree(states, where):
    for twin in ("fast", "generic"):
        assert_same(states[twin], states["oracle"],
                    f"{twin} vs oracle {where}")


# -- the scripted event sequence ----------------------------------------------
#: After each record, at most one event: (event, cumulative probability).
EVENTS = [("switch", 0.02), ("privilege", 0.035), ("flush_thread", 0.042),
          ("flush", 0.046), ("reset_stats", 0.049)]


def event_script(row, n):
    """``n`` ``(thread, record, event, event_thread)`` steps.

    Threads run in short bursts so they alias in shared tables.  About one
    record in 40 carries a syscall marker (a privilege round trip right
    after it).  The first record is a return: on the SMT core thread 0's
    first branch then touches no keyed structure, which makes the order
    the threads' keys are drawn in visible.
    """
    rng = random.Random(row.id)
    workload = rng.choice(["gcc", "mcf", "perlbench", "gobmk", "milc"])
    seed = rng.randrange(1, 10_000)
    if row.level in UNIT_LEVELS:
        # Unit rows share eight static populations a workload (one takes
        # up to 35 ms to build; the generator memoizes them), and the seed
        # picks each row's dynamic stream.
        records = make_workload(workload, seed=seed % 8).segment(
            n, seed_offset=seed)
    else:
        records = make_workload(workload, seed=seed).segment(n)
    records[0] = dataclasses.replace(records[0],
                                     branch_type=BranchType.RETURN)
    steps = []
    thread = 0
    for record in records:
        if rng.random() < 0.3:
            thread = rng.randrange(row.threads)
        marker = rng.random() < 1 / 40
        if marker is not record.syscall_after:
            record = dataclasses.replace(record, syscall_after=marker)
        roll = rng.random()
        event = next((name for name, p in EVENTS if roll < p), None)
        steps.append((thread, record, event, rng.randrange(row.threads)))
    return steps


def apply_event(bpu, event, thread, privilege):
    if event == "switch":
        bpu.notify_context_switch(thread)
    elif event == "privilege":
        bpu.notify_privilege_switch(thread, privilege)
    elif event == "syscall":
        bpu.notify_privilege_switch(thread, Privilege.KERNEL)
        bpu.notify_privilege_switch(thread, Privilege.USER)
    elif event == "flush":
        bpu.direction.flush()
        bpu.btb.flush()
    elif event == "flush_thread":
        bpu.direction.flush_thread(thread)
        bpu.btb.flush_thread(thread)
    else:
        bpu.direction.reset_stats()
        bpu.btb.reset_stats()


# -- unit levels: kernel, btb, bpu --------------------------------------------
def fetch(bpu, kernels, thread, which, arm):
    """A thread's kernel, fetched once and kept until the next event (the
    engines' rule); it must run on ``arm`` (``None``: a kernel without
    one)."""
    kernel = kernels.get((thread, which))
    if kernel is None:
        kernel = kernels[thread, which] = (
            bpu.direction.exec_kernel(thread) if which == "direction"
            else bpu.btb.exec_conditional_kernel(thread))
        got = getattr(kernel, "arm", None)
        assert got == arm, f"{which} kernel on the {got} arm"
    return kernel


def fast_step(level, bpu, kernels, arms, record, thread, probe):
    pc, taken, target, kind = (record.pc, record.taken, record.target,
                               record.branch_type)
    if level == "kernel":
        return fetch(bpu, kernels, thread, "direction",
                     arms["direction"])(pc, taken)
    if level == "btb":
        if kind is BranchType.CONDITIONAL:
            return fetch(bpu, kernels, thread, "btb",
                         arms["btb"])(pc, target, taken)
        if probe:
            result = bpu.btb.lookup(pc, thread)
            return result.hit, result.target
        return bpu.btb.execute_indirect_fast(pc, target, kind, thread)
    return bpu.execute_branch_fast(pc, taken, target, kind, thread)


def oracle_step(level, bpu, record, thread, probe):
    pc, taken, target, kind = (record.pc, record.taken, record.target,
                               record.branch_type)
    if level == "kernel":
        prediction = bpu.direction.lookup(pc, thread)
        bpu.direction.stats(thread).record(prediction.taken == taken)
        bpu.direction.update(pc, taken, prediction, thread)
        return prediction.taken
    if level == "btb":
        result = bpu.btb.lookup(pc, thread)
        if (taken if kind is BranchType.CONDITIONAL else not probe):
            bpu.btb.update(pc, target, thread, kind)
        return result.hit, result.target
    outcome = bpu.execute_branch(pc, taken, target, kind, thread)
    return (outcome.direction_mispredicted, outcome.target_mispredicted,
            outcome.btb_accessed, outcome.btb_hit)


def runs_on(level, record):
    if level == "kernel":
        return record.branch_type is BranchType.CONDITIONAL
    if level == "btb":
        return record.branch_type is not BranchType.RETURN
    return True


def drive_unit(row):
    """Run a ``kernel``, ``btb`` or ``bpu`` row step by step."""
    _, _, btb_arm, pht_arm = ISOLATIONS[row.isolation]
    small = row.level != "bpu"
    twins = {twin: build_unit(row, generic=twin != "fast", small=small,
                              btb_sets=8 if small else 256)
             for twin in ("fast", "generic", "oracle")}
    for bpu in twins.values():
        # As the cores and the attack environment do (their own rows check
        # that they do).
        bpu.draw_keys(row.threads)
    arms = {"fast": {"direction": pht_arm, "btb": btb_arm},
            "generic": {"direction": "generic", "btb": "generic"}}
    if row.predictor == "custom":
        # ``DirectionPredictor.exec_kernel``'s default kernel has no arm.
        for twin_arms in arms.values():
            twin_arms["direction"] = None
    kernels = {"fast": {}, "generic": {}}
    start = unit_state(twins["oracle"])
    privilege = {}
    boundaries = 0
    for i, (thread, record, event, other) in enumerate(
            event_script(row, 1_500 if row.level == "kernel" else 1_000)):
        if runs_on(row.level, record):
            probe = i % 3 == 0
            want = oracle_step(row.level, twins["oracle"], record, thread,
                               probe)
            for twin in ("fast", "generic"):
                got = fast_step(row.level, twins[twin], kernels[twin],
                                arms[twin], record, thread, probe)
                assert got == want, f"{twin} vs oracle at step {i}"
        events = (["syscall"] if record.syscall_after else []) + \
            ([event] if event else [])
        for name in events:
            target = other if name.startswith("flush") else thread
            if name == "privilege":
                privilege[thread] = (
                    Privilege.USER if privilege.get(thread) is Privilege.KERNEL
                    else Privilege.KERNEL)
            for twin, bpu in twins.items():
                expected = (reference_reset(bpu, name, target)
                            if name.startswith("flush") else None)
                apply_event(bpu, name, target, privilege.get(thread))
                if expected is not None:
                    state = unit_state(bpu)
                    assert_same({"tables": state["tables"],
                                 "btb": state["btb"]}, expected,
                                f"{twin} {name}({target}) at step {i}")
            for cache in kernels.values():
                cache.clear()
            boundaries += 1
            assert_twins_agree({twin: unit_state(bpu)
                                for twin, bpu in twins.items()},
                               f"after {name} at step {i}")
    assert boundaries >= 40  # the script really exercised boundaries
    end = {twin: unit_state(bpu) for twin, bpu in twins.items()}
    assert_twins_agree(end, "at the end")
    if row.level == "kernel" and "tage" in start:
        # Allocation really broke LFSR ties.
        assert end["oracle"]["tage"][0] != start["tage"][0]


# -- core levels: st, smt, fs -------------------------------------------------
def record_boundaries(bpu, log):
    """Append the unit's state to ``log`` before every switch notification
    it gets (the engines bind the notify methods once per run)."""
    for name in ("notify_context_switch", "notify_privilege_switch"):
        def recorded(*args, _notify=getattr(bpu, name)):
            log.append(digest(unit_state(bpu)))
            _notify(*args)

        setattr(bpu, name, recorded)
    return log


def run_core(row, twin):
    """One twin of a core row: the oracle runs the scalar engine.  Thread 0
    (the measured target on the single-thread core) replays the event
    script's records, syscall markers included, as a trace; the other
    threads run a benchmark pair's synthetic workloads."""
    name = "bimodal" if row.predictor == "custom" else row.predictor
    if row.level == "st":
        config, pairs = fpga_prototype(name), SINGLE_THREAD_PAIRS
    else:
        config = sunny_cove_smt(name, smt_threads=row.threads)
        pairs = SMT2_PAIRS if row.threads == 2 else SMT4_QUADS
    trace = TraceWorkload([step[1] for step in event_script(row, 1_200)],
                          name="script")
    workloads = [trace] + make_pair_workloads(
        random.Random(row.id).choice(pairs), seed=5)[1:]
    bpu = build_unit(
        row, generic=twin == "generic", btb_sets=64,
        btb_miss_forces_not_taken=config.btb_miss_forces_not_taken)
    log = record_boundaries(bpu, [])
    engine = "scalar" if twin == "oracle" else "batched"
    if row.level == "st":
        core = SingleThreadCore(config, bpu, workloads, time_scale=200.0,
                                syscall_time_scale=25.0)
        result = core.run(target_branches=1_500, warmup_branches=400,
                          mechanism_name=row.isolation, engine=engine)
    else:
        core = SmtCore(config, bpu, workloads, time_scale=400.0,
                       se_mode=row.level == "smt")
        result = core.run(instructions=15_000, warmup_instructions=4_000,
                          mechanism_name=row.isolation, engine=engine)
    outcome = {"result": run_result_to_dict(result),
               "key order": list(bpu.isolation.key_manager._states)}
    return outcome, [log + [digest(unit_state(bpu))]]


# -- attack level -------------------------------------------------------------
def scalar_commit(self, pc, taken, target, branch_type, thread_id):
    """The oracle of ``AttackEnvironment.commit``: unfused ``lookup``/
    ``update`` pairs on every structure.

    It returns the raw direction prediction, as the direction kernel does
    (``BranchOutcome.predicted_taken`` is overridden by a BTB miss).  Only a
    conditional branch looks it up, as only a conditional commit runs the
    direction kernel.
    """
    predicted = None
    if branch_type is BranchType.CONDITIONAL:
        predicted = self.bpu.direction.lookup(pc, thread_id).taken
    self.bpu.execute_branch(pc, taken, target, branch_type, thread_id)
    return predicted


def _fast_commit_only(self, *args, **kwargs):
    raise AssertionError("a fast-path twin committed through execute_branch")


def run_study(row, twin, monkeypatch):
    """One twin of an attack row: the oracle commits every branch through
    ``scalar_commit``; the other twins must never reach ``execute_branch``."""
    preset, overrides, _, _ = ISOLATIONS[row.isolation]
    units = []
    commits = []
    with monkeypatch.context() as patch:
        for module in (attack_harness, covert_channel, leakage):
            def capture(*args, _real=module.make_bpu, **kwargs):
                if overrides:
                    kwargs["config_overrides"] = overrides
                bpu = _real(*args, **kwargs)
                if twin == "generic":
                    bpu.force_generic_dispatch()
                units.append((bpu, record_boundaries(bpu, [])))
                return bpu

            patch.setattr(module, "make_bpu", capture)
        if twin == "oracle":
            def commit(env, *args):
                commits.append(args)
                return scalar_commit(env, *args)

            patch.setattr(AttackEnvironment, "commit", commit)
        else:
            patch.setattr(BranchPredictionUnit, "execute_branch",
                          _fast_commit_only)
        result = STUDIES[row.study](preset, row.threads == 2)
    assert units, "the study built no branch prediction unit"
    assert commits or twin != "oracle", "the oracle committed nothing"
    return {"result": result}, [log + [digest(unit_state(bpu))]
                                for bpu, log in units]


# -- the harness --------------------------------------------------------------
def assert_runs_agree(runs):
    """Compare whole-run twins: outcomes, then every unit's state at every
    boundary."""
    want, want_logs = runs["oracle"]
    for twin in ("fast", "generic"):
        got, logs = runs[twin]
        assert_same(got, want, f"{twin} vs oracle outcome")
        assert len(logs) == len(want_logs), \
            f"{twin} built a different unit count"
        for unit, (log, want_log) in enumerate(zip(logs, want_logs)):
            assert len(log) == len(want_log), \
                f"{twin} unit {unit} saw a different boundary count"
            for i, (state, want_state) in enumerate(zip(log, want_log)):
                assert_same(state, want_state,
                            f"{twin} vs oracle, unit {unit} boundary {i}")


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_parity(row, monkeypatch):
    if row.level in UNIT_LEVELS:
        drive_unit(row)
    elif row.level == "attack":
        assert_runs_agree({twin: run_study(row, twin, monkeypatch)
                           for twin in ("fast", "generic", "oracle")})
    else:
        runs = {twin: run_core(row, twin)
                for twin in ("fast", "generic", "oracle")}
        oracle, (log,) = runs["oracle"]
        # The markers and the cores' own switches really fired.
        assert oracle["result"]["privilege_switches"] > 0
        assert len(log) > 20
        assert_runs_agree(runs)


def row_arms(row):
    _, _, btb_arm, pht_arm = ISOLATIONS[row.isolation]
    return ({pht_arm} if row.level == "kernel" else
            {btb_arm} if row.level == "btb" else {btb_arm, pht_arm})


def test_every_predictor_preset_and_arm_has_rows():
    """A predictor, preset, attack or arm without rows fails here."""
    assert set(SMALL) == set(DIRECTION_PREDICTORS), \
        "every registered predictor needs a SMALL geometry"
    missing = []
    registry_arms = set()
    for isolation, (preset, overrides, btb_arm, pht_arm) in ISOLATIONS.items():
        bpu = make_bpu("tage", preset, config_overrides=overrides)
        arms = (bpu.btb.arm, {table.arm for table in bpu.direction.tables()})
        if arms != (btb_arm, {pht_arm}):
            missing.append(f"{isolation} selects {arms}, not its listed arms")
    for preset in preset_names():
        for encoder in ENCODERS:
            bpu = make_bpu("bimodal", preset,
                           config_overrides={"encoder": encoder})
            registry_arms |= {bpu.btb.arm, bpu.direction.tables()[0].arm}
        if not any(ISOLATIONS.get(row.isolation, ("",))[0] == preset
                   for row in ROWS):
            missing.append(f"rows for preset {preset}")
    assert registry_arms <= set(ARMS)
    for predictor in DIRECTION_PREDICTORS:
        for levels in (["kernel"], ["bpu"], ["st", "smt", "fs"]):
            rows = [row for row in ROWS if row.predictor == predictor
                    and row.level in levels]
            if not rows:
                missing.append(f"{'/'.join(levels)} rows for {predictor}")
        kernel_arms = set().union(*(row_arms(row) for row in ROWS
                                    if row.level == "kernel"
                                    and row.predictor == predictor))
        for arm in sorted(registry_arms - kernel_arms):
            missing.append(f"a kernel row for {predictor} on the {arm} arm")
    for level in LEVELS:
        level_arms = set().union(*(row_arms(row) for row in ROWS
                                   if row.level == level))
        for arm in sorted(registry_arms - level_arms):
            missing.append(f"a {level} row on the {arm} arm")
    for study in STUDIES:
        if not any(row.study == study for row in ROWS):
            missing.append(f"an attack row for {study}")
    assert not missing, "missing: " + "; ".join(missing)
