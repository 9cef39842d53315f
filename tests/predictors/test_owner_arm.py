"""Precise Flush's owner arm vs the scalar ``lookup``/``update`` oracle.

Under Precise Flush every entry carries the hardware thread that wrote it:
another thread's entry reads as the reset value, and every write stamps the
writer.  The generated direction kernels and the BTB's conditional and
indirect kernels apply that check and stamp inline (the ``owner`` arm); the
BTB kernels are also compared with the oracle on their other three arms.
These tests drive them against the scalar protocol, which goes through
``PredictorTable.read``/``write`` and ``BranchTargetBuffer.lookup``/
``update`` (the oracle unit is forced onto generic dispatch, so TAGE
allocation takes its per-table path too), on two and four hardware threads
with context switches (each flushing the switching thread's entries) and
explicit ``flush_thread`` calls between steps.  Raw storage, every owner
list, the BTB entries and counters, and per-thread statistics must match
exactly.
"""

import random

import pytest

from repro.core.encoding import SboxEncoder
from repro.core.isolation import (NoisyXorIsolation, PreciseFlushIsolation,
                                  XorContentIsolation)
from repro.core.keys import KeyManager
from repro.core.registry import make_bpu
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.table import IdentityIsolation
from repro.predictors.tage import TageConfig
from repro.types import BranchType
from repro.workloads.generator import make_workload

KERNEL_PREDICTORS = ["gshare", "tournament", "tage", "ltage", "tage_sc_l"]

_SMALL_TAGE = TageConfig(n_tables=4, table_entries=64, base_entries=256)

#: Tiny geometries: threads collide in almost every table, so reads of
#: another thread's entries and take-overs of them are frequent.
SMALL = {
    "gshare": {"n_entries": 256},
    "tournament": {"local_history_entries": 64, "local_entries": 64,
                   "global_entries": 256, "choice_entries": 256},
    "tage": {"config": _SMALL_TAGE},
    "ltage": {"tage_config": _SMALL_TAGE, "loop_entries": 16},
    "tage_sc_l": {"tage_config": _SMALL_TAGE, "loop_entries": 16,
                  "sc_entries": 64},
}


def _threads(n_records, threads, seed):
    """A thread per record, in short runs so threads alias each other."""
    rng = random.Random(seed)
    schedule = []
    while len(schedule) < n_records:
        schedule += [rng.randrange(threads)] * rng.randint(1, 6)
    return schedule[:n_records]


def _direction_state(bpu, threads):
    direction = bpu.direction
    tables = [(table.name, list(table.rows()), list(table._owner))
              for table in direction.tables()]
    stats = [(direction.stats(t).lookups, direction.stats(t).mispredictions)
             for t in range(threads)]
    return tables, stats


def _btb_state(btb):
    return btb.snapshot(), btb.lookups, btb.hits, btb._clock


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
def test_bpu_owner_arm_matches_scalar_oracle(predictor, threads):
    fast = make_bpu(predictor, "precise_flush", seed=11)
    oracle = make_bpu(predictor, "precise_flush", seed=11)
    oracle.force_generic_dispatch()
    for thread in range(threads):
        assert fast.direction.exec_kernel(thread).arm == "owner"
        assert fast.btb.exec_conditional_kernel(thread).arm == "owner"
    records = make_workload("gcc", seed=7).segment(3_000)
    schedule = _threads(len(records), threads, seed=threads)
    for i, (record, thread) in enumerate(zip(records, schedule)):
        got = fast.execute_branch_fast(record.pc, record.taken, record.target,
                                       record.branch_type, thread)
        want = oracle.execute_branch(record.pc, record.taken, record.target,
                                     record.branch_type, thread)
        assert got == (want.direction_mispredicted, want.target_mispredicted,
                       want.btb_accessed, want.btb_hit), f"branch {i}"
        if i % 71 == 0:
            for bpu in (fast, oracle):
                bpu.notify_context_switch(thread)
        if i % 113 == 0:
            other = (thread + 1) % threads
            for bpu in (fast, oracle):
                bpu.direction.flush_thread(other)
                bpu.btb.flush_thread(other)
    assert _direction_state(fast, threads) == _direction_state(oracle, threads)
    assert _btb_state(fast.btb) == _btb_state(oracle.btb)


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
def test_direction_kernel_matches_lookup_update(predictor, threads, small):
    kwargs = SMALL[predictor] if small else None
    fast = make_bpu(predictor, "precise_flush", seed=5,
                    predictor_kwargs=kwargs)
    oracle = make_bpu(predictor, "precise_flush", seed=5,
                      predictor_kwargs=kwargs)
    oracle.force_generic_dispatch()
    records = [r for r in make_workload("mcf", seed=3).segment(4_000)
               if r.branch_type is BranchType.CONDITIONAL]
    schedule = _threads(len(records), threads, seed=10 + threads)
    for i, (record, thread) in enumerate(zip(records, schedule)):
        prediction = oracle.direction.lookup(record.pc, thread)
        oracle.direction.stats(thread).record(prediction.taken == record.taken)
        oracle.direction.update(record.pc, record.taken, prediction, thread)
        kernel = fast.direction.exec_kernel(thread)
        assert kernel.arm == "owner"
        assert kernel(record.pc, record.taken) == prediction.taken, \
            f"prediction diverged at branch {i}"
        if i % 59 == 0:
            for bpu in (fast, oracle):
                bpu.notify_context_switch(thread)
        if i % 97 == 0:
            for bpu in (fast, oracle):
                bpu.direction.flush_thread((thread + 1) % threads)
    assert _direction_state(fast, threads) == _direction_state(oracle, threads)


#: BTB isolation policies, by the probe-kernel arm each one selects.
BTB_POLICIES = {
    "identity": (lambda keys: IdentityIsolation(), "passthrough"),
    "xor": (lambda keys: XorContentIsolation(keys, row_diversified=False),
            "fused-xor"),
    "noisy_xor": (NoisyXorIsolation, "fused-xor"),
    "precise_flush": (PreciseFlushIsolation, "owner"),
    "sbox": (lambda keys: XorContentIsolation(keys, encoder=SboxEncoder()),
             "generic"),
}


def _small_btb(ways, policy="precise_flush"):
    # Eight sets: the workload's branches collide constantly, and threads
    # running the same code install the same tags in the same sets.
    make_isolation = BTB_POLICIES[policy][0]
    return BranchTargetBuffer(8, ways,
                              isolation=make_isolation(KeyManager(seed=1)))


@pytest.mark.parametrize("policy", list(BTB_POLICIES))
@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("threads", [2, 4])
def test_btb_paths_match_lookup_update(ways, threads, policy):
    fast, oracle = _small_btb(ways, policy), _small_btb(ways, policy)
    arm = BTB_POLICIES[policy][1]
    records = [r for r in make_workload("perlbench", seed=9).segment(4_000)
               if r.branch_type is not BranchType.RETURN]
    schedule = _threads(len(records), threads, seed=20 + threads)
    for i, (record, thread) in enumerate(zip(records, schedule)):
        pc, target, taken = record.pc, record.target, record.taken
        result = oracle.lookup(pc, thread)
        if record.branch_type is BranchType.CONDITIONAL:
            if taken:
                oracle.update(pc, target, thread, BranchType.CONDITIONAL)
            kernel = fast.exec_conditional_kernel(thread)
            assert kernel.arm == arm
            got = kernel(pc, target, taken)
        elif i % 3 == 0:
            lookup = fast.lookup(pc, thread)
            got = lookup.hit, lookup.target
        else:
            oracle.update(pc, target, thread, record.branch_type)
            got = fast.execute_indirect_fast(pc, target, record.branch_type,
                                             thread)
        assert got == (result.hit, result.target), f"branch {i}"
        if i % 53 == 0:
            for btb in (fast, oracle):
                btb.isolation.on_context_switch(thread)
        if i % 89 == 0:
            for btb in (fast, oracle):
                btb.flush_thread((thread + 1) % threads)
    assert _btb_state(fast) == _btb_state(oracle)


@pytest.mark.parametrize("path", ["conditional", "indirect"])
def test_btb_same_tag_from_two_threads_in_one_set(path):
    """A taken branch takes over the way holding its tag, whoever owns it."""
    fast, oracle = _small_btb(2), _small_btb(2)
    pc = 0x4000
    other_pc = pc + 8 * 4  # same set, different tag

    def step(thread, branch_pc, target):
        result = oracle.lookup(branch_pc, thread)
        if path == "conditional":
            oracle.update(branch_pc, target, thread, BranchType.CONDITIONAL)
            got = fast.exec_conditional_kernel(thread)(branch_pc, target, True)
        else:
            oracle.update(branch_pc, target, thread, BranchType.INDIRECT)
            got = fast.execute_indirect_fast(branch_pc, target,
                                             BranchType.INDIRECT, thread)
        assert got == (result.hit, result.target)
        return got

    assert step(1, pc, 0x1000) == (False, None)       # thread 1: way 0
    assert step(0, other_pc, 0x2000) == (False, None)  # thread 0: way 1
    assert step(1, pc, 0x1000) == (True, 0x1000)
    # Thread 0 cannot see thread 1's entry, but its install re-uses way 0
    # (same tag) instead of evicting the LRU way 1 and duplicating the tag.
    assert step(0, pc, 0x3000) == (False, None)
    assert _btb_state(fast) == _btb_state(oracle)
    ways = fast.entries_in_set(fast.set_of(pc))
    assert [(way.valid, way.owner) for way in ways] == [(True, 0), (True, 0)]
    assert step(0, pc, 0x3000) == (True, 0x3000)
    assert step(1, pc, 0x1000) == (False, None)
    assert _btb_state(fast) == _btb_state(oracle)
