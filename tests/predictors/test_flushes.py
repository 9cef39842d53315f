"""Complete and Precise Flush on predictor tables and the BTB.

``flush`` resets storage from shared immutable templates, in place, and
``flush_thread`` finds the thread's rows with C list scans instead of a
Python loop over every row.  These tests hold both to the row-by-row
definitions: a Precise Flush resets exactly the owner's rows (tables) and
the owner's valid ways (BTB) and nothing else, and a Complete Flush leaves
no owner stamps behind.
"""

import random

import pytest

from repro.core.isolation import (CompleteFlushIsolation,
                                  PreciseFlushIsolation)
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.table import PredictorTable
from repro.types import BranchType

THREADS = 4


def _reference_table_flush_thread(data, owners, thread, reset):
    """Row-by-row Precise Flush of one table (the defining loop)."""
    for row, owner in enumerate(owners):
        if owner == thread:
            data[row] = reset
            owners[row] = -1


def _reference_btb_flush_thread(valid, owners, thread):
    """Way-by-way Precise Flush of the BTB (the defining loop)."""
    for i, owner in enumerate(owners):
        if owner == thread and valid[i]:
            valid[i] = False
            owners[i] = -1


def _filled_table(isolation, seed):
    table = PredictorTable(64, 8, reset_value=3, isolation=isolation)
    rng = random.Random(seed)
    for _ in range(150):
        table.write(rng.randrange(64), rng.randrange(256),
                    rng.randrange(THREADS))
    return table


def _filled_btb(isolation, seed):
    btb = BranchTargetBuffer(16, 4, isolation=isolation)
    rng = random.Random(seed)
    for _ in range(150):
        pc = 0x4000 + 4 * rng.randrange(256)
        btb.update(pc, pc + 0x40, rng.randrange(THREADS), BranchType.DIRECT)
    # Ways invalidated behind the flush machinery's back keep their owner:
    # Precise Flush must leave them alone.
    for i in rng.sample(range(len(btb._valid)), 10):
        btb._valid[i] = False
    return btb


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("thread", range(THREADS + 1))
def test_table_flush_thread_resets_exactly_the_owners_rows(thread, seed):
    table = _filled_table(PreciseFlushIsolation(), seed)
    data, owners = table._data, table._owner
    want_data, want_owners = list(data), list(owners)
    _reference_table_flush_thread(want_data, want_owners, thread, 3)
    assert owners.count(thread) or thread == THREADS
    table.flush_thread(thread)
    assert table._data is data and table._owner is owners
    assert data == want_data
    assert owners == want_owners


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("thread", range(THREADS + 1))
def test_btb_flush_thread_resets_exactly_the_owners_valid_ways(thread, seed):
    btb = _filled_btb(PreciseFlushIsolation(), seed)
    before = btb.raw_sets()
    want_valid, want_owners = list(btb._valid), list(btb._owners)
    _reference_btb_flush_thread(want_valid, want_owners, thread)
    btb.flush_thread(thread)
    assert btb._valid == want_valid
    assert btb._owners == want_owners
    # Tags and targets are untouched; only validity changes.
    assert [[way[1:] for way in s] for s in btb.raw_sets()] \
        == [[way[1:] for way in s] for s in before]


def test_complete_flush_leaves_no_owner_stamps():
    isolation = CompleteFlushIsolation()
    table = _filled_table(isolation, 1)
    btb = _filled_btb(isolation, 1)
    assert set(btb._owners) != {-1}  # the BTB stamps owners on every install
    data, valid = table._data, btb._valid
    isolation.on_context_switch(0)
    assert table._data is data and btb._valid is valid
    assert list(table.rows()) == [3] * len(table)
    assert [table.owner_of(row) for row in range(len(table))] \
        == [-1] * len(table)
    assert btb._valid == [False] * len(valid)
    assert btb._owners == [-1] * len(valid)
    assert type(btb._valid[0]) is bool


def test_set_isolation_drops_owner_stamps():
    table = _filled_table(PreciseFlushIsolation(), 2)
    assert set(table._owner) != {-1}
    table.set_isolation(CompleteFlushIsolation())
    assert table._owner == [-1] * len(table)
    assert list(table.rows()) == [3] * len(table)
