"""Fused ``BimodalPredictor.execute`` vs ``lookup`` + ``record`` + ``update``.

The attack studies drive the bimodal PHT through its fused ``execute`` (one
word read, one word write).  These tests run twin units through the same
two-thread branch stream, one on ``execute`` and one on the unfused
protocol, with context switches (key rotation or flushes) and per-thread
flushes between steps, and require equal predictions, raw words, owners and
per-thread statistics after every step — on the passthrough, fused-XOR and
generic storage arms, packed (32-bit words) and simple (2-bit words).
"""

import random

import pytest

from repro.core.registry import make_bpu

#: (preset, config overrides, force generic dispatch).
ARMS = [
    ("baseline", None, False),
    ("complete_flush", None, False),
    ("precise_flush", None, False),
    ("xor_bp", None, False),
    ("noisy_xor_bp", None, False),
    ("xor_pht_simple", None, False),
    ("noisy_xor_bp", {"encoder": "sbox"}, False),
    ("noisy_xor_bp", {"encoder": "shift_xor"}, False),
    ("noisy_xor_bp", None, True),
    ("baseline", None, True),
]
ARM_IDS = ["baseline", "complete_flush", "precise_flush", "xor_bp",
           "noisy_xor_bp", "xor_pht_simple", "sbox", "shift_xor",
           "noisy_xor_bp-generic", "baseline-generic"]


def _unit(preset, overrides, generic):
    bpu = make_bpu("bimodal", preset, seed=7, config_overrides=overrides,
                   predictor_kwargs={"n_entries": 256})
    if generic:
        bpu.force_generic_dispatch()
    return bpu


def _state(predictor):
    table = predictor.pht.word_table
    return (list(table.rows()),
            [table.owner_of(row) for row in range(len(table))],
            {thread: (s.lookups, s.mispredictions)
             for thread, s in sorted(predictor._stats.items())})


@pytest.mark.parametrize("preset,overrides,generic", ARMS, ids=ARM_IDS)
def test_execute_matches_unfused_protocol(preset, overrides, generic):
    fused_bpu = _unit(preset, overrides, generic)
    plain_bpu = _unit(preset, overrides, generic)
    fused, plain = fused_bpu.direction, plain_bpu.direction
    # A few hot PCs (so counters saturate) plus random ones that alias.
    hot = [0x4000 + 4 * i for i in range(6)]
    rng = random.Random(11)
    for step in range(3000):
        thread = rng.randrange(2)
        pc = rng.choice(hot) if rng.random() < 0.7 else rng.randrange(1 << 16)
        taken = rng.random() < 0.6
        predicted = fused.execute(pc, taken, thread)
        prediction = plain.lookup(pc, thread)
        plain.stats(thread).record(prediction.taken == taken)
        plain.update(pc, taken, prediction, thread)
        assert predicted == prediction.taken, step
        roll = rng.random()
        if roll < 0.02:
            for bpu in (fused_bpu, plain_bpu):
                bpu.notify_context_switch(thread)
        elif roll < 0.03:
            fused.flush_thread(thread)
            plain.flush_thread(thread)
        assert _state(fused) == _state(plain), step


def test_execute_stamps_the_owner_under_precise_flush():
    predictor = _unit("precise_flush", None, False).direction
    table = predictor.pht.word_table
    predictor.execute(0x4000, True, 1)
    row = (0x4000 >> 2) // predictor.pht.counters_per_word
    assert table.owner_of(row) == 1
    predictor.flush_thread(1)
    assert table.owner_of(row) == -1
