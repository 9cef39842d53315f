"""Generated bimodal kernels vs ``lookup`` + ``record`` + ``update``.

The engines and the attack studies drive the bimodal PHT through its
per-thread generated kernel (one word read, one word write; ``execute``
delegates to it).  These tests run twin units through the same branch
stream, one on the kernel and one on the unfused protocol, with context
switches (key rotation or flushes) and per-thread flushes between steps,
and require equal predictions, raw words, owners and per-thread statistics
after every step — on the passthrough, fused-XOR, owner and generic storage
arms, packed (32-bit words) and simple (2-bit words), on 1, 2 and 4
threads.  A kernel survives key re-randomisation with its masks rebound in
place; the rebound kernel must equal a freshly built one.
"""

import random

import pytest

from repro.core.registry import make_bpu
from repro.types import Privilege

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


#: (preset, config overrides, expected kernel arm): one preset per arm.
KERNEL_ARMS = [
    ("baseline", None, "passthrough"),
    ("precise_flush", None, "owner"),
    ("noisy_xor_bp", None, "fused-xor"),
    ("xor_pht_simple", None, "fused-xor"),
    ("noisy_xor_bp", {"encoder": "sbox"}, "generic"),
]


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("preset,overrides,arm", KERNEL_ARMS,
                         ids=[f"{arm}-{preset}" for preset, _, arm
                              in KERNEL_ARMS])
def test_kernel_matches_unfused_protocol(preset, overrides, arm, threads):
    """Per-thread kernels, fetched and re-fetched by the engines' rule,
    against ``lookup``/``stats().record``/``update`` across context and
    privilege switches and complete and per-thread flushes."""
    kernel_bpu = _unit(preset, overrides, False)
    plain_bpu = _unit(preset, overrides, False)
    predictor, plain = kernel_bpu.direction, plain_bpu.direction
    kernels = {}
    hot = [0x4000 + 4 * i for i in range(6)]
    rng = random.Random(23 + threads)
    for step in range(2500):
        thread = rng.randrange(threads)
        pc = rng.choice(hot) if rng.random() < 0.7 else rng.randrange(1 << 16)
        taken = rng.random() < 0.6
        kernel = kernels.get(thread)
        if kernel is None:
            kernel = kernels[thread] = predictor.exec_kernel(thread)
            assert kernel.arm == arm
        predicted = kernel(pc, taken)
        prediction = plain.lookup(pc, thread)
        plain.stats(thread).record(prediction.taken == taken)
        plain.update(pc, taken, prediction, thread)
        assert predicted == prediction.taken, step
        roll = rng.random()
        if roll < 0.03:
            for bpu in (kernel_bpu, plain_bpu):
                bpu.notify_context_switch(thread)
            kernels.clear()
        elif roll < 0.05:
            for bpu in (kernel_bpu, plain_bpu):
                bpu.notify_privilege_switch(thread, Privilege.KERNEL)
            kernels.clear()
        elif roll < 0.06:
            predictor.flush_thread(thread)
            plain.flush_thread(thread)
        elif roll < 0.065:
            predictor.flush()
            plain.flush()
        assert _state(predictor) == _state(plain), step


def _globals(kernel):
    """A kernel's bound globals, storage lists compared by value (the BTB
    kernel's back-reference to its own unit is left out)."""
    return {name: list(value) if isinstance(value, list) else value
            for name, value in kernel.__globals__.items()
            if name not in ("__builtins__", "btb")}


@pytest.mark.parametrize("preset", ["xor_bp", "noisy_xor_bp",
                                    "xor_pht_simple"])
@pytest.mark.parametrize("structure", ["bimodal", "btb"])
def test_rekeyed_kernel_keeps_identity_and_matches_a_fresh_one(structure,
                                                               preset):
    """After N rekeys the same kernel object is returned, with the new
    masks bound; a twin unit that rebuilds its kernel from scratch after
    every rekey sees the same predictions and ends in the same state."""
    kept_bpu = _unit(preset, None, False)
    fresh_bpu = _unit(preset, None, False)

    def fetch(bpu, thread):
        if structure == "btb":
            return bpu.btb.exec_conditional_kernel(thread)
        return bpu.direction.exec_kernel(thread)

    def drop(bpu):
        if structure == "btb":
            bpu.btb.invalidate_kernels()
        else:
            bpu.direction.invalidate_kernel_masks()

    # Same first fetches on both twins: a thread's key is drawn on first use.
    first = {thread: fetch(kept_bpu, thread) for thread in (0, 1)}
    for thread in (0, 1):
        fetch(fresh_bpu, thread)
    rng = random.Random(5)
    for rekey in range(40):
        thread = rng.randrange(2)
        for bpu in (kept_bpu, fresh_bpu):
            if rekey % 3:
                bpu.notify_context_switch(thread)
            else:
                bpu.notify_privilege_switch(thread, Privilege.KERNEL)
        drop(fresh_bpu)
        kept = fetch(kept_bpu, thread)
        fresh = fetch(fresh_bpu, thread)
        assert kept is first[thread]
        assert fresh is not kept
        assert _globals(kept) == _globals(fresh)
        for _ in range(20):
            pc = 0x4000 + 4 * rng.randrange(64)
            taken = rng.random() < 0.5
            if structure == "btb":
                args = (pc, pc + 0x100, taken)
            else:
                args = (pc, taken)
            assert kept(*args) == fresh(*args)
    assert _state(kept_bpu.direction) == _state(fresh_bpu.direction)
    assert kept_bpu.btb.snapshot() == fresh_bpu.btb.snapshot()
