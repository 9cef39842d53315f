"""Generated execute kernels of the SMT predictor zoo.

Gshare, Tournament, LTAGE and TAGE-SC-L run the batched engines through
generated ``exec_kernel`` functions on four storage arms (passthrough, fused-XOR,
owner, generic); ``test_xor_fastpath.py`` pins the arm each preset selects.  These
tests pin the invalidation protocol (forced generic dispatch, flushes,
stats resets), which the TAGE and gshare kernels share, and bit-identity of every arm with the scalar
``lookup``/``update`` oracle, including the non-XOR encoders that only the
generic arm serves.
"""

import pytest

from repro.core.registry import make_bpu
from repro.predictors import LTagePredictor, TageScLPredictor
from repro.types import BranchType, Privilege
from repro.workloads.generator import make_workload

ZOO = ["tournament", "ltage", "tage_sc_l"]
KERNEL_PREDICTORS = ["tage", "gshare"] + ZOO


@pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
@pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp"])
def test_force_generic_dispatch_reaches_every_kernel(predictor, preset):
    bpu = make_bpu(predictor, preset, seed=3)
    for thread in (0, 1):
        assert bpu.direction.exec_kernel(thread).arm != "generic"
    bpu.force_generic_dispatch()
    for thread in (0, 1):
        assert bpu.direction.exec_kernel(thread).arm == "generic"


@pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
@pytest.mark.parametrize("drop", ["flush", "flush_thread", "reset_stats",
                                  "invalidate_kernel_masks", "rekey"])
def test_state_changes_drop_kernels(predictor, drop):
    bpu = make_bpu(predictor, "noisy_xor_bp", seed=3)
    direction = bpu.direction
    before = direction.exec_kernel(0)
    before(0x4000, True)
    if drop == "flush_thread":
        direction.flush_thread(0)
    elif drop == "rekey":
        bpu.notify_context_switch(0)
    else:
        getattr(direction, drop)()
    assert direction.exec_kernel(0) is not before
    tage = getattr(direction, "tage", None)
    if tage is not None and drop != "rekey":
        # Forwarded to the TAGE component, whose own kernels go as well.
        assert 0 not in tage._exec_fns


@pytest.mark.parametrize("cls", [LTagePredictor, TageScLPredictor])
def test_composite_stats_stay_on_the_composite(cls):
    predictor = cls()
    kernel = predictor.exec_kernel(0)
    for i in range(200):
        kernel(0x4000 + 4 * (i % 7), i % 3 != 0)
    assert predictor.stats(0).lookups == 200
    # As on the scalar path, the TAGE component records nothing.
    assert predictor.tage._stats == {}


def _scalar_step(direction, pc, taken, thread):
    prediction = direction.lookup(pc, thread)
    direction.stats(thread).record(prediction.taken == taken)
    direction.update(pc, taken, prediction, thread)
    return prediction.taken


@pytest.mark.parametrize("predictor,kwargs", [
    ("gshare", None),
    # 27 history bits over a 10-bit index: the history fold XORs 3 chunks.
    ("gshare", {"n_entries": 1024, "history_bits": 27}),
] + [(name, None) for name in ZOO], ids=["gshare", "gshare-long-history"] + ZOO)
@pytest.mark.parametrize("preset,encoder", [
    ("baseline", "xor"), ("complete_flush", "xor"), ("precise_flush", "xor"),
    ("xor_pht_simple", "xor"), ("noisy_xor_bp", "xor"),
    ("noisy_xor_bp", "sbox"), ("xor_bp", "shift_xor")])
def test_kernel_matches_scalar_oracle(predictor, kwargs, preset, encoder):
    """Kernel vs lookup/update on two threads, across switches and rekeys."""
    overrides = {"encoder": encoder} if encoder != "xor" else None
    oracle = make_bpu(predictor, preset, seed=11, config_overrides=overrides,
                      predictor_kwargs=kwargs)
    fast = make_bpu(predictor, preset, seed=11, config_overrides=overrides,
                    predictor_kwargs=kwargs)
    if encoder != "xor":
        assert fast.direction.exec_kernel(0).arm == "generic"
    records = [r for r in make_workload("mcf", seed=5).segment(2_500)
               if r.branch_type is BranchType.CONDITIONAL]
    for i, record in enumerate(records):
        thread = i % 2
        want = _scalar_step(oracle.direction, record.pc, record.taken, thread)
        got = fast.direction.exec_kernel(thread)(record.pc, record.taken)
        assert got == want, f"prediction diverged at branch {i}"
        if i % 89 == 0:
            for bpu in (oracle, fast):
                bpu.notify_context_switch(thread)
        if i % 37 == 0:
            for bpu in (oracle, fast):
                bpu.notify_privilege_switch(thread, Privilege.KERNEL)
                bpu.notify_privilege_switch(thread, Privilege.USER)
    for table_a, table_b in zip(oracle.direction.tables(),
                                fast.direction.tables()):
        assert list(table_a.rows()) == list(table_b.rows()), table_a.name
    for thread in (0, 1):
        a, b = oracle.direction.stats(thread), fast.direction.stats(thread)
        assert (a.lookups, a.mispredictions) == (b.lookups, b.mispredictions)
