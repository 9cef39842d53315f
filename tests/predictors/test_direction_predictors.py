"""Behavioural tests for the direction predictors (bimodal, gshare, tournament)."""

import random

import pytest

from repro.core.registry import make_bpu
from repro.predictors import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
    make_direction_predictor,
)
from repro.predictors.base import DirectionPrediction
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.types import Privilege


PREDICTOR_CLASSES = [BimodalPredictor, GsharePredictor, TournamentPredictor]


def train(predictor, pc, pattern, repetitions=50, thread_id=0):
    """Train a predictor on a repeating outcome pattern; return final accuracy."""
    correct = 0
    total = 0
    for rep in range(repetitions):
        for outcome in pattern:
            prediction = predictor.lookup(pc, thread_id)
            if rep >= repetitions // 2:
                total += 1
                correct += int(prediction.taken == outcome)
            predictor.update(pc, outcome, prediction, thread_id)
    return correct / max(total, 1)


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_lookup_returns_prediction(self, cls):
        predictor = cls()
        prediction = predictor.lookup(0x4000)
        assert isinstance(prediction, DirectionPrediction)
        assert isinstance(prediction.taken, bool)

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_learns_always_taken_branch(self, cls):
        predictor = cls()
        accuracy = train(predictor, 0x4000, [True])
        assert accuracy > 0.95

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_learns_always_not_taken_branch(self, cls):
        predictor = cls()
        accuracy = train(predictor, 0x4000, [False])
        assert accuracy > 0.95

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_update_without_prediction_object(self, cls):
        predictor = cls()
        predictor.update(0x4000, True)  # must not raise
        assert predictor.lookup(0x4000) is not None

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_stats_accumulate(self, cls):
        predictor = cls()
        for _ in range(10):
            predictor.predict_and_update(0x4000, True)
        assert predictor.stats(0).lookups == 10

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_flush_resets_learning(self, cls):
        predictor = cls()
        train(predictor, 0x4000, [True], repetitions=20)
        predictor.flush()
        prediction = predictor.lookup(0x4000)
        # After a flush the 2-bit counters are back to weakly-not-taken.
        assert prediction.taken in (False, True)  # defined behaviour, no crash
        # Re-training works.
        assert train(predictor, 0x4000, [True], repetitions=40) > 0.85

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_storage_bits_positive(self, cls):
        assert cls().storage_bits > 0

    @pytest.mark.parametrize("cls", PREDICTOR_CLASSES)
    def test_total_stats_merges_threads(self, cls):
        predictor = cls()
        predictor.predict_and_update(0x4000, True, thread_id=0)
        predictor.predict_and_update(0x4000, True, thread_id=1)
        assert predictor.total_stats().lookups == 2


@pytest.mark.parametrize("build, message", [
    (lambda: StatisticalCorrector(counter_bits=0),
     r"counter_bits must be >= 1, got 0"),
    (lambda: StatisticalCorrector(counter_bits=-3),
     r"counter_bits must be >= 1, got -3"),
    (lambda: GsharePredictor(0),
     r"n_entries must be a positive power of two, got 0"),
    (lambda: GsharePredictor(1),
     r"n_entries must be >= 2 when history_bits is omitted, got 1"),
    (lambda: StatisticalCorrector(0),
     r"table_entries must be a positive power of two, got 0"),
    (lambda: GsharePredictor(8, word_bits=0),
     r"word_bits \(0\) must be a positive multiple of counter_bits \(2\)"),
], ids=["sc-bits-0", "sc-bits-neg", "gshare-entries-0", "gshare-entries-1",
        "sc-entries-0", "gshare-word-bits-0"])
def test_bad_geometry_names_the_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_single_entry_gshare_with_explicit_history_works():
    predictor = GsharePredictor(1, history_bits=4)
    predictor.predict_and_update(0x4000, True)
    assert predictor.total_stats().lookups == 1


class TestBimodal:
    def test_different_branches_do_not_interfere(self):
        predictor = BimodalPredictor(1024)
        train(predictor, 0x4000, [True], repetitions=10)
        train(predictor, 0x4008, [False], repetitions=10)
        assert predictor.lookup(0x4000).taken is True
        assert predictor.lookup(0x4008).taken is False

    def test_aliased_branches_share_a_counter(self):
        predictor = BimodalPredictor(64)
        pc_a = 0x1000
        pc_b = pc_a + 64 * 4  # same index modulo table size
        assert predictor.index_of(pc_a) == predictor.index_of(pc_b)
        train(predictor, pc_a, [True], repetitions=10)
        assert predictor.lookup(pc_b).taken is True

    def test_cannot_learn_alternating_pattern(self):
        predictor = BimodalPredictor(1024)
        accuracy = train(predictor, 0x4000, [True, False], repetitions=40)
        assert accuracy < 0.8


class TestGshare:
    def test_learns_history_dependent_pattern(self):
        predictor = GsharePredictor(4096)
        accuracy = train(predictor, 0x4000, [True, False], repetitions=80)
        assert accuracy > 0.9

    def test_history_advances_per_thread(self):
        predictor = GsharePredictor(4096)
        predictor.update(0x4000, True, thread_id=0)
        assert predictor.global_history.value(0) == 1
        assert predictor.global_history.value(1) == 0

    def test_index_depends_on_history(self):
        predictor = GsharePredictor(4096)
        index_before = predictor.index_of(0x4000)
        predictor.update(0x4000, True)
        index_after = predictor.index_of(0x4000)
        assert index_before != index_after

    def test_flush_thread_clears_history(self):
        predictor = GsharePredictor(4096)
        predictor.update(0x4000, True, thread_id=0)
        predictor.flush_thread(0)
        assert predictor.global_history.value(0) == 0


class TestTournament:
    def test_learns_alternating_pattern_via_local_history(self):
        predictor = TournamentPredictor()
        accuracy = train(predictor, 0x4000, [True, False], repetitions=80)
        assert accuracy > 0.85

    def test_learns_biased_branches(self):
        predictor = TournamentPredictor()
        rng = random.Random(7)
        pc = 0x7000
        correct = 0
        for i in range(600):
            taken = rng.random() < 0.95
            prediction = predictor.lookup(pc)
            if i > 300:
                correct += int(prediction.taken == taken)
            predictor.update(pc, taken, prediction)
        assert correct / 299 > 0.78

    def test_exposes_component_tables(self):
        predictor = TournamentPredictor()
        assert len(predictor.tables()) == 3
        assert predictor.local_pht is not None
        assert predictor.global_pht is not None
        assert predictor.choice_pht is not None

    def test_chooser_meta_is_reported(self):
        predictor = TournamentPredictor()
        meta = predictor.lookup(0x4000).meta
        assert "use_global" in meta
        assert "local_taken" in meta and "global_taken" in meta


class TestFactory:
    def test_all_registered_predictors_construct(self):
        for name in ("bimodal", "gshare", "tournament", "tage", "ltage", "tage_sc_l"):
            predictor = make_direction_predictor(name)
            assert predictor.lookup(0x1234) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_direction_predictor("neural_net_9000")

    def test_name_normalisation(self):
        predictor = make_direction_predictor("TAGE-SC-L")
        assert predictor.name == "tage_sc_l"


class TestKernelFetch:
    """The kernels the cores fetch straight from the predictor."""

    @pytest.mark.parametrize("predictor", ["tage", "gshare", "tournament",
                                           "ltage", "tage_sc_l", "bimodal"])
    def test_direction_kernel_cached_per_thread(self, predictor):
        bpu = make_bpu(predictor, "xor_bp", seed=7)
        first = bpu.direction.exec_kernel(0)
        assert bpu.direction.exec_kernel(0) is first
        assert bpu.direction.exec_kernel(1) is not first


@pytest.mark.parametrize("predictor", ["tage", "gshare", "tournament",
                                       "ltage", "tage_sc_l"])
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


def test_execute_stamps_the_owner_under_precise_flush():
    predictor = _unit("precise_flush", None, False).direction
    table = predictor.pht.word_table
    predictor.execute(0x4000, True, 1)
    row = (0x4000 >> 2) // predictor.pht.counters_per_word
    assert table.owner_of(row) == 1
    predictor.flush_thread(1)
    assert table.owner_of(row) == -1


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
