"""Behavioural tests for the direction predictors (bimodal, gshare, tournament)."""

import random

import pytest

from repro.predictors import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
    make_direction_predictor,
)
from repro.predictors.base import DirectionPrediction
from repro.predictors.statistical_corrector import StatisticalCorrector


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
], ids=["sc-bits-0", "sc-bits-neg", "gshare-entries-0", "gshare-entries-1"])
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
