"""Tests for TAGE, the loop predictor, the statistical corrector, LTAGE and TAGE-SC-L."""

import random

import pytest

from repro.core.registry import make_bpu
from repro.predictors.history import fold_history
from repro.predictors.loop import LoopPredictor
from repro.predictors.ltage import LTagePredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import (_LFSR_TWO_STEP_TERMS, TageConfig, TagePredictor,
                                   _DeterministicLfsr, geometric_history_lengths)
from repro.predictors.tage_sc_l import TageScLPredictor
from repro.types import BranchType, Privilege
from repro.workloads.generator import make_workload

#: TAGE geometries whose index width does not divide the 32-bit path
#: history, whose tag widths differ from the default, or whose table count
#: is past the oldest-bit gather map's limit.
GEOMETRIES = {
    "entries64": TageConfig(table_entries=64),
    "entries128": TageConfig(table_entries=128),
    "entries512": TageConfig(table_entries=512, tag_bits=9),
    "entries2048": TageConfig(table_entries=2048),
    "tag7": TageConfig(table_entries=256, tag_bits=7),
    "tag12": TageConfig(tag_bits=12),
    "n8-long": TageConfig(n_tables=8, min_history=8, max_history=256),
    "n14-no-gather": TageConfig(n_tables=14, table_entries=256,
                                min_history=4, max_history=200),
}


class TestGeometricHistoryLengths:
    def test_endpoints(self):
        lengths = geometric_history_lengths(6, 12, 130)
        assert lengths[0] == 12
        assert lengths[-1] == 130

    def test_strictly_increasing(self):
        lengths = geometric_history_lengths(8, 4, 256)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_table(self):
        assert geometric_history_lengths(1, 12, 130) == [12]


class TestTageConfig:
    def test_default_matches_fpga_prototype(self):
        config = TageConfig()
        assert config.n_tables == 6
        assert config.table_entries == 4096
        assert config.history_lengths()[0] == 12
        assert config.history_lengths()[-1] == 130

    @pytest.mark.parametrize("field, value, bound", [
        ("table_entries", 1, 2), ("tag_bits", 0, 2), ("tag_bits", 1, 2),
        ("n_tables", 0, 1)])
    def test_degenerate_geometry_is_a_named_error(self, field, value, bound):
        # Not a ZeroDivisionError from a zero-width folded register.
        with pytest.raises(ValueError,
                           match=rf"TageConfig\.{field} must be >= {bound}"):
            TagePredictor(TageConfig(**{field: value}))


def _train_pattern(predictor, pc, pattern, repetitions=60, measure_last=0.5):
    correct = 0
    total = 0
    start = int(repetitions * (1 - measure_last))
    for rep in range(repetitions):
        for outcome in pattern:
            prediction = predictor.lookup(pc)
            if rep >= start:
                total += 1
                correct += int(prediction.taken == outcome)
            predictor.update(pc, outcome, prediction)
    return correct / max(total, 1)


class TestTage:
    def test_learns_biased_branch(self):
        predictor = TagePredictor(TageConfig(n_tables=4, table_entries=512))
        assert _train_pattern(predictor, 0x4000, [True]) > 0.95

    def test_learns_long_period_pattern(self):
        # Period-9 pattern: beyond a 2-bit counter, learnable with history.
        pattern = [True] * 8 + [False]
        predictor = TagePredictor(TageConfig(n_tables=4, table_entries=1024))
        assert _train_pattern(predictor, 0x4000, pattern, repetitions=80) > 0.85

    def test_outperforms_bimodal_on_history_pattern(self):
        from repro.predictors.bimodal import BimodalPredictor
        pattern = [True, True, False]
        tage = TagePredictor(TageConfig(n_tables=4, table_entries=1024))
        bimodal = BimodalPredictor(1024)
        tage_acc = _train_pattern(tage, 0x4000, pattern, repetitions=80)
        bimodal_acc = _train_pattern(bimodal, 0x4000, pattern, repetitions=80)
        assert tage_acc > bimodal_acc

    def test_meta_reports_provider(self):
        predictor = TagePredictor(TageConfig(n_tables=4, table_entries=512))
        _train_pattern(predictor, 0x4000, [True, False], repetitions=30)
        meta = predictor.lookup(0x4000).meta
        assert "provider" in meta and "indices" in meta
        assert len(meta["indices"]) == 4

    def test_tables_exposed(self):
        predictor = TagePredictor(TageConfig(n_tables=5, table_entries=256))
        assert len(predictor.tagged_tables) == 5
        # base bimodal contributes one more storage table
        assert len(predictor.tables()) == 6

    def test_flush_clears_folded_state(self):
        predictor = TagePredictor(TageConfig(n_tables=4, table_entries=256))
        _train_pattern(predictor, 0x4000, [True], repetitions=5)
        predictor.flush()
        assert predictor.global_history.value(0) == 0

    def test_per_thread_histories_are_independent(self):
        predictor = TagePredictor(TageConfig(n_tables=4, table_entries=256))
        predictor.update(0x4000, True, thread_id=0)
        assert predictor.global_history.value(0) != 0
        assert predictor.global_history.value(1) == 0

    @pytest.mark.parametrize("config", [
        TageConfig(), TageConfig(tag_bits=8), GEOMETRIES["entries64"],
        GEOMETRIES["tag12"], GEOMETRIES["n14-no-gather"]],
        ids=["default", "tag8", "entries64", "tag12", "n14-no-gather"])
    def test_folded_registers_match_fold_history(self, config):
        # Each table's index, tag0 and tag1 register is its history window
        # folded to the register's width, whatever the lane layout, after
        # both the scalar push and the generated kernel's SWAR push.
        rng = random.Random(3)
        scalar, batched = TagePredictor(config), TagePredictor(config)
        kernel = batched.exec_kernel(0)
        for _ in range(700):
            scalar._push_history(rng.random() < 0.5, 0)
            kernel(0x4000 + 4 * rng.randrange(1024), rng.random() < 0.5)
        for predictor in (scalar, batched):
            regs = predictor._folded_regs(0)
            ghr = predictor.global_history.value(0)
            files = [(regs[0], predictor._swar_i),
                     (regs[1], predictor._swar_t0),
                     (regs[2], predictor._swar_t1)]
            for t, length in enumerate(predictor.history_lengths):
                window = ghr & ((1 << length) - 1)
                for packed, swar in files:
                    lane = (packed >> swar.lane_offsets[t]) \
                        & ((1 << swar.width) - 1)
                    assert lane == fold_history(window, length, swar.width)


    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_kernel_matches_scalar_across_geometries(self, name):
        # The kernel folds the path history in closed form and every tag
        # from one shared-pitch XOR; the scalar path folds both the long
        # way.  Predictions, storage and stats must agree on geometries
        # where the widths and lane layouts differ from the default.
        cfg = GEOMETRIES[name]
        records = [r for r in make_workload("gcc", seed=2).segment(3_000)
                   if r.branch_type is BranchType.CONDITIONAL]
        for preset in ("baseline", "noisy_xor_bp"):
            oracle, fast = (make_bpu("tage", preset, seed=7,
                                     predictor_kwargs={"config": cfg})
                            for _ in range(2))
            for i, record in enumerate(records):
                pc, taken = record.pc, record.taken
                prediction = oracle.direction.lookup(pc, 0)
                oracle.direction.stats(0).record(prediction.taken == taken)
                oracle.direction.update(pc, taken, prediction, 0)
                got = fast.direction.exec_kernel(0)(pc, taken)
                assert got == prediction.taken, f"{preset}: branch {i}"
                if i % 211 == 0:
                    for bpu in (oracle, fast):
                        bpu.notify_privilege_switch(0, Privilege.KERNEL)
                        bpu.notify_privilege_switch(0, Privilege.USER)
            for a, b in zip(oracle.direction.tables(),
                            fast.direction.tables()):
                assert list(a.rows()) == list(b.rows()), (preset, a.name)
            assert (oracle.direction.stats(0).mispredictions
                    == fast.direction.stats(0).mispredictions)
            assert oracle.direction._lfsr._state == fast.direction._lfsr._state

    def test_gather_map_is_shared_per_geometry(self):
        assert TagePredictor()._old_gather is TagePredictor()._old_gather
        assert (TagePredictor(TageConfig(tag_bits=8))._old_gather
                is not TagePredictor()._old_gather)
        assert TagePredictor(GEOMETRIES["n14-no-gather"])._old_gather is None

    @pytest.mark.parametrize("config", [
        TageConfig(), TageConfig(tag_bits=8), GEOMETRIES["entries64"]],
        ids=["default", "tag8", "entries64"])
    def test_gather_map_matches_per_table_gather(self, config):
        # Each key (a set of oldest history bits) maps to the OR of those
        # tables' insert masks in the three register files.
        predictor = TagePredictor(config)
        gather = predictor._old_gather
        n = config.n_tables
        assert len(gather) == 1 << n
        files = (predictor._swar_i, predictor._swar_t0, predictor._swar_t1)
        for subset in range(1 << n):
            key, want = 0, [0, 0, 0]
            for t in range(n):
                if subset >> t & 1:
                    key |= 1 << predictor._old_shifts[t]
                    for f, swar in enumerate(files):
                        want[f] |= swar.insert_masks[t]
            assert gather[key] == tuple(want)


class TestAllocationLfsr:
    @pytest.mark.parametrize("low", range(4))
    def test_two_step_closed_form_matches_next_bits(self, low):
        # The kernels step the tie-break LFSR twice as
        # ``(state >> 2) ^ terms[state & 3]`` and take ``next_bits(2) == 0``
        # as ``state & 3 == 0``.
        rng = random.Random(low)
        for _ in range(500):
            state = (rng.randrange(1 << 14) << 2) | low
            lfsr = _DeterministicLfsr()
            lfsr._state = state
            bits = lfsr.next_bits(2)
            assert lfsr._state == (state >> 2) ^ _LFSR_TWO_STEP_TERMS[low]
            assert (bits == 0) == (low == 0)


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self):
        loop = LoopPredictor(64)
        pc = 0x8000
        trip = 7
        # Train several full loop executions.
        for _ in range(8):
            for i in range(trip):
                taken = i < trip - 1
                loop.update(pc, taken)
        # Now the predictor should predict the whole loop correctly.
        correct = 0
        for i in range(trip):
            expected = i < trip - 1
            prediction = loop.lookup(pc)
            correct += int(prediction.valid and prediction.taken == expected)
            loop.update(pc, expected)
        assert correct == trip

    def test_not_confident_before_repetitions(self):
        loop = LoopPredictor(64)
        pc = 0x8000
        for i in range(5):
            loop.update(pc, i < 4)
        assert not loop.lookup(pc).valid

    def test_irregular_loop_never_becomes_confident(self):
        loop = LoopPredictor(64)
        pc = 0x8000
        rng = random.Random(3)
        for _ in range(12):
            trip = rng.randrange(3, 9)
            for i in range(trip):
                loop.update(pc, i < trip - 1)
        assert not loop.lookup(pc).valid

    def test_flush(self):
        loop = LoopPredictor(64)
        for _ in range(8):
            for i in range(5):
                loop.update(0x8000, i < 4)
        loop.flush()
        assert not loop.lookup(0x8000).valid


class TestStatisticalCorrector:
    def test_agreeing_prediction_is_unchanged(self):
        sc = StatisticalCorrector(256)
        assert sc.correct(0x4000, 0, True, True) in (True, False)

    def test_training_biases_towards_observed_direction(self):
        sc = StatisticalCorrector(256)
        pc = 0x4000
        for _ in range(200):
            sc.update(pc, True, 0, tage_taken=False, final_taken=False)
        # After consistently seeing taken, the corrector should override a
        # low-confidence not-taken TAGE prediction.
        assert sc.correct(pc, 0, False, False) is True

    def test_tables_exposed_and_flush(self):
        sc = StatisticalCorrector(128)
        assert len(sc.tables()) >= 3
        sc.flush()
        assert sc.confidence_sum(0x4000, 0, True) != 0  # TAGE vote bias remains


class TestComposites:
    @pytest.mark.parametrize("cls", [LTagePredictor, TageScLPredictor])
    def test_learns_biased_branch(self, cls):
        predictor = cls(TageConfig(n_tables=4, table_entries=512))
        assert _train_pattern(predictor, 0x4000, [True]) > 0.9

    @pytest.mark.parametrize("cls", [LTagePredictor, TageScLPredictor])
    def test_component_access_and_flush(self, cls):
        predictor = cls(TageConfig(n_tables=4, table_entries=256))
        assert predictor.tage is not None
        assert predictor.loop is not None
        assert len(predictor.tables()) > 4
        predictor.flush()  # must not raise

    def test_ltage_loop_component_captures_long_loops(self):
        predictor = LTagePredictor(TageConfig(n_tables=4, table_entries=512))
        pc = 0x9000
        trip = 40  # too long for the 2-bit/short-history components alone
        for _ in range(12):
            for i in range(trip):
                predictor.predict_and_update(pc, i < trip - 1)
        # Measure a final loop execution.
        mispredicts = sum(
            predictor.predict_and_update(pc, i < trip - 1) for i in range(trip))
        assert mispredicts <= 2

    def test_tage_sc_l_flush_thread(self):
        predictor = TageScLPredictor(TageConfig(n_tables=4, table_entries=256))
        predictor.predict_and_update(0x4000, True, thread_id=1)
        predictor.flush_thread(1)
        assert predictor.tage.global_history.value(1) == 0


@pytest.mark.parametrize("cls", [LTagePredictor, TageScLPredictor])
def test_composite_stats_stay_on_the_composite(cls):
    predictor = cls()
    kernel = predictor.exec_kernel(0)
    for i in range(200):
        kernel(0x4000 + 4 * (i % 7), i % 3 != 0)
    assert predictor.stats(0).lookups == 200
    # As on the scalar path, the TAGE component records nothing.
    assert predictor.tage._stats == {}
