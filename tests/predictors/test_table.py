"""Tests for the predictor storage layer (PredictorTable / PackedCounterTable)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.isolation import (
    CompleteFlushIsolation,
    NoisyXorIsolation,
    PreciseFlushIsolation,
    XorContentIsolation,
)
from repro.core.keys import KeyManager
from repro.core.registry import make_bpu
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.table import (
    ROW_DIVERSIFIER,
    IdentityIsolation,
    PackedCounterTable,
    PredictorTable,
    TableIsolation,
)


class TestPredictorTableBasics:
    def test_initial_contents_are_reset_value(self):
        table = PredictorTable(16, 8, reset_value=3)
        assert all(table.read(i) == 3 for i in range(16))

    def test_write_then_read_roundtrip(self):
        table = PredictorTable(16, 8)
        table.write(5, 0xAB)
        assert table.read(5) == 0xAB

    def test_value_is_masked_to_entry_width(self):
        table = PredictorTable(16, 4)
        table.write(0, 0xFF)
        assert table.read(0) == 0xF

    def test_index_wraps_modulo_size(self):
        table = PredictorTable(16, 8)
        table.write(16 + 3, 0x42)
        assert table.read(3) == 0x42

    def test_geometry_properties(self):
        table = PredictorTable(64, 12, name="t")
        assert table.n_entries == 64
        assert table.entry_bits == 12
        assert table.index_bits == 6
        assert table.storage_bits == 64 * 12
        assert len(table) == 64

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            PredictorTable(12, 8)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            PredictorTable(16, 0)

    def test_reset_value_must_fit(self):
        with pytest.raises(ValueError):
            PredictorTable(16, 2, reset_value=7)

    def test_flush_restores_reset_value(self):
        table = PredictorTable(8, 8, reset_value=1)
        table.write(2, 200)
        table.flush()
        assert table.read(2) == 1

    def test_raw_access_bypasses_isolation(self):
        iso = XorContentIsolation(KeyManager(seed=5))
        table = PredictorTable(8, 8, isolation=iso)
        table.write(1, 0x55, thread_id=0)
        raw = table.read_raw(table.physical_index(1, 0))
        assert raw != 0x55  # stored encoded
        assert table.read(1, 0) == 0x55

    def test_write_raw(self):
        table = PredictorTable(8, 8)
        table.write_raw(3, 0x7F)
        assert table.read_raw(3) == 0x7F

    def test_default_isolation_is_identity(self):
        table = PredictorTable(8, 8)
        assert isinstance(table.isolation, TableIsolation)

    @given(st.integers(min_value=0, max_value=1023),
           st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=60)
    def test_roundtrip_property(self, index, value):
        table = PredictorTable(1024, 16)
        table.write(index, value)
        assert table.read(index) == value


class TestPredictorTableWithIsolation:
    def test_row_diversifier_vector_is_shared_and_immutable(self):
        first = PredictorTable(
            64, 12, isolation=XorContentIsolation(KeyManager(seed=1)))
        second = PredictorTable(
            64, 12, isolation=XorContentIsolation(KeyManager(seed=2)))
        keys = first.row_diversifier_keys()
        assert isinstance(keys, tuple)
        assert second.row_diversifier_keys() is keys
        assert keys == tuple((row * ROW_DIVERSIFIER) & 0xFFF
                             for row in range(64))
        plain = PredictorTable(64, 12, isolation=XorContentIsolation(
            KeyManager(seed=1), row_diversified=False))
        assert plain.row_diversifier_keys() == (0,) * 64

    def test_same_thread_roundtrip_under_content_encoding(self):
        iso = XorContentIsolation(KeyManager(seed=1))
        table = PredictorTable(32, 8, isolation=iso)
        table.write(7, 0x3C, thread_id=0)
        assert table.read(7, thread_id=0) == 0x3C

    def test_other_thread_reads_garbage_under_content_encoding(self):
        iso = XorContentIsolation(KeyManager(seed=1))
        table = PredictorTable(32, 32, isolation=iso)
        table.write(7, 0x12345678, thread_id=0)
        assert table.read(7, thread_id=1) != 0x12345678

    def test_key_rotation_invalidates_own_state(self):
        iso = XorContentIsolation(KeyManager(seed=1))
        table = PredictorTable(32, 32, isolation=iso)
        table.write(7, 0xDEADBEEF, thread_id=0)
        iso.on_context_switch(0)
        assert table.read(7, thread_id=0) != 0xDEADBEEF

    def test_index_randomisation_moves_entries(self):
        iso = NoisyXorIsolation(KeyManager(seed=3))
        table = PredictorTable(256, 8, isolation=iso)
        physical = table.physical_index(10, thread_id=0)
        assert 0 <= physical < 256
        # Different threads map the same logical index to different rows for
        # almost every key pair; allow the rare collision by checking several.
        collisions = sum(
            table.physical_index(i, 0) == table.physical_index(i, 1)
            for i in range(64))
        assert collisions < 16

    def test_roundtrip_under_index_randomisation(self):
        iso = NoisyXorIsolation(KeyManager(seed=3))
        table = PredictorTable(256, 8, isolation=iso)
        table.write(10, 0x5A, thread_id=0)
        assert table.read(10, thread_id=0) == 0x5A

    def test_complete_flush_on_context_switch(self):
        iso = CompleteFlushIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 8, reset_value=0, isolation=iso)
        table.write(3, 99)
        iso.on_context_switch(0)
        assert table.read(3) == 0

    def test_precise_flush_only_clears_owner(self):
        iso = PreciseFlushIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 8, reset_value=0, isolation=iso)
        table.write(3, 99, thread_id=0)
        table.write(4, 77, thread_id=1)
        iso.on_context_switch(0)
        assert table.read(3, 0) == 0
        assert table.read(4, 1) == 77

    def test_owner_tracking_hides_entries_from_other_threads(self):
        iso = PreciseFlushIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 8, reset_value=0, isolation=iso)
        table.write(5, 123, thread_id=1)
        assert table.read(5, thread_id=0) == 0
        assert table.read(5, thread_id=1) == 123

    def test_owner_not_tracked_by_default(self):
        table = PredictorTable(16, 8)
        table.write(5, 1)
        assert table.owner_of(5) == -1

    def test_set_isolation_resets_contents(self):
        table = PredictorTable(16, 8, reset_value=2)
        table.write(1, 50)
        table.set_isolation(IdentityIsolation())
        assert table.read(1) == 2

    def test_flush_thread_without_owner_tracking_flushes_all(self):
        table = PredictorTable(16, 8, reset_value=0)
        table.write(1, 50)
        table.flush_thread(0)
        assert table.read(1) == 0


class TestPackedCounterTable:
    def test_counters_default_to_reset_value(self):
        pht = PackedCounterTable(64, 2, reset_value=1)
        assert all(pht.read(i) == 1 for i in range(64))

    def test_write_one_counter_does_not_disturb_neighbours(self):
        pht = PackedCounterTable(64, 2, word_bits=32, reset_value=1)
        pht.write(17, 3)
        assert pht.read(17) == 3
        assert pht.read(16) == 1
        assert pht.read(18) == 1

    def test_counters_per_word(self):
        pht = PackedCounterTable(64, 2, word_bits=32)
        assert pht.counters_per_word == 16
        assert pht.word_table.n_entries == 4

    def test_simple_granularity_uses_one_counter_per_word(self):
        pht = PackedCounterTable(64, 2, word_bits=2)
        assert pht.counters_per_word == 1

    def test_tiny_table_falls_back_to_single_counter_words(self):
        pht = PackedCounterTable(8, 2, word_bits=32)
        assert pht.counters_per_word == 1

    def test_flush(self):
        pht = PackedCounterTable(64, 2, reset_value=1)
        pht.write(5, 3)
        pht.flush()
        assert pht.read(5) == 1

    def test_word_bits_must_be_multiple_of_counter_bits(self):
        with pytest.raises(ValueError):
            PackedCounterTable(64, 3, word_bits=32)

    @pytest.mark.parametrize("n_counters", [8, 4096])
    def test_non_power_of_two_counters_per_word_is_rejected(self, n_counters):
        # 24 / 2 = 12 counters per word: no power-of-two table splits into
        # a power-of-two number of such words.
        with pytest.raises(ValueError, match=r"word_bits \(24\).*"
                                             r"counter_bits \(2\).*got 12"):
            PackedCounterTable(n_counters, 2, word_bits=24)

    @pytest.mark.parametrize("bits", [0, -2])
    @pytest.mark.parametrize("build", [
        lambda bits: PackedCounterTable(16, counter_bits=bits),
        lambda bits: BimodalPredictor(counter_bits=bits),
    ], ids=["packed", "bimodal"])
    def test_counter_bits_below_one_is_rejected(self, build, bits):
        with pytest.raises(ValueError,
                           match=rf"counter_bits must be >= 1, got {bits}"):
            build(bits)

    def test_storage_bits(self):
        pht = PackedCounterTable(4096, 2, word_bits=32)
        assert pht.storage_bits == 4096 * 2

    def test_len(self):
        assert len(PackedCounterTable(128, 2)) == 128

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_roundtrip_property(self, index, value):
        pht = PackedCounterTable(64, 2)
        pht.write(index, value)
        assert pht.read(index) == value

    def test_word_false_sharing_under_content_encoding(self):
        """A cross-thread write to the same word re-encodes the whole word."""
        iso = XorContentIsolation(KeyManager(seed=9))
        pht = PackedCounterTable(64, 2, word_bits=32, reset_value=1, isolation=iso)
        pht.write(0, 3, thread_id=0)
        pht.write(1, 3, thread_id=1)  # same physical word, other thread
        # Thread 0's counter was re-encoded under thread 1's key; thread 0 may
        # now read any value, but the structure must still be self-consistent
        # for thread 1.
        assert pht.read(1, thread_id=1) == 3


#: The Table 1 presets and the 2-bit XOR-PHT: each puts storage on a
#: passthrough, fused-XOR or owner kernel arm, never the generic one.
STORAGE_PRESETS = ["baseline", "complete_flush", "precise_flush", "xor_bp",
                   "noisy_xor_bp", "xor_pht_simple"]


def _count_dispatch(isolation, monkeypatch):
    """Record every ``map_index``/``encode``/``decode`` call on a policy."""
    calls = []
    for hook in ("map_index", "encode", "decode"):
        def counted(*args, _real=getattr(isolation, hook), _hook=hook):
            calls.append(_hook)
            return _real(*args)

        monkeypatch.setattr(isolation, hook, counted)
    return calls


class TestScalarStorageIsPolicyDispatch:
    """The scalar ``read``/``write``/``update`` are the kernels' oracle: on
    every preset they reach the policy's hooks, whatever the kernels' arm,
    with no ``force_generic_dispatch``."""

    @pytest.mark.parametrize("preset", STORAGE_PRESETS)
    def test_table_read_and_write_reach_the_policy(self, preset, monkeypatch):
        table = make_bpu("gshare", preset).direction.tables()[0]
        assert table.arm != "generic"
        value = (1 << table.entry_bits) - 2  # not the reset value
        calls = _count_dispatch(table.isolation, monkeypatch)
        table.write(5, value, 1)
        assert calls[:1] == ["map_index"] and "encode" in calls
        calls.clear()
        assert table.read(5, 1) == value
        assert calls[:1] == ["map_index"] and "decode" in calls

    @pytest.mark.parametrize("preset", STORAGE_PRESETS)
    def test_btb_update_reaches_the_policy(self, preset, monkeypatch):
        btb = make_bpu("gshare", preset).btb
        assert btb.arm != "generic"
        calls = _count_dispatch(btb.isolation, monkeypatch)
        btb.update(0x4000, 0x5000, 1)
        assert calls[:1] == ["map_index"] and calls.count("encode") >= 2
        result = btb.lookup(0x4000, 1)
        assert result.hit and result.target == 0x5000
