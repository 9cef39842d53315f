"""Tests for the isolation mechanisms attached to predictor storage."""

import pytest

from repro.core.encoding import SboxEncoder
from repro.core.isolation import (
    BaselineIsolation,
    CompleteFlushIsolation,
    NoisyXorIsolation,
    PreciseFlushIsolation,
    XorContentIsolation,
)
from repro.core.keys import KeyManager
from repro.predictors.table import PredictorTable
from repro.types import Privilege


class TestBaselineIsolation:
    def test_identity_transforms(self):
        iso = BaselineIsolation(KeyManager(seed=1))
        table = PredictorTable(16, 8, isolation=iso)
        assert iso.map_index(5, 4, 0, table) == 5
        assert iso.encode(0xAB, 8, 0, table, 5) == 0xAB
        assert iso.decode(0xAB, 8, 0, table, 5) == 0xAB

    def test_switches_do_not_change_behaviour(self):
        iso = BaselineIsolation(KeyManager(seed=1))
        table = PredictorTable(16, 8, isolation=iso)
        table.write(2, 7)
        iso.on_context_switch(0)
        iso.on_privilege_switch(0, Privilege.KERNEL)
        assert table.read(2) == 7

    def test_switches_are_counted(self):
        iso = BaselineIsolation(KeyManager(seed=1))
        iso.on_context_switch(0)
        iso.on_privilege_switch(0, Privilege.KERNEL)
        assert iso.key_manager.context_switches == 1
        assert iso.key_manager.privilege_switches == 1

    def test_flags(self):
        iso = BaselineIsolation()
        assert not iso.protects_content
        assert not iso.protects_index
        assert not iso.flush_based
        assert not iso.tracks_owner


class TestFlushMechanisms:
    def test_complete_flush_flushes_every_registered_table(self):
        iso = CompleteFlushIsolation(KeyManager(seed=1))
        tables = [PredictorTable(8, 8, isolation=iso) for _ in range(3)]
        for table in tables:
            table.write(1, 42)
        iso.on_context_switch(0)
        assert all(table.read(1) == 0 for table in tables)
        assert iso.flush_count == 1

    def test_complete_flush_ignores_privilege_by_default(self):
        iso = CompleteFlushIsolation(KeyManager(seed=1))
        table = PredictorTable(8, 8, isolation=iso)
        table.write(1, 42)
        iso.on_privilege_switch(0, Privilege.KERNEL)
        assert table.read(1) == 42

    def test_complete_flush_on_privilege_switch_when_enabled(self):
        iso = CompleteFlushIsolation(KeyManager(seed=1), flush_on_privilege_switch=True)
        table = PredictorTable(8, 8, isolation=iso)
        table.write(1, 42)
        iso.on_privilege_switch(0, Privilege.KERNEL)
        assert table.read(1) == 0

    def test_precise_flush_only_affects_switching_thread(self):
        iso = PreciseFlushIsolation(KeyManager(seed=1))
        table = PredictorTable(8, 8, isolation=iso)
        table.write(1, 42, thread_id=0)
        table.write(2, 24, thread_id=1)
        iso.on_context_switch(0)
        assert table.read(1, 0) == 0
        assert table.read(2, 1) == 24

    def test_precise_flush_tracks_owner(self):
        assert PreciseFlushIsolation(KeyManager()).tracks_owner

    def test_registering_same_structure_twice_is_idempotent(self):
        iso = CompleteFlushIsolation(KeyManager(seed=1))
        table = PredictorTable(8, 8, isolation=iso)
        iso.register_flushable(table)
        assert iso.flushables.count(table) == 1

    def test_flushable_without_flush_thread_still_supported(self):
        class OnlyFlush:
            def __init__(self):
                self.flushed = 0

            def flush(self):
                self.flushed += 1

        iso = PreciseFlushIsolation(KeyManager(seed=1))
        structure = OnlyFlush()
        iso.register_flushable(structure)
        iso.on_context_switch(0)
        assert structure.flushed == 1


class TestXorContentIsolation:
    def test_roundtrip_for_owner_thread(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        encoded = iso.encode(0x1234, 16, 0, table, 3)
        assert encoded != 0x1234
        assert iso.decode(encoded, 16, 0, table, 3) == 0x1234

    def test_index_not_transformed(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        assert iso.map_index(9, 4, 0, table) == 9

    def test_per_table_keys_differ(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table_a = PredictorTable(16, 16, name="a", isolation=iso)
        table_b = PredictorTable(16, 16, name="b", isolation=iso)
        assert iso.encode(0x1234, 16, 0, table_a, 3) != iso.encode(0x1234, 16, 0, table_b, 3)

    def test_row_diversification_changes_key_per_row(self):
        iso = XorContentIsolation(KeyManager(seed=2), row_diversified=True)
        table = PredictorTable(16, 16, isolation=iso)
        assert iso.encode(0x1234, 16, 0, table, 1) != iso.encode(0x1234, 16, 0, table, 2)

    def test_without_row_diversification_rows_share_key(self):
        iso = XorContentIsolation(KeyManager(seed=2), row_diversified=False)
        table = PredictorTable(16, 16, isolation=iso)
        assert iso.encode(0x1234, 16, 0, table, 1) == iso.encode(0x1234, 16, 0, table, 2)

    def test_context_switch_changes_encoding(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        before = iso.encode(0x1234, 16, 0, table, 3)
        iso.on_context_switch(0)
        assert iso.encode(0x1234, 16, 0, table, 3) != before

    def test_privilege_switch_changes_encoding(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        before = iso.encode(0x1234, 16, 0, table, 3)
        iso.on_privilege_switch(0, Privilege.KERNEL)
        assert iso.encode(0x1234, 16, 0, table, 3) != before

    def test_other_threads_unaffected_by_switch(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        before = iso.encode(0x1234, 16, 1, table, 3)
        iso.on_context_switch(0)
        assert iso.encode(0x1234, 16, 1, table, 3) == before

    def test_switch_drops_only_the_switching_threads_keys(self):
        iso = XorContentIsolation(KeyManager(seed=2))
        table = PredictorTable(16, 16, isolation=iso)
        for thread in (0, 1):
            iso.encode(0x1234, 16, thread, table, 3)
        kept = iso._key_cache[1]
        iso.on_context_switch(0)
        assert 0 not in iso._key_cache
        assert iso._key_cache[1] is kept

    def test_alternative_encoder_roundtrip(self):
        iso = XorContentIsolation(KeyManager(seed=2), encoder=SboxEncoder())
        table = PredictorTable(16, 16, isolation=iso)
        encoded = iso.encode(0x0FED, 16, 0, table, 0)
        assert iso.decode(encoded, 16, 0, table, 0) == 0x0FED

    def test_flags(self):
        iso = XorContentIsolation(KeyManager())
        assert iso.protects_content and not iso.protects_index


class _MaskCacheOwner:
    """A structure registering a fused-mask cache, counting rebuilds."""

    def __init__(self, log=None):
        self.cache = {}
        self.rebuilt = [] if log is None else log

    def rebuild(self, thread_id):
        self.rebuilt.append((id(self), thread_id))


class TestWeakRegistries:
    """Isolation policies never keep the structures they protect alive."""

    def test_dead_flushables_are_skipped_and_pruned(self):
        iso = CompleteFlushIsolation(KeyManager(seed=1))
        kept = PredictorTable(8, 8, isolation=iso)
        dropped = PredictorTable(8, 8, isolation=iso)
        assert iso.flushables == [kept, dropped]
        del dropped
        assert iso.flushables == [kept]
        kept.write(1, 42)
        iso.on_context_switch(0)
        assert kept.read(1) == 0
        later = PredictorTable(8, 8, isolation=iso)
        assert iso.flushables == [kept, later]
        assert len(iso._flushables) == 2

    def test_dead_mask_cache_is_skipped_on_refresh(self):
        iso = XorContentIsolation(KeyManager(seed=3))
        log = []
        live, dead = _MaskCacheOwner(log), _MaskCacheOwner(log)
        live_id, dead_id = id(live), id(dead)
        iso.register_fast_mask_cache(live, live.cache, live.rebuild)
        iso.register_fast_mask_cache(dead, dead.cache, dead.rebuild)
        iso.refresh_fast_masks(0)
        assert log == [(live_id, 0), (dead_id, 0)]
        del dead
        iso.refresh_fast_masks(1)  # must not call a dead rebuilder
        assert log == [(live_id, 0), (dead_id, 0), (live_id, 1)]

    def test_registration_drops_dead_entries(self):
        iso = XorContentIsolation(KeyManager(seed=3))
        first = _MaskCacheOwner()
        iso.register_fast_mask_cache(first, first.cache, first.rebuild)
        del first
        second = _MaskCacheOwner()
        iso.register_fast_mask_cache(second, second.cache, second.rebuild)
        assert list(iso._mask_caches) == [id(second)]

    def test_reused_owner_id_gets_the_new_entry(self):
        # A freed owner's id may be handed to a new object; the new
        # registration must own that slot, not the dead rebuilder.
        iso = XorContentIsolation(KeyManager(seed=3))
        token = object()
        old = _MaskCacheOwner()
        iso.register_fast_mask_cache(token, old.cache, old.rebuild)
        del old
        new = _MaskCacheOwner()
        iso.register_fast_mask_cache(token, new.cache, new.rebuild)
        new.cache[0] = "masks"
        iso.on_context_switch(0)
        assert new.cache == {}
        iso.refresh_fast_masks(0)
        assert new.rebuilt == [(id(new), 0)]
        assert iso._mask_caches[id(token)][0] is new.cache


class TestNoisyXorIsolation:
    def test_index_is_remapped_per_thread(self):
        iso = NoisyXorIsolation(KeyManager(seed=5))
        table = PredictorTable(256, 8, isolation=iso)
        mapped0 = iso.map_index(10, 8, 0, table)
        mapped1 = iso.map_index(10, 8, 1, table)
        assert mapped0 != 10 or mapped1 != 10
        assert mapped0 != mapped1

    def test_mapping_is_a_bijection_per_thread(self):
        iso = NoisyXorIsolation(KeyManager(seed=5))
        table = PredictorTable(64, 8, isolation=iso)
        mapped = {iso.map_index(i, 6, 0, table) for i in range(64)}
        assert mapped == set(range(64))

    def test_mapping_changes_after_switch(self):
        iso = NoisyXorIsolation(KeyManager(seed=5))
        table = PredictorTable(256, 8, isolation=iso)
        before = iso.map_index(10, 8, 0, table)
        iso.on_context_switch(0)
        after = iso.map_index(10, 8, 0, table)
        # The key is random: allow the rare equal mapping but require the full
        # permutation to change.
        permutation_before = [before]
        assert any(iso.map_index(i, 8, 0, table) != (i ^ 10 ^ before)
                   for i in range(16)) or after != before

    def test_zero_width_index_untouched(self):
        iso = NoisyXorIsolation(KeyManager(seed=5))
        table = PredictorTable(2, 8, isolation=iso)
        assert iso.map_index(0, 0, 0, table) == 0

    def test_flags(self):
        iso = NoisyXorIsolation(KeyManager())
        assert iso.protects_content and iso.protects_index
