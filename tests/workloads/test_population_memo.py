"""The per-process population memo of :class:`SyntheticWorkload`.

Workloads with the same ``(profile, seed, text_base)`` share one immutable
population; every stream keeps its own mutable state, so sharing must never
be observable in the records.
"""

import itertools

from repro.workloads import make_workload, record_workload
from repro.workloads.generator import SyntheticWorkload, _population
from repro.workloads.pairs import BenchmarkPair, make_pair_workloads
from repro.workloads.registry import TRACE_DIR_VAR


def _take(stream, batches):
    return [list(batch) for batch in itertools.islice(stream, batches)]


def test_same_key_shares_one_population():
    first = SyntheticWorkload("gcc", seed=5)
    second = SyntheticWorkload("gcc", seed=5)
    assert first._population is second._population


def test_interleaved_streams_of_one_key_are_identical():
    first = SyntheticWorkload("gobmk", seed=3)
    second = SyntheticWorkload("gobmk", seed=3)
    a, b = first.record_batches(128), second.record_batches(128)
    # Advance both streams alternately: pattern phases, indirect counters
    # and RNG state are per stream, never per population.
    out_a, out_b = [], []
    for _ in range(12):
        out_a.append(next(a))
        out_b.append(next(b))
        out_b.append(next(b))
        out_a.append(next(a))
    assert out_a == out_b
    fresh = _take(SyntheticWorkload("gobmk", seed=3).record_batches(128), 24)
    assert out_a == fresh


def test_mutating_sites_does_not_leak_into_another_stream():
    reference = _take(make_workload("mcf", seed=9).record_batches(256), 8)
    victim = make_workload("mcf", seed=9)
    sites = victim.sites
    for site in sites:
        site.pc ^= 0xFFF0
        site.param = 0.0
    sites.clear()
    assert _take(make_workload("mcf", seed=9).record_batches(256), 8) \
        == reference
    assert _take(victim.record_batches(256), 8) == reference
    # Every call hands out fresh, equal site objects.
    again = victim.sites
    assert again == make_workload("mcf", seed=9).sites
    assert again[0] is not victim.sites[0]


def test_keys_differing_in_seed_or_text_base_do_not_collide():
    base = SyntheticWorkload("gcc", seed=1, text_base=0x0040_0000)
    other_seed = SyntheticWorkload("gcc", seed=2, text_base=0x0040_0000)
    other_base = SyntheticWorkload("gcc", seed=1, text_base=0x0100_0000)
    assert base._population is not other_seed._population
    assert base._population is not other_base._population
    assert base._population.kind != other_seed._population.kind
    # Same seed, shifted segment: the layout moves with the base address.
    shift = 0x0100_0000 - 0x0040_0000
    assert [pc + shift for pc in base._population.pc] \
        == list(other_base._population.pc)


def test_pair_slots_get_distinct_populations():
    pair = BenchmarkPair("case-x", ("gcc", "gcc"))
    first, second = make_pair_workloads(pair, seed=4)
    assert first._population is not second._population
    again = make_pair_workloads(pair, seed=4)
    assert again[0]._population is first._population
    assert again[1]._population is second._population


def test_trace_workloads_bypass_the_memo(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    record_workload(make_workload("gcc", seed=1), 60,
                    str(corpus / "alpha.trace.gz"))
    monkeypatch.setenv(TRACE_DIR_VAR, str(corpus))
    before = _population.cache_info()
    workloads = make_pair_workloads(
        BenchmarkPair("case-t", ("trace:alpha", "trace:alpha")), seed=0)
    after = _population.cache_info()
    assert [w.name for w in workloads] == ["trace:alpha", "trace:alpha"]
    assert not any(hasattr(w, "_population") for w in workloads)
    assert (after.hits, after.misses) == (before.hits, before.misses)
