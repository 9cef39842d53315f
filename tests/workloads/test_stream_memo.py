"""The per-process stream memo behind ``SyntheticWorkload.record_batches``.

A stream is a pure function of ``(profile, seed, text_base, n,
seed_offset)``; the memo keeps the batches generated so far and replays
them to every caller, extending them lazily.  None of that may be
observable in the records: every replay must equal a freshly generated
stream.  The scalar oracle (``records()``) and recorded traces stay
outside the memo.
"""

import collections
import itertools
import os
import sys
import threading

import pytest

from repro.cpu.config import fpga_prototype
from repro.cpu.core import SingleThreadCore, record_batch_stream
from repro.experiments.executor import RunResultCache, SweepExecutor
from repro.experiments.manifest import build_manifest
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.workloads import make_workload, record_workload
from repro.workloads.generator import (_STREAM_MEMO_SIZE, SyntheticWorkload,
                                       _streams)
from repro.workloads.pairs import BenchmarkPair, make_pair_workloads
from repro.workloads.registry import TRACE_DIR_VAR


@pytest.fixture(autouse=True)
def empty_memo():
    _streams.clear()
    yield
    _streams.clear()


@pytest.fixture
def generated(monkeypatch):
    """Counts fresh stream generations per stream key."""
    counts = collections.Counter()
    generate = SyntheticWorkload._generate

    def spy(self, n, seed_offset):
        counts[(self.name, self.seed, self._text_base, n, seed_offset)] += 1
        return generate(self, n, seed_offset)

    monkeypatch.setattr(SyntheticWorkload, "_generate", spy)
    return counts


def _take(stream, batches):
    return list(itertools.islice(stream, batches))


def _fresh(workload, n, seed_offset, batches):
    return _take(workload._generate(n, seed_offset), batches)


def test_replay_equals_fresh_stream_across_lazy_extension():
    workload = make_workload("gcc", seed=4)
    first = _take(workload.record_batches(256, 1), 3)
    # A second cursor replays the three cached batches, then runs past
    # the cached end and extends the stream.
    second = _take(workload.record_batches(256, 1), 7)
    fresh = _fresh(make_workload("gcc", seed=4), 256, 1, 7)
    assert first == fresh[:3]
    assert [record for batch in second for record in batch] \
        == [record for batch in fresh for record in batch]
    assert second[0] is first[0]  # replayed, not regenerated


def test_live_cursors_of_one_key_do_not_disturb_each_other():
    workload = make_workload("gobmk", seed=2)
    reference = _fresh(workload, 128, 0, 16)
    ahead = workload.record_batches(128)
    ahead_out = _take(ahead, 5)
    behind = workload.record_batches(128)
    behind_out = []
    for _ in range(11):
        behind_out.append(next(behind))
        ahead_out.append(next(ahead))
    behind_out.extend(_take(behind, 5))
    assert ahead_out == reference
    assert behind_out == reference


def test_evicted_stream_regenerates_identically(generated):
    workload = make_workload("mcf", seed=9)
    before = _take(workload.record_batches(256), 4)
    for seed in range(_STREAM_MEMO_SIZE):
        _take(make_workload("milc", seed=seed).record_batches(256), 1)
    after = _take(workload.record_batches(256), 4)
    assert after == before
    assert after[0] is not before[0]
    assert generated[("mcf", 9, 0x0040_0000, 256, 0)] == 2


def test_memo_never_exceeds_its_bound():
    for seed in range(3 * _STREAM_MEMO_SIZE):
        cursor = make_workload("povray", seed=seed).record_batches(128)
        next(cursor)
        assert len(_streams) <= _STREAM_MEMO_SIZE
    assert len(_streams) == _STREAM_MEMO_SIZE


@pytest.mark.parametrize("other", [
    dict(name="gcc", seed=2, text_base=0x0040_0000, n=256, seed_offset=0),
    dict(name="gcc", seed=1, text_base=0x0100_0000, n=256, seed_offset=0),
    dict(name="gcc", seed=1, text_base=0x0040_0000, n=300, seed_offset=0),
    dict(name="gcc", seed=1, text_base=0x0040_0000, n=256, seed_offset=1),
    dict(name="mcf", seed=1, text_base=0x0040_0000, n=256, seed_offset=0),
], ids=["seed", "text_base", "n", "seed_offset", "profile"])
def test_keys_differing_in_one_field_do_not_collide(other):
    base = SyntheticWorkload("gcc", seed=1, text_base=0x0040_0000)
    _take(base.record_batches(256, 0), 3)
    workload = SyntheticWorkload(other["name"], seed=other["seed"],
                                 text_base=other["text_base"])
    replayed = _take(workload.record_batches(other["n"], other["seed_offset"]),
                     3)
    assert replayed == _fresh(workload, other["n"], other["seed_offset"], 3)
    assert replayed != _fresh(base, 256, 0, 3)


def test_threads_replaying_one_stream_see_the_fresh_stream():
    # More threads than cores and a tiny switch interval, so cursors race
    # to extend the shared stream; a lost or doubled extension would shift
    # some thread's records.
    workload = make_workload("gcc", seed=6)
    reference = _fresh(workload, 16, 0, 200)
    outputs = [None] * 16

    def replay(slot):
        outputs[slot] = _take(workload.record_batches(16), 200)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=replay, args=(slot,))
                   for slot in range(len(outputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(output == reference for output in outputs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_with_an_empty_memo():
    _take(make_workload("gcc", seed=6).record_batches(64), 1)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report the memo size, then leave at once
        os.close(read)
        os.write(write, str(len(_streams)).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        child_size = pipe.read()
    os.waitpid(pid, 0)
    assert child_size == "0"
    assert len(_streams) == 1


def test_records_bypass_the_memo():
    workload = make_workload("gcc", seed=1)
    segment = workload.segment(3000, seed_offset=1)
    assert not _streams
    assert [(r.pc, r.taken, r.target, r.branch_type, r.instructions,
             r.syscall_after) for r in segment] \
        == [record for batch in _take(workload.record_batches(256, 1), 20)
            for record in batch][:3000]


def test_scalar_engine_never_reads_the_memo():
    pair = BenchmarkPair("case-s", ("gcc", "mcf"))
    config = fpga_prototype()
    core = SingleThreadCore(config, build_bpu(config, "xor_bp", seed=3),
                            make_pair_workloads(pair, seed=5))
    core.run(800, warmup_branches=200, engine="scalar")
    assert not _streams


def test_trace_workloads_bypass_the_memo(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    record_workload(make_workload("gcc", seed=1), 600,
                    str(corpus / "alpha.trace.gz"))
    _streams.clear()
    monkeypatch.setenv(TRACE_DIR_VAR, str(corpus))
    workload, = make_pair_workloads(BenchmarkPair("case-t", ("trace:alpha",)))
    first = _take(record_batch_stream(workload, 256), 4)
    assert _take(record_batch_stream(workload, 256), 4) == first
    assert not _streams


def test_stream_order_generates_each_stream_at_most_twice(generated):
    # Figure 1 plans every mechanism over every single-thread pair,
    # mechanism-major: more streams than the memo holds, so manifest order
    # would regenerate each stream once per mechanism.
    scale = ExperimentScale(
        time_scale=200.0, smt_time_scale=600.0, syscall_time_scale=25.0,
        st_target_branches=400, st_warmup_branches=100,
        smt_instructions=4_000, smt_warmup_instructions=1_000, seed=7)
    manifest = build_manifest(["figure1"], scale=scale)
    specs = list(manifest.unique_cases().values())
    executor = SweepExecutor(jobs=1, cache=RunResultCache(store=False))
    executor.run_specs(specs)
    assert executor.simulated == len(specs)
    assert len(generated) > _STREAM_MEMO_SIZE
    assert max(generated.values()) <= 2

