"""Tests for branch-trace persistence and replay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types import BranchType
from repro.workloads import (
    BranchRecord,
    TraceFormatError,
    TraceWorkload,
    make_workload,
    read_trace,
    record_workload,
    write_trace,
)
from repro.workloads.traceio import format_record, parse_record, trace_label

_record_strategy = st.builds(
    BranchRecord,
    pc=st.integers(min_value=0, max_value=(1 << 48) - 1),
    taken=st.booleans(),
    target=st.integers(min_value=0, max_value=(1 << 48) - 1),
    branch_type=st.sampled_from(list(BranchType)),
    gap=st.integers(min_value=0, max_value=500),
    syscall_after=st.booleans(),
)

#: Addresses whose hex spelling contains no letters — exactly the inputs the
#: old `int(x, 0)` parser silently read as *decimal* when unprefixed.
_letter_free_hex = st.text(alphabet="0123456789", min_size=1, max_size=12) \
    .map(lambda digits: int(digits, 16))

_letter_free_record_strategy = st.builds(
    BranchRecord,
    pc=_letter_free_hex,
    taken=st.booleans(),
    target=_letter_free_hex,
    branch_type=st.sampled_from(list(BranchType)),
    gap=st.integers(min_value=0, max_value=500),
    syscall_after=st.booleans(),
)


def _strip_0x(line):
    return ",".join(field[2:] if field.startswith("0x") else field
                    for field in line.split(","))


class TestRecordCodec:
    @given(_record_strategy)
    def test_format_parse_round_trip(self, record):
        assert parse_record(format_record(record)) == record

    @given(_record_strategy)
    def test_round_trip_without_0x_prefix(self, record):
        # The documented format makes the 0x prefix optional; stripping it
        # must never change what the line means.
        assert parse_record(_strip_0x(format_record(record))) == record

    @given(_letter_free_record_strategy)
    def test_round_trip_letter_free_hex(self, record):
        # Digit-only addresses are the regression surface: they are valid
        # in *both* bases, and the parser must pick hex per the format doc.
        assert parse_record(_strip_0x(format_record(record))) == record

    def test_minimal_line_uses_defaults(self):
        record = parse_record("0x400000,1,0x400040,cond")
        assert record.gap == 8
        assert record.syscall_after is False
        assert record.branch_type is BranchType.CONDITIONAL

    def test_bare_addresses_parse_as_hex(self):
        # `400510` is 0x400510 (never decimal 400510).
        record = parse_record("400510,0,400540,direct,3,1")
        assert record.pc == 0x400510
        assert record.target == 0x400540
        assert record.syscall_after is True

    def test_letter_bearing_bare_hex_accepted(self):
        # The old int(x, 0) parser rejected these outright.
        record = parse_record("4004f0,1,dead40,cond")
        assert record.pc == 0x4004F0
        assert record.target == 0xDEAD40

    @pytest.mark.parametrize("line", [
        "0o777,1,0x400040,cond",            # octal spelling rejected
        "0x400000,1,0o777,cond",            # octal target rejected
        "-400,1,0x400040,cond",             # signs are not hex digits
        "4_00,1,0x400040,cond",             # underscores are not hex digits
        "0x,1,0x400040,cond",               # empty digits
    ])
    def test_non_hex_address_spellings_raise_named_error(self, line):
        with pytest.raises(TraceFormatError, match="hexadecimal"):
            parse_record(line)

    @pytest.mark.parametrize("line", [
        "0x400000,1,0x400040",              # too few fields
        "0x400000,1,0x400040,weird",        # unknown type
        "notanumber,1,0x400040,cond",       # bad pc
        "0x400000,1,0x400040,cond,-3",      # negative gap
        "0x400000,1,0x400040,cond,x",       # bad gap
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(TraceFormatError):
            parse_record(line)

    def test_error_message_carries_line_number(self):
        with pytest.raises(TraceFormatError, match="line 7"):
            parse_record("0x1,1", lineno=7)


class TestTraceLabel:
    @pytest.mark.parametrize("path,label", [
        ("gcc.trace.gz", "gcc"),
        ("corpus/gcc.trace.gz", "gcc"),
        ("trace.v2.gz", "trace.v2"),        # interior dot is part of the name
        ("a/b/run.txt", "run"),
        ("traces\\gcc.trace", "gcc"),       # Windows separators
        ("C:\\corpus\\milc.trace.gz", "milc"),
        ("plain", "plain"),
        (".gz", ".gz"),                     # never strip down to nothing
    ])
    def test_label_derivation(self, path, label):
        assert trace_label(path) == label


class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        records = [BranchRecord(pc=0x1000 + 4 * i, taken=i % 2 == 0,
                                target=0x2000 + i, gap=i % 5)
                   for i in range(50)]
        path = str(tmp_path / "trace.txt")
        assert write_trace(records, path, header="unit test") == 50
        assert read_trace(path) == records

    def test_gzip_round_trip(self, tmp_path):
        records = [BranchRecord(pc=0x1000, taken=True, target=0x2000)] * 10
        path = str(tmp_path / "trace.txt.gz")
        write_trace(records, path)
        assert read_trace(path) == records

    def test_read_limit(self, tmp_path):
        records = [BranchRecord(pc=0x1000 + i, taken=True, target=0x2000)
                   for i in range(30)]
        path = str(tmp_path / "trace.txt")
        write_trace(records, path)
        assert len(read_trace(path, limit=7)) == 7

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0x10,1,0x20,cond\n# tail comment\n")
        assert len(read_trace(str(path))) == 1

    def test_malformed_file_raises_with_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0x10,1,0x20,cond\n0x10,1\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(str(path))


class TestTraceWorkload:
    def _records(self, n=20):
        return [BranchRecord(pc=0x1000 + 4 * i, taken=True, target=0x2000 + i)
                for i in range(n)]

    def test_requires_records(self):
        with pytest.raises(ValueError):
            TraceWorkload([])

    def test_replay_is_cyclic(self):
        workload = TraceWorkload(self._records(5), "unit")
        segment = workload.segment(12)
        assert [r.pc for r in segment[:5]] == [r.pc for r in segment[5:10]]

    def test_seed_offset_rotates_start(self):
        workload = TraceWorkload(self._records(10), "unit")
        first = workload.segment(3, seed_offset=0)
        rotated = workload.segment(3, seed_offset=1)
        assert [r.pc for r in first] != [r.pc for r in rotated]

    def test_stats_summarise_one_pass(self):
        workload = TraceWorkload(self._records(8), "unit")
        stats = workload.stats()
        assert stats.branches == 8
        assert stats.distinct_pcs == 8

    def test_len_and_name(self):
        workload = TraceWorkload(self._records(8), "myname")
        assert len(workload) == 8
        assert workload.name == "myname"

    def test_from_file_and_record_workload(self, tmp_path):
        source = make_workload("gcc", seed=1)
        path = str(tmp_path / "gcc.trace.gz")
        written = record_workload(source, 200, path)
        assert written == 200
        replay = TraceWorkload.from_file(path)
        assert len(replay) == 200
        assert replay.name == "gcc"
        # The replayed records must match what the generator produced.
        assert replay.segment(200) == source.segment(200)

    def test_from_file_custom_name_and_limit(self, tmp_path):
        source = make_workload("milc", seed=2)
        path = str(tmp_path / "milc.trace")
        record_workload(source, 100, path)
        replay = TraceWorkload.from_file(path, name="custom", limit=40)
        assert replay.name == "custom"
        assert len(replay) == 40

    def test_syscall_rate_exposed_via_profile(self):
        workload = TraceWorkload(self._records(), "unit",
                                 syscall_rate_per_million_cycles=3.5)
        assert workload.profile.privilege_switches_per_million_cycles == 3.5


class TestTraceReplayOnCore:
    def test_trace_workload_drives_single_thread_core(self, tmp_path):
        from repro.core import make_bpu
        from repro.cpu import SingleThreadCore, fpga_prototype

        source = make_workload("hmmer", seed=3)
        path = str(tmp_path / "hmmer.trace.gz")
        record_workload(source, 2_000, path)
        trace = TraceWorkload.from_file(path)
        config = fpga_prototype("gshare")
        bpu = make_bpu("gshare", "noisy_xor_bp", btb_sets=config.btb_sets,
                       btb_ways=config.btb_ways)
        core = SingleThreadCore(config, bpu, [trace], time_scale=200.0)
        result = core.run(target_branches=1_500, mechanism_name="noisy_xor_bp")
        stats = result.thread(trace.name)
        assert stats.branches == 1_500
        assert stats.cycles > 0
        assert 0.0 <= stats.direction_accuracy <= 1.0

    def test_marker_free_trace_stays_marker_free(self, tmp_path):
        # A trace without markers (and the 0.0 syscall rate every trace
        # profile carries) must never synthesise privilege switches.
        from repro.core import make_bpu
        from repro.cpu import SingleThreadCore, fpga_prototype

        path = str(tmp_path / "plain.trace.gz")
        write_trace(make_workload("gcc", seed=3).segment(1_200), path)
        trace = TraceWorkload.from_file(path)
        config = fpga_prototype("gshare")
        for engine in ("scalar", "batched"):
            bpu = make_bpu("gshare", "noisy_xor_bp", seed=11,
                           btb_sets=config.btb_sets, btb_ways=config.btb_ways)
            core = SingleThreadCore(config, bpu, [trace], time_scale=200.0)
            result = core.run(target_branches=900, warmup_branches=200,
                              mechanism_name="noisy_xor_bp", engine=engine)
            assert result.privilege_switches == 0
            assert result.thread(trace.name).syscalls == 0
