"""The paper's benchmark pairings (Table 3).

Twelve two-benchmark combinations are defined for the single-threaded core
(a foreground *target* benchmark time-sharing the core with a *background*
benchmark under the OS scheduler) and twelve for the SMT-2 core (both
benchmarks running concurrently on the two hardware threads).  Quad
combinations for the SMT-4 flush study (Figure 2) are formed by merging
consecutive SMT-2 pairs, since the paper does not list its SMT-4 sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .generator import SyntheticWorkload
from .spec_profiles import get_profile

__all__ = [
    "BenchmarkPair",
    "SINGLE_THREAD_PAIRS",
    "SMT2_PAIRS",
    "SMT4_QUADS",
    "UnknownPairSetError",
    "case_names",
    "get_pair",
    "make_pair_workloads",
]


class UnknownPairSetError(KeyError):
    """Raised for an unknown pair-set name, listing the valid sets.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working, but renders a proper message (the repo's strict
    named-source convention, like ``REPRO_SCALE``/``REPRO_JOBS``).
    """

    def __init__(self, which: str, valid: Tuple[str, ...]) -> None:
        super().__init__(which)
        self.which = which
        self.valid = valid

    def __str__(self) -> str:
        options = ", ".join(sorted(self.valid))
        return f"unknown pair set {self.which!r} (valid sets: {options})"


@dataclass(frozen=True)
class BenchmarkPair:
    """One Table 3 case.

    Attributes:
        case: case label (``case1`` ... ``case12``).
        benchmarks: benchmark names; the first is the *target* benchmark whose
            execution time the single-thread experiments measure.
    """

    case: str
    benchmarks: Tuple[str, ...]

    @property
    def target(self) -> str:
        """The foreground/target benchmark."""
        return self.benchmarks[0]

    @property
    def background(self) -> Tuple[str, ...]:
        """The co-running benchmark(s)."""
        return self.benchmarks[1:]

    def label(self) -> str:
        """Human-readable label, e.g. ``gcc+calculix``."""
        return "+".join(self.benchmarks)


#: Table 3, column "Single-threaded core".
SINGLE_THREAD_PAIRS: List[BenchmarkPair] = [
    BenchmarkPair("case1", ("gcc", "calculix")),
    BenchmarkPair("case2", ("milc", "povray")),
    BenchmarkPair("case3", ("bzip2_source", "soplex")),
    BenchmarkPair("case4", ("namd", "sphinx3")),
    BenchmarkPair("case5", ("hmmer", "GemsFDTD")),
    BenchmarkPair("case6", ("gobmk", "libquantum")),
    BenchmarkPair("case7", ("gromacs", "GemsFDTD")),
    BenchmarkPair("case8", ("mcf", "astar")),
    BenchmarkPair("case9", ("soplex", "hmmer")),
    BenchmarkPair("case10", ("libquantum", "calculix")),
    BenchmarkPair("case11", ("mcf", "perlbench")),
    BenchmarkPair("case12", ("bwaves", "namd")),
]

#: Table 3, column "SMT-2".
SMT2_PAIRS: List[BenchmarkPair] = [
    BenchmarkPair("case1", ("zeusmp", "lbm")),
    BenchmarkPair("case2", ("zeusmp", "dealII")),
    BenchmarkPair("case3", ("bwaves", "milc")),
    BenchmarkPair("case4", ("leslie3d", "gromacs")),
    BenchmarkPair("case5", ("dealII", "sjeng")),
    BenchmarkPair("case6", ("gromacs", "astar")),
    BenchmarkPair("case7", ("gobmk", "h264ref")),
    BenchmarkPair("case8", ("libquantum", "milc")),
    BenchmarkPair("case9", ("gobmk", "gromacs")),
    BenchmarkPair("case10", ("milc", "bzip2_source")),
    BenchmarkPair("case11", ("libquantum", "omnetpp")),
    BenchmarkPair("case12", ("zeusmp", "gobmk")),
]

#: SMT-4 combinations formed from consecutive SMT-2 pairs (Figure 2).
SMT4_QUADS: List[BenchmarkPair] = [
    BenchmarkPair(f"quad{i + 1}",
                  SMT2_PAIRS[2 * i].benchmarks + SMT2_PAIRS[2 * i + 1].benchmarks)
    for i in range(len(SMT2_PAIRS) // 2)
]

_PAIR_SETS: Dict[str, List[BenchmarkPair]] = {
    "single": SINGLE_THREAD_PAIRS,
    "smt2": SMT2_PAIRS,
    "smt4": SMT4_QUADS,
}


def _pair_set(which: str) -> List[BenchmarkPair]:
    try:
        return _PAIR_SETS[which]
    except KeyError:
        raise UnknownPairSetError(which, tuple(_PAIR_SETS)) from None


def case_names(which: str = "single") -> List[str]:
    """Case labels of a pair set (``single``, ``smt2`` or ``smt4``).

    Raises:
        UnknownPairSetError: for a pair-set name outside those three.
    """
    return [pair.case for pair in _pair_set(which)]


def get_pair(case: str, which: str = "single") -> BenchmarkPair:
    """Look up a case by label.

    Raises:
        UnknownPairSetError: when the pair-set name is unknown.
        KeyError: when the case label is unknown.
    """
    for pair in _pair_set(which):
        if pair.case == case:
            return pair
    raise KeyError(f"unknown case {case!r} in pair set {which!r}")


#: Address-space offset between the co-running programs of a pair.  Distinct
#: programs place their hot branches at unrelated addresses, so branches from
#: different contexts should collide in the prediction tables only
#: incidentally (destructively as often as constructively), not line up
#: site-for-site.  The stride is word-aligned and deliberately not a multiple
#: of any table size so that it also perturbs the low-order index bits.
_SLOT_TEXT_STRIDE = 0x0061_A8C4


def make_pair_workloads(pair: BenchmarkPair, seed: int = 0) -> List[SyntheticWorkload]:
    """Instantiate the workloads of a pair with per-benchmark seeds.

    Each slot of the pair gets its own text-segment base address (see
    :data:`_SLOT_TEXT_STRIDE`) so that co-running programs do not
    systematically alias onto the same predictor entries, mirroring the
    unrelated code layouts of real SPEC pairs.

    Benchmark names carrying the ``trace:`` prefix are resolved through
    :func:`repro.workloads.registry.get_registry` into replayed
    :class:`~repro.workloads.traceio.TraceWorkload` instances (the trace
    corpus under ``REPRO_TRACE_DIR``); a recorded trace has fixed
    addresses, so the per-slot text stride does not apply to it.
    """
    workloads = []
    for i, name in enumerate(pair.benchmarks):
        if name.startswith("trace:"):
            from .registry import get_registry

            workloads.append(get_registry().make_workload(name))
        else:
            workloads.append(SyntheticWorkload(get_profile(name), seed=seed + i,
                                               text_base=0x0040_0000 + i * _SLOT_TEXT_STRIDE))
    return workloads
