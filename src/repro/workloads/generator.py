"""Deterministic synthetic branch-trace generator.

Given a :class:`repro.workloads.spec_profiles.BenchmarkProfile`, the generator
builds a static population of branch sites (loops, biased branches,
history-correlated branches, hard branches, calls/returns and indirect jumps)
laid out over a synthetic text segment, then emits an endless, reproducible
stream of :class:`repro.workloads.trace.BranchRecord` whose aggregate
behaviour matches the profile: branch density, taken ratio, working-set size,
predictability mix and BTB/RAS traffic.

The stream is driven by a seeded :class:`random.Random`, so the same
(profile, seed) pair always produces the same trace — experiments are
reproducible and paired comparisons (Baseline vs. protected) see identical
workloads.

The static population is a pure function of ``(profile, seed, text_base)``,
so it is built once per process and shared: every mechanism of a paired
comparison replays the same population.  It is held as immutable per-site
columns (:class:`_Population`); each stream keeps its own mutable state.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Tuple

from ..types import BranchType
from .spec_profiles import BenchmarkProfile, get_profile
from .trace import BranchRecord

__all__ = ["BranchSite", "SyntheticWorkload", "make_workload"]

# Behaviour classes of conditional branch sites.
_LOOP = 0
_BIASED = 1
_PATTERN = 2
_RANDOM = 3


def _stable_hash(text: str) -> int:
    """Deterministic string hash (``hash()`` is salted per process)."""
    value = 0x811C9DC5
    for ch in text:
        value ^= ord(ch)
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


@dataclass
class BranchSite:
    """A static conditional branch site.

    Attributes:
        pc: instruction address.
        target: taken-path target address.
        kind: behaviour class (loop, biased, pattern, random).
        param: class parameter (trip count, bias, local pattern, ...).
        aux: secondary parameter (dominant direction, pattern period, ...).
    """

    pc: int
    target: int
    kind: int
    param: float
    aux: float = 0.0


class _Population(NamedTuple):
    """Immutable static population of one ``(profile, seed, text_base)``.

    Conditional sites are stored column-wise (one tuple per field, indexed
    by site), which is also the layout the record loop reads.  ``aux`` is
    the site's secondary parameter as a bool (dominant direction) and
    ``period`` the same parameter as an int (a pattern site's period).
    """

    pc: Tuple[int, ...]
    target: Tuple[int, ...]
    kind: Tuple[int, ...]
    param: Tuple[float, ...]
    param_int: Tuple[int, ...]
    aux: Tuple[bool, ...]
    period: Tuple[int, ...]
    cumulative_weights: Tuple[float, ...]
    call_sites: Tuple[int, ...]
    indirect_sites: Tuple[Tuple[int, Tuple[int, ...]], ...]


#: Bound of the per-process population memo.  A full ``run all`` manifest
#: plans 44 distinct populations (132 with three repetitions), so one
#: process never rebuilds a population it has already built.
_POPULATION_MEMO_SIZE = 160


@lru_cache(maxsize=_POPULATION_MEMO_SIZE)
def _population(profile: BenchmarkProfile, seed: int,
                text_base: int) -> _Population:
    """Build (once per process) the static population of one workload."""
    rng = random.Random((_stable_hash(profile.name) ^ (seed * 0x9E3779B1))
                        & 0xFFFFFFFF)
    n = profile.static_conditional
    counts = [int(round(n * f)) for f in (profile.loop_fraction,
                                          profile.biased_fraction,
                                          profile.pattern_fraction)]
    counts.append(max(0, n - sum(counts)))
    kinds = ([_LOOP] * counts[0] + [_BIASED] * counts[1]
             + [_PATTERN] * counts[2] + [_RANDOM] * counts[3])
    rng.shuffle(kinds)

    sites = []
    for i, kind in enumerate(kinds):
        # Spread sites over a text segment with function-sized clustering
        # so that BTB sets and tags are exercised realistically.
        pc = (text_base + (i // 24) * 0x400 + (i % 24) * 12
              + rng.randrange(3) * 4)
        target = pc + rng.choice([-1, 1]) * rng.randrange(16, 512, 4)
        if kind == _LOOP:
            trip = max(2, int(rng.expovariate(1.0 / profile.mean_trip_count)) + 2)
            site = (pc, pc - rng.randrange(16, 256, 4), _LOOP, float(trip), 0)
        elif kind == _BIASED:
            # Strongly biased branches skew towards not-taken (guard/error
            # checks), keeping the overall taken ratio near the ~60% that
            # real integer codes exhibit once loop back-edges are added.
            dominant_taken = rng.random() < 0.40
            site = (pc, target, _BIASED, profile.bias_strength,
                    1 if dominant_taken else 0)
        elif kind == _PATTERN:
            # A short repeating local outcome pattern (e.g. TTNTN...): fully
            # deterministic, so history-based predictors learn it while a
            # lone 2-bit counter cannot.
            period = rng.randrange(2, max(3, min(profile.pattern_history, 8) + 1))
            pattern = 0
            while pattern in (0, (1 << period) - 1):
                pattern = rng.getrandbits(period)
            site = (pc, target, _PATTERN, float(pattern), period)
        else:
            bias = rng.uniform(0.70, 0.90)
            dominant_taken = rng.random() < 0.5
            site = (pc, target, _RANDOM, bias, 1 if dominant_taken else 0)
        sites.append(site)

    # Zipf-like reuse weights over a shuffled hotness order.
    order = list(range(len(sites)))
    rng.shuffle(order)
    weights = [0.0] * len(sites)
    for rank, site_index in enumerate(order):
        weights[site_index] = 1.0 / ((rank + 1) ** profile.locality)

    # Call and indirect-branch sites.
    call_sites = tuple(text_base + 0x100000 + i * 0x200
                       for i in range(profile.static_calls))
    indirect_sites = []
    for i in range(profile.static_indirect):
        pc = text_base + 0x180000 + i * 0x140
        indirect_sites.append((pc, tuple(pc + 0x40 + t * 0x80
                                          for t in range(profile.indirect_targets))))

    pcs, targets, site_kinds, params, periods = zip(*sites)
    return _Population(
        pc=pcs, target=targets, kind=site_kinds, param=params,
        param_int=tuple(int(p) for p in params),
        aux=tuple(bool(a) for a in periods), period=periods,
        cumulative_weights=tuple(itertools.accumulate(weights)),
        call_sites=call_sites, indirect_sites=tuple(indirect_sites))


class SyntheticWorkload:
    """Reproducible branch-trace stream for one benchmark profile.

    Args:
        profile: the benchmark behaviour profile (or its Table 3 name).
        seed: RNG seed; combined with the profile name so different
            benchmarks sharing a seed still diverge.
        text_base: base address of the synthetic text segment.
    """

    def __init__(self, profile, seed: int = 0, text_base: int = 0x0040_0000) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile: BenchmarkProfile = profile
        self.seed = seed
        self._population = _population(profile, seed, text_base)
        self._mean_gap = max(1.0, 1.0 / max(profile.branch_ratio, 1e-3) - 1.0)

    # -- accessors ---------------------------------------------------------------
    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.profile.name

    @property
    def sites(self) -> List[BranchSite]:
        """Static conditional branch sites (fresh objects on every call:
        the population itself is shared and immutable)."""
        pop = self._population
        return [BranchSite(*fields, aux=float(period))
                for *fields, period in zip(pop.pc, pop.target, pop.kind,
                                           pop.param, pop.period)]

    def static_branch_count(self) -> int:
        """Number of distinct conditional branch addresses."""
        return len(self._population.pc)

    def working_set_size(self) -> int:
        """Size of the active branch working set (sites in flight at a time).

        Large-code benchmarks (gcc, gobmk, perlbench) keep a few hundred
        branch sites hot — matching the residual-BTB-entry counts the paper
        quotes — while kernel-dominated FP codes keep only a few dozen.
        """
        return max(16, min(448, self.profile.static_conditional // 14))

    # -- trace generation --------------------------------------------------------
    def record_batches(self, n: int = 1024,
                       seed_offset: int = 0, *,
                       gap_block=None) -> Iterator[List[tuple]]:
        """Endless stream of branch-record *batches* (the engine hot path).

        Each yielded batch is a list of at least ``n`` plain tuples
        ``(pc, taken, target, branch_type, instructions, syscall_after)``
        where ``instructions`` is the record's committed-instruction count
        (the branch itself plus its preceding gap, i.e.
        :attr:`repro.workloads.trace.BranchRecord.instructions`) and
        ``syscall_after`` is the embedded privilege-switch marker — always
        ``False`` for synthetic workloads, whose system calls are driven by
        the profile's periodic rate instead (recorded traces carry real
        markers through the same tuple slot).  Batches can slightly exceed
        ``n`` because loop bodies and call/return pairs are emitted
        atomically.

        The tuple stream is the *primary* generator: :meth:`records` is a thin
        wrapper around it, so both APIs produce identical traces for the same
        ``(profile, seed, seed_offset)`` and experiments may freely mix them.
        Pre-generating tuples in chunks removes the per-branch generator
        resume and :class:`BranchRecord` allocation cost from the simulation
        loop.

        The stream walks an *active working set* of branch sites that drifts
        slowly over the full static population: real programs execute within a
        phase (a loop nest, a function neighbourhood) and revisit the same
        branches many times before moving on.  This is what gives predictors
        something to warm up — and what a flush or key change throws away.

        Args:
            n: minimum number of records per yielded batch.
            seed_offset: perturbs the dynamic RNG so the same workload can be
                replayed with a different interleaving (used by SMT runs to
                decorrelate the two copies of a benchmark).
            gap_block: optional bulk gap sampler
                ``gap_block(rng, count, neg_mean_gap) -> [gap, ...]`` used
                for whole loop bursts.  It must consume exactly ``count``
                ``rng.random()`` draws and return the same
                ``int(log(1 - u) * neg_mean_gap) + 1`` values the scalar
                path would produce, so the record stream stays
                bit-identical (the numpy backend supplies a vectorized
                implementation).
        """
        profile = self.profile
        rng = random.Random((_stable_hash(profile.name)
                             ^ ((self.seed + seed_offset + 1) * 0x85EBCA6B))
                            & 0xFFFFFFFF)
        pop = self._population
        cumulative = pop.cumulative_weights
        total_weight = cumulative[-1]
        call_prob = profile.call_fraction / max(profile.conditional_fraction, 1e-6)
        indirect_prob = profile.indirect_fraction / max(profile.conditional_fraction, 1e-6)
        indirect_sites = pop.indirect_sites
        call_sites = pop.call_sites
        indirect_counters = [0] * max(1, len(indirect_sites))
        pattern_phase = [0] * len(pop.pc)

        # Local bindings for the per-record hot loop.
        random_ = rng.random
        randrange = rng.randrange
        choice = rng.choice
        log = math.log
        bisect_left = bisect.bisect_left
        # Geometric-gap constant: multiplying by the (negated) mean replaces
        # the per-record division by its inverse.
        neg_mean_gap = -self._mean_gap
        conditional = BranchType.CONDITIONAL
        call_type = BranchType.CALL
        return_type = BranchType.RETURN
        indirect_type = BranchType.INDIRECT
        loop_kind, pattern_kind = _LOOP, _PATTERN
        # Per-site constants, bound straight from the shared columns.
        site_pc = pop.pc
        site_target = pop.target
        site_kind = pop.kind
        site_param = pop.param
        site_param_int = pop.param_int
        site_aux = pop.aux
        site_period = pop.period

        # Active working set: an *ordered*, nested-loop-like tour of branch
        # sites.  Real code is loops over code — a small inner region (a
        # "block" of sites) repeats several times, then execution moves to the
        # next region, and the whole working set is revisited tour after tour.
        # This is what makes global-history predictors work, keeps each
        # thread's dynamic table footprint compact, and gives residual
        # predictor state its value (the thing a flush or key change throws
        # away).  The working set itself drifts slowly across the static
        # population (phase changes), and occasional random jumps model
        # data-dependent paths.
        window = self.working_set_size()
        active = [bisect_left(cumulative, random_() * total_weight)
                  for _ in range(window)]
        drift_probability = 1.0 / max(32, window)
        jump_probability = 0.01
        block_size = min(16, window)
        block_start = 0
        block_position = 0
        block_repeats = 1 + randrange(6)

        # Batched RNG for the per-iteration Bernoulli events (working-set
        # drift, call/return pairs, indirect jumps): instead of drawing one
        # uniform per iteration per event, the number of iterations until the
        # next occurrence is sampled geometrically (the inverse-CDF of the
        # same per-trial process), one draw per *event*.  ``inf`` disables an
        # event; a non-positive log argument never occurs since
        # ``1 - random() ∈ (0, 1]``.
        never = float("inf")
        drift_log1m = log(1.0 - drift_probability)
        if call_sites and call_prob > 0.0:
            call_log1m = log(1.0 - call_prob) if call_prob < 1.0 else None
        else:
            call_log1m = never
        if indirect_sites and indirect_prob > 0.0:
            indirect_log1m = (log(1.0 - indirect_prob)
                              if indirect_prob < 1.0 else None)
        else:
            indirect_log1m = never

        def skip(log1m):
            """Iterations until the next event (0 = this iteration)."""
            if log1m is never:
                return never
            if log1m is None:  # probability >= 1: fires every iteration
                return 0
            return int(log(1.0 - random_()) / log1m)

        drift_skip = skip(drift_log1m)
        call_skip = skip(call_log1m)
        indirect_skip = skip(indirect_log1m)

        batch: List[tuple] = []
        append = batch.append

        while True:
            if drift_skip > 0:
                drift_skip -= 1
            else:
                active[randrange(window)] = bisect_left(cumulative,
                                                        random_() * total_weight)
                drift_skip = skip(drift_log1m)
            # Advance the nested-loop tour.
            block_position += 1
            if block_position >= block_size:
                block_position = 0
                block_repeats -= 1
                if block_repeats <= 0:
                    block_repeats = 1 + randrange(6)
                    if random_() < jump_probability:
                        block_start = randrange(window)
                    else:
                        block_start = (block_start + block_size) % window
            site_index = active[(block_start + block_position) % window]

            kind = site_kind[site_index]
            if kind == loop_kind:
                trip = site_param_int[site_index]
                pc = site_pc[site_index]
                target = site_target[site_index]
                # Emit the whole loop: (trip - 1) taken back-edges, then exit.
                if gap_block is not None and trip >= 4:
                    # Draw all `trip` gaps in one bulk call; the hook must
                    # replay rng.random() bit-exactly (same draws, same
                    # order), so both paths yield identical records.
                    gaps = gap_block(rng, trip, neg_mean_gap)
                    last = trip - 1
                    batch.extend(
                        (pc, True, target, conditional, gaps[k], False)
                        for k in range(last))
                    append((pc, False, target, conditional, gaps[last], False))
                else:
                    for _ in range(trip - 1):
                        append((pc, True, target, conditional,
                                int(log(1.0 - random_()) * neg_mean_gap) + 1,
                                False))
                    append((pc, False, target, conditional,
                            int(log(1.0 - random_()) * neg_mean_gap) + 1,
                            False))
            else:
                if kind == pattern_kind:
                    period = site_period[site_index]
                    phase = pattern_phase[site_index]
                    taken = bool((site_param_int[site_index]
                                  >> (phase % period)) & 1)
                    pattern_phase[site_index] = (phase + 1) % period
                else:  # biased and random sites share the draw shape
                    taken = ((random_() < site_param[site_index])
                             == site_aux[site_index])
                append((site_pc[site_index], taken, site_target[site_index],
                        conditional,
                        int(log(1.0 - random_()) * neg_mean_gap) + 1, False))

            # Occasionally interleave call/return pairs and indirect jumps.
            if call_skip > 0:
                call_skip -= 1
            else:
                call_pc = choice(call_sites)
                callee = call_pc + 0x1000
                append((call_pc, True, callee, call_type,
                        int(log(1.0 - random_()) * neg_mean_gap) + 1, False))
                append((callee + 0x40, True, call_pc + 4, return_type,
                        int(log(1.0 - random_()) * neg_mean_gap) + 1, False))
                call_skip = skip(call_log1m)
            if indirect_skip > 0:
                indirect_skip -= 1
            else:
                index = randrange(len(indirect_sites))
                pc, targets = indirect_sites[index]
                indirect_counters[index] += 1
                # Targets rotate deterministically so the BTB is neither
                # perfect nor hopeless on indirect branches.
                target = targets[indirect_counters[index] % len(targets)]
                append((pc, True, target, indirect_type,
                        int(log(1.0 - random_()) * neg_mean_gap) + 1, False))
                indirect_skip = skip(indirect_log1m)

            if len(batch) >= n:
                yield batch
                batch = []
                append = batch.append

    def records(self, seed_offset: int = 0) -> Iterator[BranchRecord]:
        """Endless stream of branch records (one :class:`BranchRecord` each).

        Implemented on top of :meth:`record_batches`, so both APIs emit the
        same deterministic trace for the same ``(profile, seed, seed_offset)``.

        Args:
            seed_offset: perturbs the dynamic RNG so the same workload can be
                replayed with a different interleaving (used by SMT runs to
                decorrelate the two copies of a benchmark).
        """
        for batch in self.record_batches(256, seed_offset):
            for pc, taken, target, branch_type, instructions, syscall in batch:
                yield BranchRecord(pc, taken, target, branch_type,
                                   instructions - 1, syscall)

    def segment(self, n_branches: int, seed_offset: int = 0) -> List[BranchRecord]:
        """Materialise the first ``n_branches`` records of the stream."""
        return list(itertools.islice(self.records(seed_offset), n_branches))


def make_workload(name: str, seed: int = 0,
                  profile: Optional[BenchmarkProfile] = None) -> SyntheticWorkload:
    """Convenience constructor by benchmark name."""
    return SyntheticWorkload(profile if profile is not None else get_profile(name),
                             seed=seed)
