"""Declarative experiment manifests: plan every case before running any.

Historically each figure/table driver planned and ran its own cases
imperatively, so a full-paper reproduction was a serial walk over drivers
that re-planned overlapping baseline cases and could not be split across
machines.  This module turns the drivers into *data*:

* every case-based driver is a pair of functions: ``plan()`` enumerates its
  :class:`~repro.experiments.executor.CaseSpec` list up front, and
  ``assemble()`` builds the figure/table from the results of exactly those
  cases, in plan order (it never sees an executor, so it can read no case
  the plan did not list);
* an :class:`ExperimentManifest` collects the plans of any set of experiments
  into one global case list, **deduplicated across experiments** by
  ``cache_key`` — a baseline pair shared by Figures 7, 8 and 9 appears once;
* the manifest partitions deterministically into ``n`` disjoint, covering
  shards (:class:`ShardSpec`), by hashing each case's cache key — the
  assignment is a pure function of the case, so it is stable no matter how
  many experiments are selected or in which order they are planned.

Experiments that run no ``CaseSpec`` simulations (the configuration tables,
the attack-based experiments) still participate: they have an empty plan and
are themselves assigned to a shard by hashing their key, so a sharded run
executes *everything* exactly once across the fleet.

:mod:`repro.experiments.pipeline` executes manifests and merges shard
artifacts back into final figures/tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from .base import ExperimentResult
from ..cpu.stats import RunResult
from .executor import ENGINE_VERSION, CaseSpec, parse_jobs
from .scaling import ExperimentScale, default_scale

__all__ = [
    "ShardSpec",
    "parse_shard",
    "env_shard",
    "parse_repetitions",
    "ExperimentDef",
    "ExperimentManifest",
    "experiment_registry",
    "build_manifest",
]

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


def parse_repetitions(raw, *, source: str = "--repetitions") -> int:
    """Parse a repetition count, rejecting malformed values with a clear error.

    Same positive-integer contract as
    :func:`repro.experiments.executor.parse_jobs` (which it delegates to):
    fail at parse time naming the offending setting, never deep inside
    planning.
    """
    return parse_jobs(raw, source=source)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a partitioned manifest: ``index`` of ``count`` (0-based)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index} "
                f"(shards are 0-based: the shards of a 4-way run are 0/4 .. 3/4)")

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(raw: str, *, source: str = "REPRO_SHARD") -> ShardSpec:
    """Parse an ``i/n`` shard designator, rejecting malformed values.

    ``0``-based: valid shards of a 4-way run are ``0/4`` … ``3/4``.  Anything
    else — ``3/2``, ``0/0``, negative or non-numeric parts — raises a
    :class:`ValueError` naming the offending setting, instead of crashing
    later inside the scheduler.
    """
    match = _SHARD_RE.match(raw.strip()) if isinstance(raw, str) else None
    if match is None:
        raise ValueError(
            f"{source} must look like 'i/n' (e.g. 0/4), got {raw!r}")
    index, count = int(match.group(1)), int(match.group(2))
    try:
        return ShardSpec(index, count)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def env_shard() -> Optional[ShardSpec]:
    """Shard from the ``REPRO_SHARD`` environment variable (``None`` if unset)."""
    raw = os.environ.get("REPRO_SHARD")
    if raw is None or raw == "":
        return None
    return parse_shard(raw)


def _shard_of(token: str, count: int) -> int:
    """Deterministic shard assignment for an arbitrary token."""
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return int(digest[:16], 16) % count


@dataclass(frozen=True)
class ExperimentDef:
    """One experiment as the manifest sees it.

    Attributes:
        key: registry key (``"figure1"``, ``"table4"``, ...).
        plan: callable ``plan(scale) -> List[CaseSpec]`` enumerating every
            simulation case the experiment's assembly reads.  May return an
            empty list for experiments that simulate nothing through the
            executor (configuration tables, attack-based experiments).
        assemble: callable ``assemble(scale, results) -> ExperimentResult``
            producing the final figure/table from ``results``, the
            plan-ordered :class:`~repro.cpu.stats.RunResult` of every planned
            case at one repetition (``[]`` for a caseless experiment).  The
            pipeline fetches the results; the assembly sees no executor.
        repeatable: whether the experiment's result can carry repetition
            statistics (figure experiments fold N seeds into mean ± CI
            series).  Figure-less tabular experiments set this ``False``:
            their output cannot express error bars, so an N-seed expansion
            would simulate repetitions whose results the fold must discard —
            they stay single-trajectory at any repetition count.
        resimulates: a caseless experiment whose assembly simulates (the
            attack studies).  The store serves cases only, so it re-runs on
            every replay; the stats line says so (:meth:`caseless_label`).
    """

    key: str
    plan: Callable[[ExperimentScale], List[CaseSpec]]
    assemble: Callable[[ExperimentScale, List[RunResult]], ExperimentResult]
    repeatable: bool = True
    resimulates: bool = False


def _caseless(key: str, run_fn, *, resimulates: bool = False) -> ExperimentDef:
    return ExperimentDef(
        key=key,
        plan=lambda scale: [],
        assemble=lambda scale, results: run_fn(scale),
        resimulates=resimulates)


def format_stats_line(unique: int, simulated: int, store_hits: int,
                      caseless: str) -> str:
    """The one assertable statistics line of a run, local or served.

    CI greps the ``cases: N unique, S simulated, T store hit(s)`` prefix to
    prove a 100% store hit rate; ``caseless`` is the manifest's
    :meth:`ExperimentManifest.caseless_label`, appended so a replay that
    simulated no case still admits the studies it re-ran.
    """
    return (f"cases: {unique} unique, {simulated} simulated, "
            f"{store_hits} store hit(s); {caseless}")


def _registry() -> "Dict[str, ExperimentDef]":
    # Imported lazily to avoid import cycles at package-init time.
    from . import (
        ablations,
        fig1_flush_single,
        fig2_flush_smt,
        fig3_precise_flush,
        fig7_xor_btb,
        fig8_xor_pht,
        fig9_xor_bp,
        fig10_smt_predictors,
        poc_attacks,
        sensitivity,
        table1_security,
        table2_configs,
        table3_benchmarks,
        table4_privilege,
        table5_hwcost,
    )

    defs = [
        ExperimentDef("figure1", fig1_flush_single.plan,
                      fig1_flush_single.assemble),
        ExperimentDef("figure2", fig2_flush_smt.plan, fig2_flush_smt.assemble),
        ExperimentDef("figure3", fig3_precise_flush.plan,
                      fig3_precise_flush.assemble),
        ExperimentDef("figure7", fig7_xor_btb.plan, fig7_xor_btb.assemble),
        ExperimentDef("figure8", fig8_xor_pht.plan, fig8_xor_pht.assemble),
        ExperimentDef("figure9", fig9_xor_bp.plan, fig9_xor_bp.assemble),
        ExperimentDef("figure10", fig10_smt_predictors.plan,
                      fig10_smt_predictors.assemble),
        _caseless("table1", table1_security.run, resimulates=True),
        _caseless("table2", table2_configs.run),
        _caseless("table3", table3_benchmarks.run),
        # Figure-less tabular experiments: their rows cannot carry error
        # bars, so they stay single-trajectory under --repetitions N.
        ExperimentDef("table4", table4_privilege.plan,
                      table4_privilege.assemble, repeatable=False),
        _caseless("table5", table5_hwcost.run),
        _caseless("poc_attacks", poc_attacks.run, resimulates=True),
        ExperimentDef("ablation_encoder", ablations.plan_encoder_ablation,
                      ablations.assemble_encoder_ablation, repeatable=False),
        ExperimentDef("ablation_key_refresh",
                      ablations.plan_key_refresh_ablation,
                      ablations.assemble_key_refresh_ablation,
                      repeatable=False),
        _caseless("ablation_pht_granularity",
                  ablations.pht_granularity_ablation, resimulates=True),
        ExperimentDef("ablation_switch_interval",
                      sensitivity.plan_switch_interval_sensitivity,
                      sensitivity.assemble_switch_interval_sensitivity),
        ExperimentDef("ablation_penalty",
                      sensitivity.plan_mispredict_penalty_sensitivity,
                      sensitivity.assemble_mispredict_penalty_sensitivity),
        ExperimentDef("smt4_noisy_xor", sensitivity.plan_smt4_noisy_xor,
                      sensitivity.assemble_smt4_noisy_xor),
    ]
    return {definition.key: definition for definition in defs}


_REGISTRY_CACHE: "Optional[Dict[str, ExperimentDef]]" = None


def experiment_registry() -> "Dict[str, ExperimentDef]":
    """The full experiment registry, keyed and ordered like the paper's
    artefacts (figures, tables, then the ablations)."""
    global _REGISTRY_CACHE
    if _REGISTRY_CACHE is None:
        _REGISTRY_CACHE = _registry()
    return _REGISTRY_CACHE


@dataclass
class ExperimentManifest:
    """A set of planned experiments and their deduplicated global case list.

    Attributes:
        scale: the experiment scale every plan was enumerated at.
        definitions: the planned experiments, in selection order.
        plans: per-experiment *base* case lists (``plans[key][i]`` is the
            i-th case the experiment's assembly will read at repetition 0).
        repetitions: how many times each planned case runs, under seed
            offsets ``base..base+N-1``; the global case list
            (:meth:`unique_cases`) is the N-seed expansion of the plans, and
            assembly folds the repetitions into mean ± CI figures.
            ``repetitions=1`` is exactly the historical single-trajectory
            manifest.
    """

    scale: ExperimentScale
    definitions: List[ExperimentDef]
    plans: Dict[str, List[CaseSpec]] = field(default_factory=dict)
    repetitions: int = 1

    @property
    def keys(self) -> List[str]:
        return [definition.key for definition in self.definitions]

    def definition(self, key: str) -> ExperimentDef:
        for definition in self.definitions:
            if definition.key == key:
                return definition
        raise KeyError(key)

    def repetitions_of(self, key: str) -> int:
        """How many repetitions an experiment's assembly folds.

        ``repetitions`` for a ``repeatable`` experiment with cases; ``1``
        for a figure-less table (its output cannot carry error bars) and
        for a caseless experiment (it runs its own seeded harness).
        """
        if self.definition(key).repeatable and self.plans[key]:
            return self.repetitions
        return 1

    def plan_at(self, key: str, repetition: int) -> List[CaseSpec]:
        """An experiment's plan at one repetition: every base case with its
        seed offset shifted by ``repetition``.

        Repetition 0 *is* the base plan, so a ``repetitions=1`` manifest and
        the cases a ``repetitions=N`` manifest shares with it carry identical
        cache keys (an N-seed run reuses a single-seed run's stored
        results).  Memoised per manifest: every call returns the same spec
        instances, whose cache keys are memoised, so the assembly that reads
        them back re-hashes nothing.
        """
        if not 0 <= repetition < self.repetitions_of(key):
            raise ValueError(
                f"{key} has repetitions 0..{self.repetitions_of(key) - 1}, "
                f"got {repetition}")
        if repetition == 0:
            return self.plans[key]
        memo = self.__dict__.setdefault("_plan_memo", {})
        shifted = memo.get((key, repetition))
        if shifted is None:
            shifted = memo[key, repetition] = [
                replace(spec, seed_offset=spec.seed_offset + repetition)
                for spec in self.plans[key]]
        return shifted

    def unique_cases(self) -> "Dict[str, CaseSpec]":
        """Global case list: the N-seed expansion of every plan
        (:meth:`plan_at` each repetition), deduplicated by cache key across
        experiments and repetitions.

        Insertion order is the first-appearance order, so iteration is
        deterministic for a given experiment selection; the *shard assignment*
        (:meth:`shard_cases`) does not depend on this order at all.

        Memoised per manifest (a ``run all`` reads this several times —
        describe, hash, shard split, execution — and each expansion would
        otherwise walk and re-key every repetition variant); the memo is
        keyed on the engine version and repetition count, and callers get a
        shallow copy so the cached mapping cannot be mutated from outside.
        """
        token = (ENGINE_VERSION, self.repetitions)
        memo = self.__dict__.get("_unique_memo")
        if memo is not None and memo[0] == token:
            return dict(memo[1])
        unique: Dict[str, CaseSpec] = {}
        for key in self.keys:
            # Each base case followed by its repetition variants.
            for variants in zip(*(self.plan_at(key, repetition) for repetition
                                  in range(self.repetitions_of(key)))):
                for spec in variants:
                    unique.setdefault(spec.cache_key(), spec)
        self._unique_memo = (token, unique)
        return dict(unique)

    def caseless_keys(self) -> List[str]:
        """Experiments whose plan is empty (they run whole at shard time)."""
        return [key for key in self.keys if not self.plans[key]]

    def caseless_label(self) -> str:
        """``caseless: R re-run (keys), S static`` for the stats line."""
        caseless = self.caseless_keys()
        rerun = [key for key in caseless if self.definition(key).resimulates]
        listed = f" ({', '.join(rerun)})" if rerun else ""
        return (f"caseless: {len(rerun)} re-run{listed}, "
                f"{len(caseless) - len(rerun)} static")

    def total_planned(self) -> int:
        """Total case references (plans × repetitions) before dedupe."""
        return sum(len(self.plans[key]) * self.repetitions_of(key)
                   for key in self.keys)

    def manifest_hash(self) -> str:
        """Deterministic digest of the planned work.

        Covers the engine version (via every cache key), the scale, the
        experiment selection, the repetition count and the deduplicated
        expanded case set — and is invariant to the order experiments were
        selected in.  CI keys the persistent result cache on this.  The
        repetition count is hashed explicitly (not only through the expanded
        case list) so a ``repetitions=1`` and a ``repetitions=N`` manifest
        can never collide, whatever the case set degenerates to.
        """
        payload = {
            "engine": ENGINE_VERSION,
            "scale": asdict(self.scale),
            "experiments": sorted(self.keys),
            "repetitions": self.repetitions,
            "cases": sorted(self.unique_cases()),
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- sharding ---------------------------------------------------------------
    def shard_cases(self, shard: Optional[ShardSpec]) -> "Dict[str, CaseSpec]":
        """The subset of :meth:`unique_cases` owned by a shard.

        Assignment hashes each case's cache key, so for a given shard count
        the partition is disjoint, covering, and stable under any reordering
        or re-selection of experiments.  ``shard=None`` means "everything".
        """
        unique = self.unique_cases()
        if shard is None:
            return unique
        return {key: spec for key, spec in unique.items()
                if int(key[:16], 16) % shard.count == shard.index}

    def shard_caseless(self, shard: Optional[ShardSpec]) -> List[str]:
        """The caseless experiments owned by a shard (all of them if ``None``)."""
        keys = self.caseless_keys()
        if shard is None:
            return keys
        return [key for key in keys
                if _shard_of(f"experiment:{key}", shard.count) == shard.index]

    def describe(self) -> Dict:
        """JSON-friendly summary (for ``python -m repro plan``)."""
        unique = self.unique_cases()
        return {
            "engine": ENGINE_VERSION,
            "manifest_hash": self.manifest_hash(),
            "scale": asdict(self.scale),
            "experiments": {key: len(self.plans[key]) for key in self.keys},
            "caseless_experiments": self.caseless_keys(),
            "repetitions": self.repetitions,
            "planned_cases": self.total_planned(),
            "unique_cases": len(unique),
            "deduped_cases": self.total_planned() - len(unique),
        }


def build_manifest(keys: Optional[Sequence[str]] = None,
                   scale: Optional[ExperimentScale] = None,
                   experiments: "Optional[Dict[str, ExperimentDef]]" = None,
                   repetitions: int = 1) -> ExperimentManifest:
    """Plan a set of experiments into one manifest.

    Args:
        keys: experiment keys to include (every registered experiment when
            omitted).  Unknown keys raise :class:`ValueError`.
        scale: experiment scale (default honours ``REPRO_SCALE``).
        experiments: alternative experiment registry (tests use this to plan
            reduced-size variants against the golden fixtures).
        repetitions: seed repetitions per planned case (``N`` expands every
            figure/table plan into an N-seed case family whose assembly is
            folded into mean ± 95%-CI series; ``1`` reproduces the
            historical single-trajectory pipeline bit-for-bit).
    """
    registry = experiments if experiments is not None else experiment_registry()
    if keys is None:
        keys = list(registry)
    # First-appearance dedupe: `--experiments figure1 figure1` must plan,
    # render and hash exactly like the single selection.
    keys = list(dict.fromkeys(keys))
    # ``bench:<selector>`` keys are resolved dynamically against the workload
    # registry (the selector space is open-ended: unions, trace corpora), so
    # manifests written by `repro run --bench-set ...` re-plan at merge time
    # exactly like the statically registered experiments.
    dynamic = [key for key in keys
               if key.startswith("bench:") and key not in registry]
    if dynamic:
        from . import bench_suite

        registry = dict(registry)
        for key in dynamic:
            registry[key] = bench_suite.experiment_def(key[len("bench:"):])
    unknown = [key for key in keys if key not in registry]
    if unknown:
        raise ValueError(
            f"unknown experiments: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(registry))}")
    repetitions = parse_repetitions(repetitions, source="repetitions")
    scale = scale or default_scale()
    definitions = [registry[key] for key in keys]
    plans = {definition.key: list(definition.plan(scale))
             for definition in definitions}
    return ExperimentManifest(scale=scale, definitions=definitions,
                              plans=plans, repetitions=repetitions)
