"""Parallel, caching sweep execution.

Every figure/table reproduction in this repo boils down to running many
independent ``(pair, preset, scale)`` simulation cases and merging the
results.  This module provides the shared machinery:

* :class:`CaseSpec` — a self-contained, picklable description of one case
  (single-thread or SMT), with a deterministic cache key;
* :class:`RunResultCache` — a memoisation layer for finished
  :class:`repro.cpu.stats.RunResult` objects, in memory and, when one is
  configured (``REPRO_STORE_DIR`` or an explicit instance), in the
  :class:`repro.experiments.store.ResultStore` — the one on-disk home for
  results — keyed by
  ``(kind, pair, core config, preset, scale, switch interval, seed offset,
  engine version)``;
* :class:`SweepExecutor` — runs a list of case specs, deduplicating
  identical cases (so a per-pair baseline is simulated exactly once no matter
  how many sweeps and figure drivers ask for it), fanning independent cases
  out over a :class:`concurrent.futures.ProcessPoolExecutor` when
  ``REPRO_JOBS`` (or the ``jobs`` argument) asks for more than one worker,
  and merging results back in deterministic submission order.

The fan-out is **fault-tolerant**: dispatch is future-based with a per-case
timeout (``REPRO_CASE_TIMEOUT``), bounded retries with exponential backoff
(``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF``), recovery from a crashed worker
(``BrokenProcessPool`` rebuilds the pool and re-dispatches only unfinished
cases), and structured :class:`CaseFailure` records instead of raw
tracebacks.  After retries are exhausted a run fails fast by default
(:class:`ExecutionError`), or — with ``keep_going`` — completes every healthy
case and reports the failures for a machine-readable failure manifest.
Every completed case is published to the cache — and through it to the
result store — *as it finishes* (then to an optional ``on_result`` callback),
so rerunning a killed run against the same store simulates only what it had
not finished.  All of those paths are certified deterministically by
:mod:`repro.testing.faults` (``REPRO_FAULT_SPEC``).

The executor is deliberately engine-agnostic: a case's cache key includes
:data:`ENGINE_VERSION`, which must be bumped whenever the simulation
semantics change, so stale store entries can never leak across engine
revisions.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cpu.config import CoreConfig
from ..cpu.stats import RunResult
from ..testing.faults import FAULT_SPEC_VAR, InjectedTimeout, active_clauses
from ..workloads.pairs import BenchmarkPair
from .scaling import ExperimentScale

__all__ = [
    "ENGINE_VERSION",
    "CaseFailure",
    "CaseSpec",
    "CaseTimeout",
    "ExecutionError",
    "atomic_write_json",
    "RunResultCache",
    "SweepExecutor",
    "env_case_timeout",
    "env_jobs",
    "env_retries",
    "env_retry_backoff",
    "parse_case_timeout",
    "parse_jobs",
    "parse_retries",
    "parse_retry_backoff",
    "sweep_tmp_files",
]

logger = logging.getLogger(__name__)

#: Simulation-engine revision; part of every cache key.  Bump whenever a
#: change alters simulated statistics for the same seeds, and on every
#: hot-path storage/kernel rewrite even when statistics are provably
#: unchanged (so on-disk results can never mix engine revisions).  2026.2:
#: packed predictor kernels + fused XOR isolation + batched workload RNG.
#: 2026.3: packed-array BTB + gshare closure kernels + packed TAGE
#: allocation (statistics bit-identical to 2026.2 — the golden-trace suite
#: pins that — but every BTB/gshare hot path was rebuilt).
ENGINE_VERSION = "2026.3-packed-btb"


def parse_jobs(raw: str, *, source: str = "REPRO_JOBS") -> int:
    """Parse a worker count, rejecting malformed values with a clear error.

    A bad value used to slip through here and only blow up (or silently run
    serially) deep inside the process-pool setup; failing at parse time names
    the offending setting instead.
    """
    try:
        jobs = int(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    return jobs


def parse_case_timeout(raw, *,
                       source: str = "REPRO_CASE_TIMEOUT") -> Optional[float]:
    """Parse a per-case timeout in seconds (``None``/empty disables it)."""
    if raw is None or raw == "":
        return None
    try:
        timeout = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive number of seconds, "
            f"got {raw!r}") from None
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(
            f"{source} must be a positive, finite number of seconds, "
            f"got {raw!r}")
    return timeout


def env_case_timeout() -> Optional[float]:
    """Per-case timeout from ``REPRO_CASE_TIMEOUT`` (``None`` when unset)."""
    return parse_case_timeout(os.environ.get("REPRO_CASE_TIMEOUT"))


def parse_retries(raw, *, source: str = "REPRO_RETRIES") -> int:
    """Parse a retry budget (attempts beyond the first; ``0`` disables)."""
    try:
        retries = int(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a non-negative integer, got {raw!r}") from None
    if retries < 0:
        raise ValueError(f"{source} must be >= 0, got {retries}")
    return retries


#: Default retry budget: one transient failure plus one unlucky co-victim of
#: a pool crash must not fail a multi-hour run.
DEFAULT_RETRIES = 2


def env_retries() -> int:
    """Retry budget from ``REPRO_RETRIES`` (default :data:`DEFAULT_RETRIES`)."""
    raw = os.environ.get("REPRO_RETRIES")
    if raw is None or raw == "":
        return DEFAULT_RETRIES
    return parse_retries(raw)


def parse_retry_backoff(raw, *,
                        source: str = "REPRO_RETRY_BACKOFF") -> float:
    """Parse the base retry backoff in seconds (``0`` retries immediately)."""
    try:
        backoff = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a non-negative number of seconds, "
            f"got {raw!r}") from None
    if not math.isfinite(backoff) or backoff < 0:
        raise ValueError(
            f"{source} must be a non-negative, finite number of seconds, "
            f"got {raw!r}")
    return backoff


#: Base of the exponential retry backoff (seconds); attempt ``a`` waits
#: ``base * 2**(a-1)``, capped at :data:`MAX_BACKOFF_SECONDS`.
DEFAULT_RETRY_BACKOFF = 1.0
MAX_BACKOFF_SECONDS = 30.0


def env_retry_backoff() -> float:
    """Backoff base from ``REPRO_RETRY_BACKOFF`` (default 1.0 s)."""
    raw = os.environ.get("REPRO_RETRY_BACKOFF")
    if raw is None or raw == "":
        return DEFAULT_RETRY_BACKOFF
    return parse_retry_backoff(raw)


def atomic_write_json(path: str, payload, *,
                      trailing_newline: bool = False) -> None:
    """Write canonical (sorted-keys) JSON via tmp-file + atomic replace.

    Shared by the result store and the shard-artifact writer: a killed
    process can leave a stray ``*.tmp.<pid>`` file but never a torn JSON
    document under the real name.  (A ``torn_write``
    clause in ``REPRO_FAULT_SPEC`` deterministically simulates exactly that
    killed writer: truncated document under the real name, orphaned tmp
    file left behind.)
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        # ``json.dumps`` runs the C encoder; ``json.dump`` streams through
        # the pure-Python one.  The bytes are identical.
        handle.write(json.dumps(payload, sort_keys=True))
        if trailing_newline:
            handle.write("\n")
    if os.environ.get(FAULT_SPEC_VAR):
        from ..testing.faults import should_tear_write

        if should_tear_write(path):
            with open(tmp, "r", encoding="utf-8") as handle:
                text = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[: max(1, len(text) // 2)])
            return
    os.replace(tmp, path)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknown states count as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. PermissionError: exists, owned by someone else
    return True


def sweep_tmp_files(directory: str) -> List[str]:
    """Delete orphaned ``*.tmp.<pid>`` files left by killed writers.

    Walks ``directory`` for the tmp names :func:`atomic_write_json` uses and
    removes those whose writer process is gone; a live writer's in-flight
    tmp file is left alone.  Returns the removed paths.  ``store gc``
    sweeps the store with it — without it, every killed shard leaks one
    tmp file per in-flight write, forever.
    """
    removed: List[str] = []
    for root, _dirs, files in os.walk(directory):
        for name in files:
            base, sep, pid_text = name.rpartition(".tmp.")
            if not sep or not base or not pid_text.isdigit():
                continue
            if _pid_alive(int(pid_text)):
                continue
            path = os.path.join(root, name)
            try:
                os.remove(path)
            except OSError:
                continue
            removed.append(path)
    return removed


def env_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable (default 1).

    Raises:
        ValueError: if ``REPRO_JOBS`` is set to anything but a positive
            integer (``0``, negative, or non-numeric values are all errors).
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return 1
    return parse_jobs(raw)


@dataclass
class CaseSpec:
    """One simulation case, self-contained and picklable.

    Attributes:
        kind: ``"single"`` for the single-threaded core, ``"smt"`` for the
            SMT core.
        pair: the benchmark pair/quad to simulate.
        config: core configuration.
        preset: protection preset name.
        scale: experiment scale.
        switch_interval: optional context-switch period override in real
            cycles (single-thread sweeps only).
        seed_offset: workload/key seed offset (repetition studies).
        se_mode: system-call-emulation mode (SMT only).
        bpu_overrides: optional isolation-config overrides applied when the
            branch prediction unit is built (ablation studies: alternative
            encoders, key-refresh policies).  Part of the cache key.
        workload_digest: content digest of an externally supplied workload
            (a replayed trace corpus file).  Synthetic cases are fully
            described by benchmark name + seed, but a ``trace:`` benchmark's
            behaviour is the file's *contents* — so the digest joins the
            cache key, and only when set (``None`` leaves every historical
            synthetic cache/store key byte-identical).
        label: result label for the caller's bookkeeping; not part of the
            cache key (two labels for the same case share one simulation).
    """

    kind: str
    pair: BenchmarkPair
    config: CoreConfig
    preset: str
    scale: ExperimentScale
    switch_interval: Optional[int] = None
    seed_offset: int = 0
    se_mode: bool = True
    bpu_overrides: Optional[Dict] = None
    workload_digest: Optional[str] = None
    label: Optional[str] = None

    def cache_key(self) -> str:
        """Deterministic key identifying this case's simulation output.

        Memoised per instance (invalidated on an engine-version change, for
        tests that monkeypatch it): a `run all` recomputes the expanded
        case set several times — describe, shard split, execution — and the
        JSON canonicalisation + SHA-256 per case dominates that planning
        cost.  Specs are treated as immutable once planned;
        :func:`dataclasses.replace` creates a fresh instance, so repetition
        expansion never sees a stale memo.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is not None and memo[0] == ENGINE_VERSION:
            return memo[1]
        payload = {
            "engine": ENGINE_VERSION,
            "kind": self.kind,
            "pair": {"case": self.pair.case,
                     "benchmarks": list(self.pair.benchmarks)},
            "config": asdict(self.config),
            "preset": self.preset,
            "scale": asdict(self.scale),
            "switch_interval": self.switch_interval,
            "seed_offset": self.seed_offset,
            "se_mode": self.se_mode if self.kind == "smt" else None,
            "bpu_overrides": self.bpu_overrides or None,
        }
        if self.workload_digest is not None:
            payload["workload_digest"] = self.workload_digest
        canonical = json.dumps(payload, sort_keys=True, default=str)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self._cache_key = (ENGINE_VERSION, digest)
        return digest


def _execute_spec(spec: CaseSpec) -> RunResult:
    """Run one case (top-level so it is picklable for worker processes)."""
    # Imported here to avoid a circular import (runner imports this module).
    from .runner import run_single_thread_case, run_smt_case

    if spec.kind == "single":
        return run_single_thread_case(
            spec.pair, spec.config, spec.preset, spec.scale,
            switch_interval=spec.switch_interval,
            seed_offset=spec.seed_offset,
            bpu_overrides=spec.bpu_overrides)
    if spec.kind == "smt":
        return run_smt_case(spec.pair, spec.config, spec.preset, spec.scale,
                            se_mode=spec.se_mode,
                            seed_offset=spec.seed_offset,
                            bpu_overrides=spec.bpu_overrides)
    raise ValueError(f"unknown case kind {spec.kind!r}")


def _case_label(spec: CaseSpec) -> str:
    return f"{spec.label or spec.preset}/{spec.pair.case}"


def _stream_order(spec: CaseSpec) -> Tuple[Tuple[str, ...], int]:
    """Sort key grouping cases that replay the same workload streams.

    A case's streams are a function of its benchmarks and workload seed
    (:func:`repro.workloads.pairs.make_pair_workloads`); presets, configs
    and overrides only change what replays them.
    """
    return tuple(spec.pair.benchmarks), spec.scale.seed + spec.seed_offset


def _run_case(spec: CaseSpec, *, index: Optional[int] = None,
              attempt: int = 1, in_worker: bool = False) -> RunResult:
    """Execute one case attempt (top-level so it is picklable for workers).

    The fault-injection hook fires only when ``REPRO_FAULT_SPEC`` is set, so
    the zero-fault hot path pays one environment lookup and nothing else.
    """
    if os.environ.get(FAULT_SPEC_VAR):
        from ..testing.faults import inject_case_faults

        inject_case_faults(key=spec.cache_key(), label=_case_label(spec),
                           index=index, attempt=attempt, in_worker=in_worker)
    return _execute_spec(spec)


class CaseTimeout(Exception):
    """A case exceeded its per-case timeout (``REPRO_CASE_TIMEOUT``)."""


@dataclass
class CaseFailure:
    """Structured record of one case that exhausted its retry budget.

    Attributes:
        key: the case's cache key (joins against manifests and artifacts).
        case: human-readable ``label-or-preset/pair`` tag.
        attempts: attempts consumed (``1 + retries`` unless interrupted).
        error: exception class name of the final attempt.
        message: exception message of the final attempt.
        timed_out: whether the final attempt was a timeout (real or
            injected) rather than an error.
        duration: wall-clock seconds of the final attempt.
    """

    key: str
    case: str
    attempts: int
    error: str
    message: str
    timed_out: bool = False
    duration: float = 0.0

    def to_dict(self) -> Dict:
        """Plain-dict form for the machine-readable failure manifest."""
        return asdict(self)


class ExecutionError(RuntimeError):
    """Raised when one or more cases failed permanently (fail-fast mode).

    Carries the structured :class:`CaseFailure` records in ``failures`` so
    callers can build a failure manifest even from the fail-fast path.
    """

    def __init__(self, failures: Sequence[CaseFailure]) -> None:
        self.failures = list(failures)
        shown = "; ".join(
            f"{f.case} [{f.key[:12]}…] after {f.attempts} attempt(s): "
            f"{f.error}: {f.message}" for f in self.failures[:5])
        if len(self.failures) > 5:
            shown += f"; … and {len(self.failures) - 5} more"
        super().__init__(
            f"{len(self.failures)} case(s) failed permanently: {shown}")


class RunResultCache:
    """Two-level (memory → store) cache of finished run results.

    Args:
        directory: ``None`` or ``False`` only — the store is the one
            on-disk home for results.  Kept for ``perfbench``'s callers
            until its next re-pin; a path raises :class:`TypeError` so no
            caller silently loses persistence.
        store: optional :class:`~repro.experiments.store.ResultStore` used as
            the second cache level.  When omitted (``None``),
            ``REPRO_STORE_DIR`` is consulted (no store when unset); pass
            ``False`` to force a store-less cache regardless of the
            environment (the replay-only merge path needs this so its
            completeness guarantee cannot be voided by a configured store).
            Store hits are promoted into memory, and every :meth:`put`
            writes through to the store — so any shard or machine sharing a
            store publishes its results for all others.
    """

    def __init__(self, directory: "Optional[object]" = None,
                 store: "Optional[object]" = None) -> None:
        if directory is not None and directory is not False:
            raise TypeError(f"RunResultCache has no disk level (directory="
                            f"{directory!r}); use REPRO_STORE_DIR or "
                            "store=ResultStore(path)")
        if store is None:
            # Imported lazily: the store module imports ENGINE_VERSION from
            # this one.
            from .store import env_store

            store = env_store()
        elif store is False:
            store = None
        self.store = store
        self._memory: Dict[str, RunResult] = {}
        self.hits = 0
        #: Hits served by the result store (a subset of ``hits``).
        self.store_hits = 0

    def get(self, key: str) -> Optional[RunResult]:
        """Return the cached result for a key, or ``None``."""
        result = self._memory.get(key)
        if result is None and self.store is not None:
            result = self.store.get(key)
            if result is not None:
                self._memory[key] = result
                self.store_hits += 1
        if result is not None:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store a finished result under a key (memory and store).

        Store publication is best-effort on filesystem errors (a read-only
        shared store must not abort a run whose simulation already
        finished); a digest conflict still raises — that is the
        determinism tripwire, not an IO problem.
        """
        self._memory[key] = result
        if self.store is not None:
            try:
                self.store.put(key, result)
            except OSError:
                pass


class SweepExecutor:
    """Runs independent simulation cases with dedupe, caching and fan-out.

    Cases are simulated in *stream order*: the pending cases of a batch are
    sorted (stably) by their workload streams, ``(pair.benchmarks,
    scale.seed + seed_offset)``, so every mechanism that replays one
    benchmark pair runs back to back and finds its streams in the small
    per-process memo of
    :meth:`~repro.workloads.generator.SyntheticWorkload.record_batches`.
    Results are still returned in submission order; only the simulation
    (and ``on_result``) order follows the streams.

    Args:
        jobs: worker processes; values above 1 use a
            :class:`~concurrent.futures.ProcessPoolExecutor`.  Defaults to
            the ``REPRO_JOBS`` environment variable (serial when unset).
        cache: result cache shared across calls; a fresh
            :class:`RunResultCache` (honouring ``REPRO_STORE_DIR``) when
            omitted.
        allow_simulation: when ``False`` the executor only *replays* cached
            results and raises on any miss.  The sharded pipeline's merge step
            uses this as the guard that a merge never simulates: a case the
            receipts do not cover fails loudly instead of being silently
            re-simulated at merge time.
        keep_going: when ``True``, a case that exhausts its retry budget is
            recorded in :attr:`failures` and replaced by ``None`` in the
            returned results instead of aborting the run — every healthy
            case still completes (the ``--keep-going`` contract).
        timeout: per-case timeout in seconds (parallel runs only; an
            in-process case cannot be preempted).  ``None`` reads
            ``REPRO_CASE_TIMEOUT``; ``False`` forces the timeout off.
        retries: attempts allowed beyond the first per case.  ``None`` reads
            ``REPRO_RETRIES`` (default :data:`DEFAULT_RETRIES`).
        backoff: exponential-backoff base in seconds between attempts
            (``0`` retries immediately).  ``None`` reads
            ``REPRO_RETRY_BACKOFF``.
        on_result: optional ``callback(key, result)`` fired once per *newly
            simulated* case, in completion order, after the result has been
            published to the cache.  The service's per-job event stream
            hangs off this hook.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[RunResultCache] = None,
                 allow_simulation: bool = True, *,
                 keep_going: bool = False,
                 timeout: "Optional[object]" = None,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None,
                 on_result: Optional[Callable[[str, RunResult], None]] = None,
                 ) -> None:
        self.jobs = jobs if jobs is not None else env_jobs()
        self.cache = cache if cache is not None else RunResultCache()
        self.allow_simulation = allow_simulation
        self.keep_going = keep_going
        if timeout is None:
            timeout = env_case_timeout()
        elif timeout is False:
            timeout = None
        self.timeout = timeout
        self.retries = retries if retries is not None else env_retries()
        self.backoff = backoff if backoff is not None else env_retry_backoff()
        self.on_result = on_result
        #: Cases actually simulated (cache misses) over this executor's life.
        self.simulated = 0
        #: Permanent :class:`CaseFailure` records over this executor's life.
        self.failures: List[CaseFailure] = []
        # Surface a malformed REPRO_FAULT_SPEC here, at construction, rather
        # than as a cryptic crash inside the first worker process.
        active_clauses()

    def run_specs(self, specs: Sequence[CaseSpec]) -> List[RunResult]:
        """Run the given cases and return results in submission order.

        Identical cases (same cache key) are simulated once; previously
        cached cases are not simulated at all.  With ``jobs > 1`` the
        outstanding cases run concurrently in worker processes, but the
        returned list order — and therefore every downstream figure/table —
        is deterministic regardless of completion order.

        A case whose final attempt fails raises :class:`ExecutionError`
        (fail-fast default) or, under ``keep_going``, yields ``None`` at its
        positions in the returned list with the details recorded in
        :attr:`failures`.
        """
        specs = list(specs)
        keys = [spec.cache_key() for spec in specs]
        resolved: Dict[str, RunResult] = {}
        pending: List[CaseSpec] = []
        pending_keys: List[str] = []
        pending_seen: set = set()
        failed_before = {failure.key for failure in self.failures}
        for spec, key in zip(specs, keys):
            if key in resolved or key in pending_seen or key in failed_before:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                resolved[key] = cached
            else:
                pending.append(spec)
                pending_keys.append(key)
                pending_seen.add(key)

        if pending and not self.allow_simulation:
            missing = ", ".join(
                f"{_case_label(spec)} ({key[:12]}…)"
                for spec, key in zip(pending, pending_keys))
            raise RuntimeError(
                f"replay-only executor has no cached result for "
                f"{len(pending)} case(s): {missing}; the shard artifacts "
                "are incomplete")
        if pending:
            # Stream order: cases that replay the same workload streams run
            # back to back, so the per-process stream memo stays small.
            ordered = sorted(zip(pending, pending_keys),
                             key=lambda item: _stream_order(item[0]))
            pending = [spec for spec, _ in ordered]
            pending_keys = [key for _, key in ordered]
            if self.jobs > 1 and len(pending) > 1:
                self._execute_parallel(pending, pending_keys, resolved)
            else:
                self._execute_serial(pending, pending_keys, resolved)

        if self.keep_going:
            return [resolved.get(key) for key in keys]
        return [resolved[key] for key in keys]

    def run_spec(self, spec: CaseSpec) -> RunResult:
        """Run (or fetch from cache) a single case."""
        return self.run_specs([spec])[0]

    # ------------------------------------------------------------------
    # fault-tolerant dispatch

    def _complete(self, resolved: Dict[str, RunResult], key: str,
                  result: RunResult) -> None:
        """Publish one newly simulated result (cache first, then
        ``on_result``)."""
        resolved[key] = result
        self.simulated += 1
        self.cache.put(key, result)
        if self.on_result is not None:
            self.on_result(key, result)

    def _backoff_delay(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * 2.0 ** (attempt - 1), MAX_BACKOFF_SECONDS)

    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        """Whether a failed attempt is worth retrying.

        ``ValueError``/``TypeError`` are deterministic misconfigurations (bad
        spec, unknown kind) — retrying them only burns the backoff budget.
        Everything else (worker crashes, IO errors, injected transients) may
        be transient.
        """
        return not isinstance(exc, (ValueError, TypeError))

    def _record_failure(self, spec: CaseSpec, key: str, attempt: int,
                        exc: BaseException, duration: float) -> CaseFailure:
        failure = CaseFailure(
            key=key, case=_case_label(spec), attempts=attempt,
            error=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
            timed_out=isinstance(exc, (CaseTimeout, InjectedTimeout)),
            duration=round(duration, 3))
        self.failures.append(failure)
        logger.error("case %s [%s…] failed permanently after %d attempt(s): "
                     "%s: %s", failure.case, key[:12], attempt, failure.error,
                     failure.message)
        return failure

    def _execute_serial(self, pending: List[CaseSpec],
                        pending_keys: List[str],
                        resolved: Dict[str, RunResult]) -> None:
        """In-process execution with the same retry/failure contract.

        A real ``REPRO_CASE_TIMEOUT`` cannot preempt in-process cases, but
        injected timeouts (and every other fault kind) classify identically
        to the parallel path.
        """
        for index, (spec, key) in enumerate(zip(pending, pending_keys)):
            attempt = 1
            while True:
                started = time.monotonic()
                try:
                    result = _run_case(spec, index=index, attempt=attempt,
                                       in_worker=False)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    duration = time.monotonic() - started
                    if attempt <= self.retries and self._retryable(exc):
                        delay = self._backoff_delay(attempt)
                        logger.warning(
                            "case %s attempt %d failed (%s: %s); retrying"
                            "%s", _case_label(spec), attempt,
                            type(exc).__name__, exc,
                            f" in {delay:g}s" if delay else "")
                        if delay:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    failure = self._record_failure(spec, key, attempt, exc,
                                                   duration)
                    if not self.keep_going:
                        raise ExecutionError([failure]) from exc
                    break
                else:
                    self._complete(resolved, key, result)
                    break

    def _execute_parallel(self, pending: List[CaseSpec],
                          pending_keys: List[str],
                          resolved: Dict[str, RunResult]) -> None:
        """Future-based fan-out with timeout, retries and pool recovery.

        The submission window equals the worker count, so a submitted case
        starts (almost) immediately and the per-case timeout can be measured
        from submission.  Recovery invariants:

        * a crashed pool (``BrokenProcessPool``) cannot tell the crasher
          apart from its co-victims, so every in-flight case consumes an
          attempt and the pool is rebuilt;
        * a case whose deadline expires is recorded as :class:`CaseTimeout`
          and the pool — which cannot preempt a wedged worker — is
          abandoned and rebuilt; innocent in-flight survivors are re-queued
          at the *same* attempt (interrupted is not failed);
        * ``KeyboardInterrupt`` cancels pending futures, abandons the pool
          and propagates (the CLI maps it to exit code 130).
        """
        workers = min(self.jobs, len(pending))
        queue: List[Tuple[int, int]] = [(i, 1) for i in range(len(pending))]
        waiting: List[Tuple[float, int, int]] = []  # (ready_at, idx, attempt)
        inflight: Dict[object, Tuple[int, int, float]] = {}
        exhausted: List[CaseFailure] = []
        pool = ProcessPoolExecutor(max_workers=workers)

        def submit(index: int, attempt: int) -> None:
            future = pool.submit(_run_case, pending[index], index=index,
                                 attempt=attempt, in_worker=True)
            inflight[future] = (index, attempt, time.monotonic())

        def reschedule(index: int, attempt: int, exc: BaseException,
                       duration: float) -> None:
            """One attempt failed: back off and retry, or record failure."""
            spec = pending[index]
            if attempt <= self.retries and self._retryable(exc):
                delay = self._backoff_delay(attempt)
                logger.warning(
                    "case %s attempt %d failed (%s: %s); retrying%s",
                    _case_label(spec), attempt, type(exc).__name__, exc,
                    f" in {delay:g}s" if delay else "")
                if delay:
                    waiting.append((time.monotonic() + delay, index,
                                    attempt + 1))
                else:
                    queue.append((index, attempt + 1))
                return
            exhausted.append(self._record_failure(spec, pending_keys[index],
                                                  attempt, exc, duration))

        def harvest(future, index: int, attempt: int, started: float) -> bool:
            """Settle one finished future; returns True on BrokenProcessPool."""
            duration = time.monotonic() - started
            try:
                result = future.result(timeout=60)
            except KeyboardInterrupt:
                raise
            except BrokenProcessPool as exc:
                reschedule(index, attempt, exc, duration)
                return True
            except CancelledError:
                # Never started (cancelled while queued): not an attempt.
                queue.append((index, attempt))
            except Exception as exc:
                reschedule(index, attempt, exc, duration)
            else:
                self._complete(resolved, pending_keys[index], result)
            return False

        def rebuild_pool(reason: str) -> None:
            nonlocal pool
            logger.warning("rebuilding worker pool after %s "
                           "(%d case(s) re-queued)", reason,
                           len(queue) + len(waiting))
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=workers)

        def drain_broken_pool() -> None:
            """Settle every remaining future of a crashed pool, then rebuild.

            All of them were failed (or were already finished) by the pool
            machinery; the crasher is indistinguishable from its co-victims,
            so each unfinished case consumes an attempt.
            """
            dead = list(inflight.items())
            inflight.clear()
            for future, (index, attempt, started) in dead:
                harvest(future, index, attempt, started)
            rebuild_pool("worker crash (BrokenProcessPool)")

        def expire_timeouts(now: float) -> None:
            """Classify overdue cases as timed out and abandon the pool."""
            hung = []
            for future, (index, attempt, started) in list(inflight.items()):
                if future.done() or now - started <= self.timeout:
                    continue
                if future.cancel():
                    # Still queued, never started: just waiting in line, not
                    # hung — re-queue without consuming an attempt.
                    inflight.pop(future)
                    queue.append((index, attempt))
                    continue
                hung.append((future, index, attempt, now - started))
            if not hung:
                return
            for future, index, attempt, overdue in hung:
                inflight.pop(future)
                reschedule(index, attempt,
                           CaseTimeout(f"exceeded {self.timeout:g}s per-case "
                                       f"timeout (ran {overdue:.1f}s)"),
                           overdue)
            # A wedged worker cannot be preempted, so the whole pool is
            # abandoned; innocent in-flight survivors are re-queued at the
            # same attempt (interrupted, not failed).
            survivors = list(inflight.items())
            inflight.clear()
            for future, (index, attempt, started) in survivors:
                if future.done():
                    harvest(future, index, attempt, started)
                else:
                    queue.append((index, attempt))
            rebuild_pool(f"{len(hung)} case timeout(s)")

        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                if waiting:
                    ready = [item for item in waiting if item[0] <= now]
                    if ready:
                        waiting[:] = [item for item in waiting
                                      if item[0] > now]
                        for _ready_at, index, attempt in ready:
                            queue.append((index, attempt))
                while queue and len(inflight) < workers:
                    index, attempt = queue.pop(0)
                    submit(index, attempt)
                if not inflight:
                    # Everything is backing off; sleep to the next deadline.
                    time.sleep(max(0.0, min(item[0] for item in waiting)
                                   - time.monotonic()))
                    continue
                tick = None
                if self.timeout is not None:
                    next_deadline = min(started + self.timeout
                                        for _i, _a, started
                                        in inflight.values())
                    tick = max(0.0, next_deadline - now)
                if waiting:
                    next_ready = max(0.0, min(item[0] for item in waiting)
                                     - now)
                    tick = next_ready if tick is None \
                        else min(tick, next_ready)
                done, _ = wait(list(inflight), timeout=tick,
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    index, attempt, started = inflight.pop(future)
                    broken = harvest(future, index, attempt, started) \
                        or broken
                if broken:
                    drain_broken_pool()
                elif self.timeout is not None:
                    expire_timeouts(time.monotonic())
                if exhausted and not self.keep_going:
                    raise ExecutionError(exhausted)
            pool.shutdown(wait=True)
        except KeyboardInterrupt:
            logger.warning("interrupted; cancelling %d in-flight and %d "
                           "queued case(s)", len(inflight),
                           len(queue) + len(waiting))
            raise
        finally:
            # No-op after a clean shutdown; after an error or interrupt it
            # cancels everything still queued and abandons the workers.
            pool.shutdown(wait=False, cancel_futures=True)
