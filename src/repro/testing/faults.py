"""Deterministic fault injection for the execution layer.

Every recovery path in :mod:`repro.experiments.executor` — retry after a
transient failure, rebuilding a broken process pool, classifying a hung case
as timed out, quarantining a store entry torn by a kill — exists to handle
events that are rare and nondeterministic in production.  This module makes those events
*deterministic and cheap*, so the fault-tolerance suite and the CI chaos job
certify each path on every run instead of hoping for it.

Faults are described by the ``REPRO_FAULT_SPEC`` environment variable (the
environment propagates into pool workers, which is where most injections must
fire).  The spec is a comma-separated list of clauses::

    REPRO_FAULT_SPEC="crash:case_idx=1,timeout:key~fig8;attempts=99"

Each clause is ``kind:selector[;selector...]``:

``kind``
    * ``fail`` — raise :class:`InjectedFault` (a transient worker error);
    * ``crash`` — hard-kill the worker process via ``os._exit`` (the parent
      observes ``BrokenProcessPool``); in-process (serial) execution raises
      :class:`InjectedCrash` instead, since killing the only process would
      take the harness down with it;
    * ``timeout`` — raise :class:`InjectedTimeout`, which the dispatch loop
      classifies exactly like a parent-observed case timeout;
    * ``hang`` — sleep ``seconds`` (default 30) in the worker, so a real
      ``REPRO_CASE_TIMEOUT`` expiry and pool abandonment can be exercised;
      in-process execution raises :class:`InjectedTimeout` instead of
      blocking the harness;
    * ``interrupt`` — raise :class:`KeyboardInterrupt` (Ctrl-C mid-run);
    * ``torn_write`` — make :func:`repro.experiments.executor.atomic_write_json`
      behave like a writer killed mid-write: a truncated document under the
      real name plus an orphaned ``*.tmp.<pid>`` file.

``selector``
    * ``case_idx=N`` — only the N-th pending case of a dispatch batch
      (0-based submission order);
    * ``key~SUBSTR`` — only cases whose cache key or label contains
      ``SUBSTR`` (for ``torn_write``: paths containing it);
    * ``path~SUBSTR`` — alias of ``key~`` (reads better for ``torn_write``);
    * ``attempts=N`` — inject on attempts 1..N only (default 1, so a
      retried case succeeds; ``attempts=99`` exhausts any retry budget);
    * ``seconds=X`` — ``hang`` sleep length.

Parsing is strict: an unknown kind or selector raises :class:`ValueError`
naming ``REPRO_FAULT_SPEC``, at executor construction time rather than deep
inside a worker.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_SPEC_VAR",
    "FaultClause",
    "InjectedCrash",
    "InjectedFault",
    "InjectedTimeout",
    "active_clauses",
    "inject_case_faults",
    "inject_stage_fault",
    "parse_fault_spec",
    "should_tear_write",
]

#: Environment variable carrying the fault spec.
FAULT_SPEC_VAR = "REPRO_FAULT_SPEC"

_KINDS = ("fail", "crash", "timeout", "hang", "interrupt", "torn_write")

#: Exit status of a hard-crashed worker (any non-zero value breaks the pool;
#: a recognisable one makes post-mortems less mysterious).
CRASH_EXIT_STATUS = 70


class InjectedFault(Exception):
    """A deterministic, transient worker failure (retryable)."""


class InjectedTimeout(Exception):
    """A deterministic stand-in for a case exceeding its timeout."""


class InjectedCrash(Exception):
    """Serial-mode stand-in for a hard worker crash.

    In-process execution cannot ``os._exit`` without killing the harness, so
    a ``crash`` clause degrades to this exception outside pool workers.
    """


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a ``REPRO_FAULT_SPEC``."""

    kind: str
    case_idx: Optional[int] = None
    match: Optional[str] = None
    attempts: int = 1
    seconds: float = 30.0

    def matches_case(self, *, index: Optional[int], key: str, label: str,
                     attempt: int) -> bool:
        """Whether this clause fires for one case-execution attempt."""
        if self.kind == "torn_write":
            return False
        if attempt > self.attempts:
            return False
        if self.case_idx is not None and self.case_idx != index:
            return False
        if self.match is not None and self.match not in key \
                and self.match not in label:
            return False
        return True

    def matches_path(self, path: str) -> bool:
        """Whether a ``torn_write`` clause fires for one output path."""
        if self.kind != "torn_write":
            return False
        return self.match is None or self.match in path

    def __str__(self) -> str:
        parts = [self.kind]
        if self.case_idx is not None:
            parts.append(f"case_idx={self.case_idx}")
        if self.match is not None:
            parts.append(f"key~{self.match}")
        if self.attempts != 1:
            parts.append(f"attempts={self.attempts}")
        return ":".join(parts[:1] + [";".join(parts[1:])]) if parts[1:] \
            else parts[0]


def _parse_int(value: str, clause: str, name: str, *, source: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(
            f"{source}: {name} needs an integer in clause {clause!r}, "
            f"got {value!r}") from None
    if parsed < 0:
        raise ValueError(
            f"{source}: {name} must be >= 0 in clause {clause!r}")
    return parsed


def parse_fault_spec(raw: str, *,
                     source: str = FAULT_SPEC_VAR) -> List[FaultClause]:
    """Parse a fault spec, rejecting malformed clauses with a named error."""
    clauses: List[FaultClause] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(
                f"{source}: unknown fault kind {kind!r} in clause {chunk!r} "
                f"(known: {', '.join(_KINDS)})")
        fields: Dict[str, object] = {"kind": kind}
        for selector in filter(None, (part.strip()
                                      for part in rest.split(";"))):
            if selector.startswith("case_idx="):
                fields["case_idx"] = _parse_int(
                    selector[len("case_idx="):], chunk, "case_idx",
                    source=source)
            elif selector.startswith("key~"):
                fields["match"] = selector[len("key~"):]
            elif selector.startswith("path~"):
                fields["match"] = selector[len("path~"):]
            elif selector.startswith("attempts="):
                fields["attempts"] = _parse_int(
                    selector[len("attempts="):], chunk, "attempts",
                    source=source)
            elif selector.startswith("seconds="):
                try:
                    fields["seconds"] = float(selector[len("seconds="):])
                except ValueError:
                    raise ValueError(
                        f"{source}: seconds needs a number in clause "
                        f"{chunk!r}") from None
            else:
                raise ValueError(
                    f"{source}: unknown selector {selector!r} in clause "
                    f"{chunk!r} (known: case_idx=, key~, path~, attempts=, "
                    "seconds=)")
        clauses.append(FaultClause(**fields))  # type: ignore[arg-type]
    return clauses


#: Memoised parse of the last few raw spec strings (the hooks sit on hot
#: paths — every worker attempt and every atomic write consult them).
_PARSE_CACHE: Dict[str, Tuple[FaultClause, ...]] = {}


def active_clauses() -> Tuple[FaultClause, ...]:
    """The parsed clauses of the current ``REPRO_FAULT_SPEC`` (empty when
    unset)."""
    raw = os.environ.get(FAULT_SPEC_VAR)
    if not raw:
        return ()
    cached = _PARSE_CACHE.get(raw)
    if cached is None:
        cached = tuple(parse_fault_spec(raw))
        if len(_PARSE_CACHE) > 16:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[raw] = cached
    return cached


def inject_case_faults(*, key: str, label: str, index: Optional[int],
                       attempt: int, in_worker: bool) -> None:
    """Fire the first matching case fault, if any.

    Called at the top of every case-execution attempt.  ``in_worker`` is
    ``True`` only inside a pool worker process, where hard faults (process
    exit, real hangs) are safe; in-process execution degrades them to
    exceptions so the harness survives.
    """
    for clause in active_clauses():
        if not clause.matches_case(index=index, key=key, label=label,
                                   attempt=attempt):
            continue
        detail = (f"injected {clause.kind} ({clause}) for case "
                  f"{label} [{key[:12]}…] attempt {attempt}")
        if clause.kind == "fail":
            raise InjectedFault(detail)
        if clause.kind == "timeout":
            raise InjectedTimeout(detail)
        if clause.kind == "interrupt":
            raise KeyboardInterrupt(detail)
        if clause.kind == "crash":
            if in_worker:
                os._exit(CRASH_EXIT_STATUS)
            raise InjectedCrash(detail)
        if clause.kind == "hang":
            if not in_worker:
                raise InjectedTimeout(detail + " (in-process hang degraded)")
            time.sleep(clause.seconds)
            return  # a hung worker eventually finishes its (abandoned) case


def inject_stage_fault(stage: str) -> None:
    """Fire the first fault clause matching a named pipeline *stage*.

    The service scheduler (and any future non-case execution path) calls
    this with a stage token like ``service:job:<id>`` so the chaos suite can
    kill the machinery *around* the executor — proving a dead worker thread
    surfaces as a structured job failure, never a hung job.  Only clauses
    with an explicit ``key~``/``path~`` selector participate: a bare
    ``crash`` or ``crash:case_idx=1`` aimed at case execution must not also
    detonate every stage it passes through.  Stage execution is always
    in-process, so ``crash`` raises :class:`InjectedCrash` and ``hang``
    degrades to :class:`InjectedTimeout` exactly like serial case execution.
    """
    for clause in active_clauses():
        if clause.kind == "torn_write" or clause.match is None:
            continue
        if clause.match not in stage:
            continue
        detail = f"injected {clause.kind} ({clause}) at stage {stage}"
        if clause.kind == "fail":
            raise InjectedFault(detail)
        if clause.kind == "timeout":
            raise InjectedTimeout(detail)
        if clause.kind == "interrupt":
            raise KeyboardInterrupt(detail)
        if clause.kind == "crash":
            raise InjectedCrash(detail)
        if clause.kind == "hang":
            raise InjectedTimeout(detail + " (in-process hang degraded)")


def should_tear_write(path: str) -> bool:
    """Whether an atomic JSON write to ``path`` should be torn."""
    return any(clause.matches_path(path) for clause in active_clauses())
