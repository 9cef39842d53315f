"""Thread-safe job records and the FIFO queue the scheduler drains.

A :class:`Job` is the unit the service tracks: one validated manifest
submission, its lifecycle state (``queued → running → done|failed``), an
append-only event list (mirrored to a per-job ``journal.jsonl`` via the
executor's ``on_result`` hook), executor statistics, and — on failure — the
same structured :class:`~repro.experiments.executor.CaseFailure` records the
CLI's ``--keep-going`` failure manifests carry.  Every mutation happens
under one condition variable, which is also what the event-streaming
endpoint and ``wait()`` block on: there is no polling loop anywhere inside
the server.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Dict, List, Optional

from .wire import JOB_SCHEMA, JobRequest

__all__ = ["JOB_STATES", "Job", "JobQueue"]

#: Lifecycle states, in order; the last two are terminal.
JOB_STATES = ("queued", "running", "done", "failed")


class Job:
    """One submitted manifest run and everything observable about it."""

    def __init__(self, job_id: str, request: JobRequest, manifest,
                 data_dir: str) -> None:
        self.id = job_id
        self.request = request
        self.manifest = manifest
        self.manifest_hash = manifest.manifest_hash()
        self.unique_cases = len(manifest.unique_cases())
        #: The stats line's caseless provenance (see ``caseless_label``).
        self.caseless = manifest.caseless_label()
        self.dir = os.path.join(data_dir, job_id)
        #: Directory the finished figures/tables land in (``repro fetch``
        #: serves these; they are written by the same ``write_outputs`` a
        #: serial ``repro run all --out`` uses, hence byte-identical).
        self.files_dir = os.path.join(self.dir, "files")
        self.journal_path = os.path.join(self.dir, "journal.jsonl")
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.state = "queued"
        self.stats: Dict[str, int] = {"unique": self.unique_cases,
                                      "simulated": 0, "store_hits": 0}
        self.failures: List[dict] = []
        self.error: Optional[str] = None
        self.events: List[dict] = []
        self._cond = threading.Condition()
        os.makedirs(self.files_dir, exist_ok=True)
        self.add_event("queued", cases=self.unique_cases,
                       manifest_hash=self.manifest_hash)

    # -- event log --------------------------------------------------------------
    def add_event(self, kind: str, **data) -> None:
        """Append one event, journal it, and wake every waiter."""
        event = {"event": kind, "job": self.id, **data}
        with self._cond:
            self.events.append(event)
            try:
                with open(self.journal_path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(event, sort_keys=True))
                    handle.write("\n")
            except OSError:
                pass  # the journal is a diagnostic mirror, never load-bearing
            self._cond.notify_all()

    def wait_events(self, index: int, timeout: float = 10.0) -> List[dict]:
        """Events from ``index`` on, blocking up to ``timeout`` for new ones.

        Returns an empty list on timeout (the streaming endpoint turns that
        into a heartbeat) and immediately once the job is terminal and the
        caller has drained everything.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self.events) <= index and not self.is_terminal():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(self.events[index:])

    # -- lifecycle --------------------------------------------------------------
    def is_terminal(self) -> bool:
        return self.state in ("done", "failed")

    def mark_running(self) -> None:
        with self._cond:
            self.state = "running"
            self.started = time.time()
        self.add_event("running")

    def finish(self, *, simulated: int, store_hits: int) -> None:
        with self._cond:
            self.stats["simulated"] = simulated
            self.stats["store_hits"] = store_hits
            self.state = "done"
            self.finished = time.time()
        self.add_event("done", stats=dict(self.stats))

    def fail(self, error: str, failures: Optional[List[dict]] = None,
             *, simulated: int = 0, store_hits: int = 0) -> None:
        with self._cond:
            self.stats["simulated"] = simulated
            self.stats["store_hits"] = store_hits
            self.error = error
            self.failures = list(failures or [])
            self.state = "failed"
            self.finished = time.time()
        self.add_event("failed", error=error, failures=len(self.failures))

    def wait(self, timeout: float = 60.0) -> bool:
        """Block until the job is terminal; ``True`` when it got there."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self.is_terminal():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def files(self) -> List[str]:
        """Sorted relative names of the job's output files."""
        try:
            return sorted(name for name in os.listdir(self.files_dir)
                          if os.path.isfile(os.path.join(self.files_dir,
                                                         name)))
        except OSError:
            return []

    def to_wire(self) -> dict:
        """The job document ``GET /v1/jobs/<id>`` serves."""
        with self._cond:
            return {
                "schema": JOB_SCHEMA,
                "id": self.id,
                "state": self.state,
                "manifest_hash": self.manifest_hash,
                "request": self.request.to_wire(),
                "repetitions": self.request.repetitions,
                "stats": dict(self.stats),
                "caseless": self.caseless,
                "failures": list(self.failures),
                "error": self.error,
                "events": len(self.events),
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
            }


class JobQueue:
    """FIFO queue plus the registry of every job the service has seen."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending: "collections.deque[Job]" = collections.deque()
        self._jobs: "Dict[str, Job]" = {}
        self._sequence = 0

    def next_id(self, manifest_hash: str) -> str:
        """Allocate the next job id (``job-<seq>-<hash prefix>``)."""
        with self._cond:
            self._sequence += 1
            return f"job-{self._sequence:04d}-{manifest_hash[:8]}"

    def submit(self, job: Job) -> None:
        with self._cond:
            self._jobs[job.id] = job
            self._pending.append(job)
            self._cond.notify()

    def next_job(self, timeout: float = 0.5) -> Optional[Job]:
        """Pop the oldest queued job, blocking up to ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return self._pending.popleft()

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._cond:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the health endpoint reports this)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
