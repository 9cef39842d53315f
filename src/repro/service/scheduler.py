"""The worker pool that turns queued jobs into served results.

Each worker thread drains the :class:`~repro.service.jobs.JobQueue` and runs
one job at a time through the *existing* execution stack — a
:class:`~repro.experiments.executor.SweepExecutor` over a
:class:`~repro.experiments.executor.RunResultCache` whose third level is the
service's shared :class:`~repro.experiments.store.ResultStore` — so every
reliability property of the PR 6 layer (per-case timeout, retries, broken
pool recovery, fault injection) and every dedupe property of the PR 5 store
hold unchanged inside the service.  Each job gets a *fresh* memory cache:
a re-submission's hit rate therefore measures the store, which is what the
warm-resubmission CI assertion (0 simulated, 100% store hits) certifies.

A job can only leave the queue into a terminal state: the worker loop wraps
execution in a ``BaseException`` barrier, so an injected crash — or any real
bug in the machinery around the executor — surfaces as a structured job
failure the client sees, never a silently hung job.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional

from ..experiments.executor import (
    ExecutionError,
    RunResultCache,
    SweepExecutor,
)
from ..experiments.manifest import build_manifest
from ..experiments.pipeline import run_serial
from ..experiments.scaling import default_scale
from ..testing.faults import FAULT_SPEC_VAR, inject_stage_fault
from .jobs import Job, JobQueue
from .wire import JobRequest, parse_job_request

__all__ = ["JobScheduler"]


class JobScheduler:
    """Validates submissions into jobs and executes them on worker threads.

    Args:
        store: the shared result store every job deduplicates against and
            publishes into.  Mandatory — a store-less service would simulate
            every submission from scratch, which is exactly the architecture
            this daemon exists to replace.
        data_dir: per-job output root (files + journals live under
            ``<data_dir>/<job id>/``).
        jobs: executor width per job (worker *processes* inside one job).
        workers: worker threads (jobs executed concurrently).
        registry: alternative experiment registry (tests submit reduced
            golden-scale experiments through it, exactly like
            ``build_manifest(experiments=...)``).
    """

    def __init__(self, store, data_dir: str, *, jobs: int = 1,
                 workers: int = 1, registry=None) -> None:
        if store is None:
            raise ValueError(
                "the simulation service needs a result store: pass --dir "
                "or set REPRO_STORE_DIR")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.data_dir = data_dir
        self.jobs = jobs
        self.workers = workers
        self.registry = registry
        self.queue = JobQueue()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- submission -------------------------------------------------------------
    def submit(self, payload) -> Job:
        """Validate one submission body and enqueue it as a job.

        Raises:
            ValueError: anything :func:`~repro.service.wire.parse_job_request`
                or :func:`~repro.experiments.manifest.build_manifest`
                rejects — surfaced to the client as HTTP 400.
        """
        request = payload if isinstance(payload, JobRequest) \
            else parse_job_request(payload)
        scale = default_scale()
        if request.scale is not None:
            scale = scale.scaled_by(request.scale)
        manifest = build_manifest(keys=request.manifest_keys(), scale=scale,
                                  experiments=self.registry,
                                  repetitions=request.repetitions)
        job = Job(self.queue.next_id(manifest.manifest_hash()), request,
                  manifest, self.data_dir)
        self.queue.submit(job)
        return job

    # -- worker pool ------------------------------------------------------------
    def start(self) -> None:
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            # The BaseException barrier is the no-hung-jobs guarantee: a
            # worker death of any shape (injected crash, KeyboardInterrupt,
            # a bug in assembly) lands the job in a terminal state with the
            # error attached, and the thread survives for the next job.
            try:
                self._run_job(job)
            except ExecutionError as exc:
                job.fail(str(exc),
                         [failure.to_dict() for failure in exc.failures])
            except BaseException as exc:  # noqa: BLE001 — see above
                job.fail(f"{type(exc).__name__}: {exc}")

    def _run_job(self, job: Job) -> None:
        job.mark_running()
        if os.environ.get(FAULT_SPEC_VAR):
            inject_stage_fault(f"service:job:{job.id}")
        # Fresh memory cache per job, shared store underneath: dedupe across
        # jobs (and machines) is the store's, measured by store_hits.
        cache = RunResultCache(store=self.store)

        def on_result(key, result) -> None:
            job.add_event("case", key=key)

        executor = SweepExecutor(jobs=self.jobs, cache=cache,
                                 on_result=on_result)
        # run_serial also registers the manifest index in the store on
        # success, which is what scoped gc/export key on.
        run_serial(job.manifest, out_dir=job.files_dir, executor=executor)
        job.finish(simulated=executor.simulated,
                   store_hits=cache.store_hits)
