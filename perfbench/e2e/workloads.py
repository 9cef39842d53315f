"""The benchmark's workloads.

``st_tage`` and ``smt_zoo`` are *cold* sweeps: every pass plans a fresh
manifest, runs it through ``pipeline.run_serial`` into a fresh, empty
result store with a fresh in-process cache, and writes the outputs, so each
pass pays for workload construction, simulation and store writes.
``warm_service`` fills a store with one cold run of the full manifest
during set-up, boots an in-process ``SimulationService`` over it, and then
drives it with one closed-loop client on one HTTP connection: submit the
full manifest, follow the job's event stream until it ends, fetch the job's
HTML report.  A warm job simulates nothing; it reads the store, re-runs the
caseless attack studies, assembles and writes every experiment, and renders
the report.

The seed shifts ``ExperimentScale.seed``; the program only ever sees the
planned manifest.  Scales are the smallest the program accepts (0.05),
where per-case trace budgets sit at their floors, so a unit is short enough
for several to fit in one measured run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import gate, layers
from .spans import Tracer

ST_KEYS = ("figure1", "figure7", "figure8", "figure9", "table4",
           "ablation_encoder", "ablation_key_refresh",
           "ablation_switch_interval", "ablation_penalty")
SMT_KEYS = ("figure2", "figure3", "figure10", "smt4_noisy_xor")


#: Every workload runs at the smallest scale the program accepts.
SCALE_FACTOR = 0.05


@dataclass(frozen=True)
class Spec:
    keys: Optional[Tuple[str, ...]]  # None plans the full manifest
    jobs: int
    why: str


SPECS = {
    "st_tage": Spec(ST_KEYS, 1,
                    "single-thread TAGE sweeps on the packed kernels, "
                    "serial: kernel loop + workload construction + store "
                    "writes"),
    "smt_zoo": Spec(SMT_KEYS, 2,
                    "SMT sweeps over the generic predictor zoo on a "
                    "2-process pool"),
    "warm_service": Spec(None, 1,
                         "warm full-manifest jobs through the HTTP service: "
                         "store reads, attack studies, assembly, report"),
}

SETUP_REPEATS = 3
TRACED_JOBS = 3
#: Largest |sum of span self times - traced wall| / traced wall accepted.
#: Only overlapping sibling spans (a service submit still closing while
#: its job starts) can make it non-zero.
RECONCILE_TOLERANCE = 0.02
#: Pool width of the warm workload's cold fill (the service itself runs
#: one scheduler worker with a serial executor).
FILL_JOBS = 2


def seeded_scale(seed: int, factor: float):
    from repro.experiments.scaling import ExperimentScale

    return ExperimentScale(seed=ExperimentScale().seed + seed
                           ).scaled_by(factor)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime \
        + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Outcome:
    """Everything one benchmark invocation measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    lines: List[str]
    manifest_hash: str
    scale: object
    jobs: int
    tracer: Optional[Tracer] = None


@dataclass
class Pass:
    wall: float
    cpu: float
    digest: str
    totals: dict
    cases: int
    problems: List[str] = field(default_factory=list)
    results: Dict[str, object] = field(default_factory=dict)
    specs: Dict[str, object] = field(default_factory=dict)
    run_specs_s: float = 0.0


@contextmanager
def _run_specs_timer(sink: List[float]):
    """Time every ``SweepExecutor.run_specs`` call (no spans)."""
    from repro.experiments.executor import SweepExecutor

    original = SweepExecutor.__dict__["run_specs"]

    def timed(self, specs):
        started = time.perf_counter()
        try:
            return original(self, specs)
        finally:
            sink.append(time.perf_counter() - started)

    SweepExecutor.run_specs = timed
    try:
        yield
    finally:
        SweepExecutor.run_specs = original


def _cold_pass(keys: Sequence[str], scale, jobs: int, work: str, *,
               tracer: Optional[Tracer] = None, run_id: str = "",
               time_run_specs: bool = False) -> Pass:
    from repro.experiments import pipeline
    from repro.experiments.executor import (ExecutionError, RunResultCache,
                                            SweepExecutor)
    from repro.experiments.manifest import build_manifest
    from repro.experiments.store import ResultStore

    manifest = build_manifest(list(keys), scale=scale)
    specs = manifest.unique_cases()
    root = tempfile.mkdtemp(prefix="pass-", dir=work)
    out_dir = os.path.join(root, "out")
    store = ResultStore(os.path.join(root, "store"))
    cache = RunResultCache(directory=False, store=store)
    executor = SweepExecutor(jobs=jobs, cache=cache)
    problems: List[str] = []
    run_specs: List[float] = []
    timer = _run_specs_timer(run_specs) if time_run_specs else nullcontext()
    try:
        with timer:
            uninstall = layers.install(tracer) if tracer is not None \
                else None
            if tracer is not None:
                tracer.begin_unit(run_id)
            started_cpu = cpu_seconds()
            started = time.perf_counter()
            try:
                pipeline.run_serial(manifest, executor=executor,
                                    out_dir=out_dir)
            except ExecutionError as exc:
                problems.append(f"execution failed: {exc}")
            finally:
                wall = time.perf_counter() - started
                cpu = cpu_seconds() - started_cpu
                if uninstall is not None:
                    tracer.end_unit()
                    uninstall()
        if problems:
            return Pass(wall, cpu, "", {}, len(specs), problems)
        results = {key: cache.get(key) for key in specs}
        if executor.simulated != len(specs):
            problems.append(f"simulated {executor.simulated} of "
                            f"{len(specs)} cases in a cold pass")
        if executor.failures:
            problems.append(f"{len(executor.failures)} case failure(s)")
        stored = len(store.keys())
        if stored != len(specs):
            problems.append(f"store holds {stored} results, expected "
                            f"{len(specs)}")
        return Pass(wall, cpu, gate.digest_dir(out_dir),
                    gate.totals(results), len(specs), problems, results,
                    specs, sum(run_specs))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _tail_line(label: str, values: List[float]) -> str:
    value, percentile = layers.tail(values)
    return (f"{label}: p50 {statistics.median(values):.4f} s, "
            f"p{percentile:g} {value:.4f} s, n={len(values)}")


def _reconciles(tracer: Tracer, lines: List[str],
                problems: List[str]) -> bool:
    """Whether the spans' self times add up to the traced wall time."""
    error = layers.reconcile_error(tracer)
    lines.append(f"trace: reconcile error {error:.2e} of traced wall")
    if error > RECONCILE_TOLERANCE:
        problems.append(f"span self times do not reconcile with the traced "
                        f"wall time (error {error:.3f})")
        return False
    return True


def _units_line(walls: List[float], cpus: List[float]) -> str:
    return ("units (wall s / cpu s): "
            + " ".join(f"{wall:.3f}/{cpu:.3f}"
                       for wall, cpu in zip(walls, cpus)))


def _pin_record(manifest_hash: str, digest: str, sums: dict) -> dict:
    return {"scale_factor": SCALE_FACTOR, "manifest_hash": manifest_hash,
            "outputs_sha256": digest, **sums}


def run_cold(name: str, *, seed: int, seconds: float, trace: bool,
             work: str, keys: Optional[Sequence[str]] = None,
             update_pins: bool = False) -> Outcome:
    """Measure (``trace=False``) or trace (``trace=True``) a cold sweep.

    ``setup_s`` here excludes imports, which the caller times.
    """
    from repro.experiments.manifest import build_manifest
    from repro.experiments.store import ResultStore

    spec = SPECS[name]
    pinned = seed == gate.DEFAULT_SEED and keys is None
    keys = tuple(keys or spec.keys)
    scale = seeded_scale(seed, SCALE_FACTOR)

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        manifest = build_manifest(list(keys), scale=scale)
        manifest_hash = manifest.manifest_hash()
        store_dir = tempfile.mkdtemp(prefix="setup-", dir=work)
        ResultStore(os.path.join(store_dir, "store"))
        setups.append(time.perf_counter() - started)
        shutil.rmtree(store_dir, ignore_errors=True)
    setup_s = statistics.median(setups)

    began = time.perf_counter()
    passes: List[Pass] = []
    tracer = None
    untraced_wall = 0.0
    if trace:
        # Untraced at the workload's width (for the digest and the pool's
        # run_specs time), untraced serial (the overhead baseline), then
        # traced serial.
        first = _cold_pass(keys, scale, spec.jobs, work, time_run_specs=True)
        passes.append(first)
        serial = first
        if spec.jobs > 1:
            serial = _cold_pass(keys, scale, 1, work)
            passes.append(serial)
        untraced_wall = serial.wall
        tracer = Tracer()
        passes.append(_cold_pass(keys, scale, 1, work, tracer=tracer,
                                 run_id=f"{name}-{seed}"))
    else:
        while True:
            passes.append(_cold_pass(keys, scale, spec.jobs, work))
            if time.perf_counter() - began >= seconds:
                break

    problems: List[str] = []
    bad = [bool(record.problems) for record in passes]
    reference = passes[0]
    for index, record in enumerate(passes):
        problems.extend(f"pass {index}: {text}" for text in record.problems)
        if not record.problems and (record.digest != reference.digest
                                    or record.totals != reference.totals):
            bad[index] = True
            problems.append(f"pass {index}: outputs differ from pass 0 "
                            f"({record.digest[:12]} != "
                            f"{reference.digest[:12]})")
    if not reference.problems:
        pin_record = _pin_record(manifest_hash, reference.digest,
                                 reference.totals)
        program_wrong = gate.oracle_mismatches(reference.specs,
                                               reference.results, seed)
        if pinned:
            program_wrong += gate.check_pin(name, pin_record,
                                            update=update_pins)
        if program_wrong:
            problems.extend(program_wrong)
            bad = [True] * len(passes)

    attempted = sum(record.cases for record in passes)
    failed = sum(record.cases for record, wrong in zip(passes, bad) if wrong)
    lines = [f"workload {name}: {spec.why}",
             f"passes: {len(passes)} x {reference.cases} cases, jobs "
             f"{spec.jobs}, scale {SCALE_FACTOR}"]
    walls = [record.wall for record in passes]
    lines.append(_tail_line("wall_s", walls))
    lines.append(_units_line(walls, [record.cpu for record in passes]))
    branches = reference.totals.get("branches", 0)
    median_wall = statistics.median(walls)
    lines.append(f"sim_branches_per_s: {branches / median_wall:.1f} 1/s "
                 f"({branches} simulated branches per pass)")
    lines.append(f"failed_frac: {failed / max(1, attempted):.4f} "
                 f"({failed}/{attempted} cases)")

    if not trace:
        metrics = {"wall_s": median_wall,
                   "peak_rss_mb": peak_rss_mb(),
                   "setup_s": setup_s}
    else:
        metrics = layers.summarise(tracer)
        traced = passes[-1]
        case_seconds = sum(span.duration for span in tracer.spans
                           if span.name == "runner.case")
        if reference.run_specs_s > 0:
            metrics["executor.pool_efficiency"] = case_seconds / (
                spec.jobs * reference.run_specs_s)
        metrics["trace.overhead_frac"] = traced.wall / untraced_wall - 1.0
        if not _reconciles(tracer, lines, problems):
            failed = attempted
    return Outcome(metrics, attempted, failed, problems, lines,
                   manifest_hash, scale, spec.jobs, tracer)


# -- warm service -------------------------------------------------------------

class Connection:
    """One persistent HTTP/1.1 connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=170)

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, bytes]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@dataclass
class Job:
    id: str
    wall: float
    cpu: float
    post_s: float
    report_s: float
    client_s: float
    document: dict
    report: bytes
    problems: List[str]
    files_digest: str = ""

    @property
    def queue_wait_s(self) -> float:
        return self.document["started"] - self.document["created"]

    @property
    def run_s(self) -> float:
        return self.document["finished"] - self.document["started"]

    @property
    def client_overhead_s(self) -> float:
        return self.client_s - (self.document["finished"]
                                - self.document["created"])

    def report_digest(self) -> str:
        return hashlib.sha256(self.report.replace(
            self.id.encode("utf-8"), b"<job>")).hexdigest()


def _run_job(conn: Connection, service, payload: dict) -> Job:
    """Submit, follow the event stream to the end, fetch the report."""
    started_cpu = cpu_seconds()
    started_clock = time.time()
    started = time.perf_counter()
    status, body = conn.request("POST", "/v1/jobs", payload)
    posted = time.perf_counter()
    if status != 202:
        raise RuntimeError(f"POST /v1/jobs: HTTP {status}: {body[:200]!r}")
    job_id = json.loads(body)["id"]
    statuses = [status]
    status, stream = conn.request("GET", f"/v1/jobs/{job_id}/events?from=0")
    streamed_clock = time.time()
    streamed = time.perf_counter()
    statuses.append(status)
    status, report = conn.request("GET", f"/v1/jobs/{job_id}/report")
    finished = time.perf_counter()
    cpu = cpu_seconds() - started_cpu
    statuses.append(status)
    status, document = conn.request("GET", f"/v1/jobs/{job_id}")
    statuses.append(status)
    problems = []
    if statuses != [202, 200, 200, 200]:
        problems.append(f"{job_id}: HTTP statuses {statuses}")
    events = [json.loads(line) for line in stream.splitlines() if line]
    if not events or events[-1].get("event") != "done":
        problems.append(f"{job_id}: event stream did not end with 'done'")
    record = Job(job_id, finished - started, cpu, posted - started,
                 finished - streamed, streamed_clock - started_clock,
                 json.loads(document), report, problems)
    if record.document.get("state") != "done":
        problems.append(f"{job_id}: state {record.document.get('state')}: "
                        f"{record.document.get('error')}")
        return record
    files_dir = service.scheduler.queue.get(job_id).files_dir
    record.files_digest = gate.digest_dir(files_dir)
    return record


def _check_stats(job: Job, *, simulated: int, store_hits: int,
                 unique: int) -> List[str]:
    stats = job.document.get("stats", {})
    expected = {"unique": unique, "simulated": simulated,
                "store_hits": store_hits}
    return [f"{job.id}: {key} {stats.get(key)} != {value}"
            for key, value in expected.items() if stats.get(key) != value]


def run_warm(*, seed: int, seconds: float, trace: bool, work: str,
             keys: Optional[Sequence[str]] = None,
             between_fill_and_jobs=None,
             update_pins: bool = False) -> Outcome:
    """Measure or trace warm jobs against an in-process service.

    Set-up fills the store with one cold run of the manifest
    (``pipeline.run_serial`` on a ``FILL_JOBS``-process pool, before the
    server starts any thread) and boots the service over that store.  Every
    warm job must then reproduce the fill's output bytes, so the workload
    also certifies that a served store replay equals a serial run.
    ``between_fill_and_jobs(store, manifest)`` runs after the fill and
    before the warm jobs; the self-tests use it to damage the store.
    """
    from repro.experiments import pipeline
    from repro.experiments.executor import RunResultCache, SweepExecutor
    from repro.experiments.manifest import build_manifest
    from repro.experiments.store import ResultStore
    from repro.service import scheduler
    from repro.service.server import SimulationService

    spec = SPECS["warm_service"]
    pinned = seed == gate.DEFAULT_SEED and keys is None
    scale = seeded_scale(seed, SCALE_FACTOR)
    base = seeded_scale(seed, 1.0)
    payload = {"scale": SCALE_FACTOR}
    if keys is not None:
        payload["experiments"] = list(keys)

    original_default_scale = scheduler.default_scale
    # The service plans at REPRO_SCALE (unset here) times the request's
    # factor; the seed reaches it only through its base scale.
    scheduler.default_scale = lambda: base
    service = None
    conn = None
    problems: List[str] = []
    tracer = None
    try:
        started = time.perf_counter()
        manifest = build_manifest(list(keys) if keys is not None else None,
                                  scale=scale)
        specs = manifest.unique_cases()
        unique = len(specs)
        store = ResultStore(os.path.join(work, "store"))
        filler = SweepExecutor(jobs=FILL_JOBS, cache=RunResultCache(
            directory=False, store=store))
        cold_dir = os.path.join(work, "cold")
        pipeline.run_serial(manifest, executor=filler, out_dir=cold_dir)
        service = SimulationService(store, os.path.join(work, "data"),
                                    port=0, jobs=spec.jobs, workers=1)
        service.start()
        conn = Connection(service.host, service.port)
        # The first job pays the service's one-time lazy imports; it is
        # set-up, checked like every other job but not timed as one.
        warmup = _run_job(conn, service, payload)
        setup_s = time.perf_counter() - started

        cold_digest = gate.digest_dir(cold_dir)
        if filler.simulated != unique or filler.failures:
            problems.append(f"cold fill simulated {filler.simulated} of "
                            f"{unique} cases with {len(filler.failures)} "
                            "failure(s)")
        stored = {key: store.get(key) for key in specs}
        present = {key: result for key, result in stored.items()
                   if result is not None}
        pin_record = _pin_record(manifest.manifest_hash(), cold_digest,
                                 gate.totals(present))
        if None in stored.values():
            problems.append("the cold fill left cases out of the store")
        else:
            problems.extend(gate.oracle_mismatches(specs, stored, seed))
        if pinned:
            problems.extend(gate.check_pin("warm_service", pin_record,
                                           update=update_pins))
        fill_ok = not problems
        if between_fill_and_jobs is not None:
            between_fill_and_jobs(store, manifest)

        began = time.perf_counter()
        jobs: List[Job] = []
        traced: List[Job] = []
        if trace:
            # Untraced and traced jobs alternate, so drift in the host's
            # speed hits both sides of trace.overhead_frac alike.
            tracer = Tracer()
            for index in range(TRACED_JOBS):
                jobs.append(_run_job(conn, service, payload))
                uninstall = layers.install(tracer)
                tracer.begin_unit(f"warm_service-{seed}-{index}")
                try:
                    traced.append(_run_job(conn, service, payload))
                finally:
                    tracer.end_unit()
                    uninstall()
        else:
            while True:
                jobs.append(_run_job(conn, service, payload))
                if time.perf_counter() - began >= seconds:
                    break
    finally:
        if conn is not None:
            conn.close()
        if service is not None:
            service.stop()
        scheduler.default_scale = original_default_scale

    everything = [warmup] + jobs + traced
    bad = []
    reference_report = warmup.report_digest()
    for job in everything:
        wrong = list(job.problems)
        wrong += _check_stats(job, simulated=0, store_hits=unique,
                              unique=unique)
        if job.document.get("manifest_hash") != manifest.manifest_hash():
            wrong.append(f"{job.id}: the service planned another manifest")
        if job.files_digest != cold_digest:
            wrong.append(f"{job.id}: outputs differ from the cold fill")
        if job.report_digest() != reference_report:
            wrong.append(f"{job.id}: report differs from the warm-up job's")
        problems.extend(wrong)
        bad.append(bool(wrong) or not fill_ok)

    attempted = len(everything)
    failed = sum(bad)
    walls = [job.wall for job in jobs]
    tail, percentile = layers.tail(walls)
    lines = [f"workload warm_service: {spec.why}",
             f"jobs: {len(jobs)} warm + {len(traced)} traced, {unique} "
             f"store hits each, scale {SCALE_FACTOR}",
             _units_line(walls, [job.cpu for job in jobs]),
             f"job_p50_s: {statistics.median(walls):.4f} s",
             f"job_tail_s: {tail:.4f} s (p{percentile:g}, n={len(walls)})",
             f"report_p50_s: "
             f"{statistics.median(job.report_s for job in jobs):.4f} s",
             f"failed_frac: {failed / attempted:.4f} "
             f"({failed}/{attempted} jobs)"]

    if not trace:
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_rss_mb(),
                   "setup_s": setup_s}
    else:
        metrics = layers.summarise(tracer)
        median = statistics.median
        metrics.update({
            "service.post_ms": median(j.post_s for j in jobs) * 1e3,
            "service.queue_wait_ms": median(j.queue_wait_s
                                            for j in jobs) * 1e3,
            "service.job_run_s": median(j.run_s for j in jobs),
            "service.client_overhead_ms": median(
                j.client_overhead_s for j in jobs) * 1e3,
            "service.report_get_s": median(j.report_s for j in jobs),
            "trace.overhead_frac": median(j.wall for j in traced)
            / median(walls) - 1.0,
        })
        if not _reconciles(tracer, lines, problems):
            failed = attempted
    return Outcome(metrics, attempted, failed, problems, lines,
                   manifest.manifest_hash(), scale, spec.jobs, tracer)
