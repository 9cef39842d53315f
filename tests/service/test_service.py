"""End-to-end tests of the simulation service over real HTTP.

One module-scoped server on an OS-assigned port (``port=0``), backed by a
tiny golden-style registry, exercised through the same :class:`ServiceClient`
the CLI uses.  The headline invariants: fetched figures are **byte-identical**
to a serial ``run_serial`` of the same manifest, a warm re-submission
simulates **nothing** (100% store hits), and a fault-injected worker death
surfaces as a structured job failure — never a hung job.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.experiments import fig1_flush_single, table5_hwcost
from repro.experiments.executor import RunResultCache, SweepExecutor
from repro.experiments.manifest import ExperimentDef, build_manifest
from repro.experiments.pipeline import run_serial
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore
from repro.service import ServiceClient, ServiceError, SimulationService
from repro.workloads.pairs import SINGLE_THREAD_PAIRS

#: Deliberately tiny budgets: these tests exercise the service plumbing.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=1_200, st_warmup_branches=300,
    smt_instructions=10_000, smt_warmup_instructions=2_000, seed=7)

TINY_PAIRS = SINGLE_THREAD_PAIRS[:1]

#: Registry whose plans *pin* the tiny scale (ignoring the service's base
#: scale), so jobs stay fast and byte-comparable no matter what scale the
#: scheduler resolves.  One case-based and one caseless experiment.
REGISTRY = {
    "figure1": ExperimentDef(
        "figure1",
        plan=lambda scale: fig1_flush_single.plan(TINY, pairs=TINY_PAIRS),
        assemble=lambda scale, executor: fig1_flush_single.run(
            TINY, pairs=TINY_PAIRS, executor=executor)),
    "table5": ExperimentDef(
        "table5",
        plan=lambda scale: [],
        assemble=lambda scale, executor: table5_hwcost.run(TINY)),
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    store = ResultStore(str(root / "store"))
    svc = SimulationService(store, str(root / "data"), port=0, workers=2,
                            registry=REGISTRY)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=60.0)


def _run_to_done(client, payload):
    document = client.submit(payload)
    final = client.watch(document["id"])
    assert final["state"] == "done", final.get("error")
    return final


class TestLifecycle:
    def test_health(self, service, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health) == {"status", "engine", "jobs"}
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}

    def test_submit_watch_fetch_byte_identical(self, service, client,
                                               tmp_path):
        events = []
        document = client.submit({"experiments": ["figure1", "table5"]})
        assert document["id"].startswith("job-")
        assert len(document["manifest_hash"]) == 64
        final = client.watch(document["id"],
                             on_event=lambda e: events.append(e["event"]))
        assert final["state"] == "done"
        kinds = set(events)
        assert {"queued", "running", "done"} <= kinds
        assert "case" in kinds  # per-case progress via the on_result hook

        served = tmp_path / "served"
        written = client.fetch(document["id"], str(served))
        assert written

        # The invariant the whole service stands on: served files are the
        # exact bytes a serial run of the same manifest writes.
        manifest = build_manifest(keys=["figure1", "table5"],
                                  experiments=REGISTRY)
        assert manifest.manifest_hash() == document["manifest_hash"]
        serial = tmp_path / "serial"
        run_serial(manifest, out_dir=str(serial),
                   executor=SweepExecutor(jobs=1, cache=RunResultCache(
                       directory=False, store=False)))
        names = sorted(os.listdir(serial))
        assert sorted(os.listdir(served)) == names
        for name in names:
            assert (served / name).read_bytes() == \
                (serial / name).read_bytes(), name

    def test_job_completion_registers_the_manifest(self, service, client):
        final = _run_to_done(client, {"experiments": ["figure1"]})
        assert final["manifest_hash"] in service.scheduler.store.manifests()

    def test_journal_mirrors_the_event_log(self, service, client):
        final = _run_to_done(client, {"experiments": ["table5"]})
        job = service.scheduler.queue.get(final["id"])
        with open(job.journal_path, "r", encoding="utf-8") as handle:
            journaled = [json.loads(line) for line in handle]
        assert [event["event"] for event in journaled] == \
            [event["event"] for event in job.events]

    def test_warm_resubmission_serves_everything_from_the_store(
            self, service, client):
        payload = {"experiments": ["figure1", "table5"]}
        _run_to_done(client, payload)
        final = _run_to_done(client, payload)
        stats = final["stats"]
        assert stats["simulated"] == 0
        assert stats["store_hits"] == stats["unique"] > 0
        # The CI grep's exact format (shared with the CLI's _stats_line),
        # admitting that no caseless study re-ran (table5 is static).
        line = ServiceClient(service.url).stats_line(final)
        assert line == (f"cases: {stats['unique']} unique, 0 simulated, "
                        f"{stats['unique']} store hit(s); "
                        "caseless: 0 re-run, 1 static")

    def test_concurrent_jobs_both_complete(self, service, client):
        first = client.submit({"experiments": ["figure1"]})
        second = client.submit({"experiments": ["table5"],
                                "scale": 0.5})
        done_first = client.watch(first["id"])
        done_second = client.watch(second["id"])
        assert done_first["state"] == "done"
        assert done_second["state"] == "done"
        listed = {document["id"] for document in client.jobs()}
        assert {first["id"], second["id"]} <= listed


class TestValidation:
    def test_unknown_experiment_is_http_400(self, client):
        with pytest.raises(ServiceError, match="unknown experiments: "
                                               "nope") as excinfo:
            client.submit({"experiments": ["nope"]})
        assert excinfo.value.status == 400

    def test_unknown_field_is_http_400(self, client):
        with pytest.raises(ServiceError, match="unknown field.*'repetitons'"):
            client.submit({"repetitons": 3})

    def test_bad_scale_is_http_400(self, client):
        with pytest.raises(ServiceError, match="field 'scale'"):
            client.submit({"scale": "abc"})

    def test_backend_field_is_http_400(self, client):
        with pytest.raises(ServiceError,
                           match=r"unknown field\(s\) 'backend' \(known: "
                                 r"experiments, bench_sets, scale, "
                                 r"repetitions\)") as excinfo:
            client.submit({"experiments": ["table5"], "backend": "python"})
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_http_400(self, service):
        request = urllib.request.Request(
            f"{service.url}/v1/jobs", data=b"not json at all",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(
            excinfo.value.read().decode("utf-8"))["error"]

    def test_unknown_job_is_http_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-9999-deadbeef")
        assert excinfo.value.status == 404

    def test_file_requests_cannot_escape_the_job_dir(self, service, client):
        final = _run_to_done(client, {"experiments": ["table5"]})
        # Traversal shapes and dotfiles are malformed names (400); a
        # well-formed name that does not exist is a plain 404.
        for name, expected in (("..%2fjournal.jsonl", 400),
                               (".hidden", 400),
                               ("no-such-file.json", 404)):
            with pytest.raises(ServiceError) as excinfo:
                with client._open(f"/v1/jobs/{final['id']}/files/{name}"):
                    pass
            assert excinfo.value.status == expected, name


class TestReport:
    def test_report_of_a_done_job_is_self_contained_html(self, service,
                                                         client):
        from repro.experiments.executor import ENGINE_VERSION

        final = _run_to_done(client, {"experiments": ["figure1", "table5"]})
        with client._open(f"/v1/jobs/{final['id']}/report") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            body = response.read().decode("utf-8")
        # Provenance pins the job to its manifest, engine and stats line.
        assert final["manifest_hash"] in body
        assert ENGINE_VERSION in body
        assert ServiceClient(service.url).stats_line(final) in body
        assert final["id"] in body
        # Self-contained: figures inline as SVG, no external fetches.
        assert "<svg" in body
        assert "<script" not in body

    def test_report_of_an_unknown_job_is_http_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            with client._open("/v1/jobs/job-nope/report"):
                pass
        assert excinfo.value.status == 404


class TestFederation:
    def test_ingest_url_federates_a_live_service_store(self, service, client,
                                                       tmp_path):
        _run_to_done(client, {"experiments": ["figure1"]})
        source = service.scheduler.store
        federated = ResultStore(str(tmp_path / "federated"))
        added, skipped = federated.ingest_url(
            f"{service.url}/v1/store/export")
        assert added + skipped == len(source)
        assert federated.keys() == source.keys()
        assert federated.verify()["corrupt"] == []

    def test_manifest_scoped_export_over_http(self, service, client,
                                              tmp_path):
        final = _run_to_done(client, {"experiments": ["figure1"]})
        manifest_hash = final["manifest_hash"]
        scoped = ResultStore(str(tmp_path / "scoped"))
        added, skipped = scoped.ingest_url(
            f"{service.url}/v1/store/export?manifest={manifest_hash}")
        expected = service.scheduler.store.manifest_keys(manifest_hash)
        assert added + skipped == len(expected)
        assert scoped.keys() == expected

    def test_bad_manifest_scope_is_http_400(self, service, tmp_path):
        target = ResultStore(str(tmp_path / "bad"))
        with pytest.raises(ValueError, match="HTTP Error 400"):
            target.ingest_url(f"{service.url}/v1/store/export?manifest=zzz")


class TestFaultInjection:
    def test_worker_death_is_a_structured_failure_not_a_hang(
            self, service, client, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:key~service:job")
        document = client.submit({"experiments": ["figure1"]})
        final = client.watch(document["id"])
        assert final["state"] == "failed"
        assert "InjectedCrash" in final["error"]
        assert final["id"] in final["error"]  # the stage names the job
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        # The worker thread survived its job's death and takes the next one.
        assert _run_to_done(client, {"experiments": ["table5"]})

    def test_case_level_faults_surface_as_structured_failures(
            self, service, client, monkeypatch):
        # attempts=99 keeps the fault firing past any retry budget;
        # retries=0 keeps the test from sleeping through backoff.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fail:attempts=99")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        # Extra repetitions plan seed-variant cases earlier tests have not
        # published, so the store cannot satisfy the job without simulating
        # (a store hit would bypass the injected fault entirely).
        document = client.submit({"experiments": ["figure1"],
                                  "repetitions": 3})
        final = client.watch(document["id"])
        assert final["state"] == "failed"
        assert final["failures"], "expected structured CaseFailure records"
        record = final["failures"][0]
        assert record["error"] == "InjectedFault"
        assert record["attempts"] >= 1


class TestServerEdges:
    """Edge paths of the HTTP layer, driven against a worker-less service
    (the HTTP thread runs, the scheduler does not, so jobs stay queued)."""

    @pytest.fixture()
    def idle_service(self, tmp_path):
        import threading

        svc = SimulationService(ResultStore(str(tmp_path / "store")),
                                str(tmp_path / "data"), port=0,
                                registry=REGISTRY)
        thread = threading.Thread(target=svc._httpd.serve_forever,
                                  daemon=True)
        thread.start()
        yield svc
        svc._httpd.shutdown()
        svc._httpd.server_close()

    def test_files_of_an_unfinished_job_are_http_409(self, idle_service):
        client = ServiceClient(idle_service.url)
        document = client.submit({"experiments": ["table5"]})
        assert document["state"] == "queued"
        with pytest.raises(ServiceError, match="is queued") as excinfo:
            client.fetch(document["id"], "unused")
        assert excinfo.value.status == 409

    def test_report_of_an_unfinished_job_is_http_409(self, idle_service):
        client = ServiceClient(idle_service.url)
        document = client.submit({"experiments": ["table5"]})
        with pytest.raises(ServiceError, match="once it is done") as excinfo:
            with client._open(f"/v1/jobs/{document['id']}/report"):
                pass
        assert excinfo.value.status == 409

    def test_unknown_paths_are_http_404(self, idle_service):
        client = ServiceClient(idle_service.url)
        for path in ("/nope", "/v1", "/v1/jobs/x/files/y/z"):
            with pytest.raises(ServiceError) as excinfo:
                with client._open(path):
                    pass
            assert excinfo.value.status == 404, path
        request = urllib.request.Request(f"{idle_service.url}/v2/jobs",
                                         data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_malformed_events_cursor_is_http_400(self, idle_service):
        client = ServiceClient(idle_service.url)
        document = client.submit({"experiments": ["table5"]})
        with pytest.raises(ServiceError, match="'from' must be an integer"):
            with client._open(f"/v1/jobs/{document['id']}/events?from=x"):
                pass

    def test_malformed_content_length_is_http_400(self, idle_service):
        import http.client

        conn = http.client.HTTPConnection(idle_service.host,
                                          idle_service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()


class TestSchedulerUnits:
    def test_scheduler_requires_a_store_and_workers(self, tmp_path):
        from repro.service import JobScheduler

        with pytest.raises(ValueError, match="REPRO_STORE_DIR"):
            JobScheduler(None, str(tmp_path))
        with pytest.raises(ValueError, match="workers must be"):
            JobScheduler(ResultStore(str(tmp_path / "s")), str(tmp_path),
                         workers=0)

    def test_submit_accepts_a_prevalidated_request(self, tmp_path):
        from repro.service import JobRequest, JobScheduler

        scheduler = JobScheduler(ResultStore(str(tmp_path / "s")),
                                 str(tmp_path / "d"), registry=REGISTRY)
        job = scheduler.submit(JobRequest(experiments=["table5"]))
        assert job.state == "queued"
        assert scheduler.queue.get(job.id) is job

    def test_job_wait_reaches_the_terminal_state(self, tmp_path):
        from repro.service import JobScheduler

        scheduler = JobScheduler(ResultStore(str(tmp_path / "s")),
                                 str(tmp_path / "d"), registry=REGISTRY)
        scheduler.start()
        try:
            job = scheduler.submit({"experiments": ["table5"]})
            assert job.wait(timeout=30.0)
            assert job.state == "done"
        finally:
            scheduler.stop()

    def test_empty_queue_pop_times_out_to_none(self):
        from repro.service import JobQueue

        assert JobQueue().next_job(timeout=0.05) is None
