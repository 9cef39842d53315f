"""The HTTP face of the simulation service (stdlib ``http.server`` only).

``repro serve`` binds a :class:`SimulationService`: a
``ThreadingHTTPServer`` front-end over the :class:`~repro.service.scheduler.
JobScheduler` worker pool and one shared result store.  The API surface:

====== =============================== =====================================
Method Path                            Meaning
====== =============================== =====================================
POST   ``/v1/jobs``                    submit a manifest (JSON body)
GET    ``/v1/jobs``                    list every job document
GET    ``/v1/jobs/<id>``               one job document (poll this)
GET    ``/v1/jobs/<id>/events``        chunked JSONL event stream
GET    ``/v1/jobs/<id>/files``         list finished output files
GET    ``/v1/jobs/<id>/files/<name>``  one output file (figure JSON/text)
GET    ``/v1/jobs/<id>/report``        self-contained HTML report of the job
GET    ``/v1/store/export``            store export (``?manifest=H`` scopes)
GET    ``/v1/health``                  liveness + engine version + job counts
====== =============================== =====================================

Every error body is ``{"error": "<named message>"}`` — validation failures
carry the same field-attributed messages the CLI parsers print, with status
400; unknown paths/jobs 404; handler crashes 500.  The event stream uses
HTTP/1.1 chunked transfer encoding with one JSON object per line and an
``{"event": "pending"}`` heartbeat while the job makes no progress, so a
client's socket timeout never trips on a long simulation.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from ..experiments.executor import ENGINE_VERSION
from ..experiments.manifest import format_stats_line
from .scheduler import JobScheduler

__all__ = ["DEFAULT_PORT", "SimulationService"]

logger = logging.getLogger(__name__)

#: Default TCP port of ``repro serve`` (and the client's default URL).
DEFAULT_PORT = 8378

#: Served output files are the flat ``write_outputs`` names
#: (``<experiment>.json``/``.txt``, ``summary.json``); anything else —
#: separators, dots-only names, traversal — is rejected before it reaches
#: the filesystem.
_FILE_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+:-]*")


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Bound by :class:`SimulationService` after construction.
    service: "Optional[SimulationService]" = None


class SimulationService:
    """One bound server socket + scheduler pool, ready to start.

    Args:
        store: shared :class:`~repro.experiments.store.ResultStore`.
        data_dir: per-job output root.
        host: bind address.
        port: bind port (``0`` lets the OS choose; read :attr:`port` after).
        jobs: executor width per job.
        workers: concurrent job worker threads.
        registry: alternative experiment registry (tests).
    """

    def __init__(self, store, data_dir: str, *, host: str = "127.0.0.1",
                 port: int = 0, jobs: int = 1, workers: int = 1,
                 registry=None) -> None:
        self.scheduler = JobScheduler(store, data_dir, jobs=jobs,
                                      workers=workers, registry=registry)
        self._httpd = _ServiceServer((host, port), _Handler)
        self._httpd.service = self
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a background thread (the test-harness mode)."""
        self.scheduler.start()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve-http", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI mode)."""
        self.scheduler.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self.scheduler.stop()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # -- plumbing ---------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _route(self) -> Tuple[str, dict]:
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        return parsed.path.rstrip("/") or "/", query

    # -- dispatch ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        path, query = self._route()
        try:
            if path == "/v1/health":
                return self._get_health()
            if path == "/v1/jobs":
                return self._get_jobs()
            match = re.fullmatch(r"/v1/jobs/([^/]+)", path)
            if match:
                return self._get_job(match.group(1))
            match = re.fullmatch(r"/v1/jobs/([^/]+)/events", path)
            if match:
                return self._get_events(match.group(1), query)
            match = re.fullmatch(r"/v1/jobs/([^/]+)/files", path)
            if match:
                return self._get_files(match.group(1))
            match = re.fullmatch(r"/v1/jobs/([^/]+)/files/([^/]+)", path)
            if match:
                return self._get_file(match.group(1), match.group(2))
            match = re.fullmatch(r"/v1/jobs/([^/]+)/report", path)
            if match:
                return self._get_report(match.group(1))
            if path == "/v1/store/export":
                return self._get_store_export(query)
            self._send_error(404, f"unknown path {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 — one request must not kill the server
            logger.exception("GET %s failed", path)
            try:
                self._send_error(500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass

    def do_POST(self) -> None:  # noqa: N802 — http.server contract
        path, _query = self._route()
        try:
            if path == "/v1/jobs":
                return self._post_job()
            self._send_error(404, f"unknown path {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001
            logger.exception("POST %s failed", path)
            try:
                self._send_error(500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass

    # -- endpoints --------------------------------------------------------------
    def _get_health(self) -> None:
        self._send_json(200, {
            "status": "ok",
            "engine": ENGINE_VERSION,
            "jobs": self.service.scheduler.queue.counts(),
        })

    def _post_job(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return self._send_error(400, "malformed Content-Length")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            return self._send_error(400, "job request: body is not valid "
                                         "JSON")
        try:
            job = self.service.scheduler.submit(payload)
        except ValueError as exc:
            return self._send_error(400, str(exc))
        self._send_json(202, job.to_wire())

    def _get_jobs(self) -> None:
        self._send_json(200, {
            "jobs": [job.to_wire()
                     for job in self.service.scheduler.queue.jobs()]})

    def _job_or_404(self, job_id: str):
        job = self.service.scheduler.queue.get(job_id)
        if job is None:
            self._send_error(404, f"unknown job {job_id!r}")
        return job

    def _get_job(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is not None:
            self._send_json(200, job.to_wire())

    def _get_events(self, job_id: str, query: dict) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        try:
            index = int(query.get("from", ["0"])[0])
        except ValueError:
            return self._send_error(400, "events 'from' must be an integer")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while True:
                events = job.wait_events(index, timeout=10.0)
                if events:
                    index += len(events)
                    for event in events:
                        self._write_chunk(event)
                    continue
                if job.is_terminal():
                    break
                self._write_chunk({"event": "pending", "job": job.id,
                                   "state": job.state})
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            return  # client stopped watching; the job carries on

    def _write_chunk(self, event: dict) -> None:
        data = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _get_files(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        if job.state != "done":
            return self._send_error(
                409, f"job {job_id} is {job.state}; files are served once "
                     "it is done")
        self._send_json(200, {"job": job.id, "files": job.files()})

    def _get_file(self, job_id: str, name: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        if not _FILE_RE.fullmatch(name) or ".." in name:
            return self._send_error(400, f"malformed file name {name!r}")
        path = os.path.join(job.files_dir, name)
        if os.path.realpath(path) != os.path.join(
                os.path.realpath(job.files_dir), name):
            return self._send_error(400, f"malformed file name {name!r}")
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except FileNotFoundError:
            return self._send_error(404, f"job {job_id} has no file {name!r}")
        content_type = ("application/json" if name.endswith(".json")
                        else "text/plain; charset=utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_report(self, job_id: str) -> None:
        """The job's figures/tables as one self-contained HTML report.

        Rebuilt from the finished job's output files (the same
        ``write_outputs`` artifacts ``/files`` serves), so the report shows
        exactly what the client can fetch — with the job's manifest hash and
        executor statistics as provenance.
        """
        from ..analysis.export import load_result_json
        from ..analysis.htmlreport import build_html_report

        job = self._job_or_404(job_id)
        if job is None:
            return
        if job.state != "done":
            return self._send_error(
                409, f"job {job_id} is {job.state}; the report is served "
                     "once it is done")
        results = {}
        for key in job.manifest.keys:
            path = os.path.join(job.files_dir, f"{key}.json")
            try:
                results[key] = load_result_json(path)
            except (OSError, ValueError, KeyError):
                continue  # a missing/foreign file drops out of the report
        stats = job.stats
        stats_line = format_stats_line(stats["unique"], stats["simulated"],
                                       stats["store_hits"], job.caseless)
        provenance = {
            "Engine": ENGINE_VERSION,
            "Manifest": job.manifest_hash,
            "Job": job.id,
            "Experiments": ", ".join(job.manifest.keys),
            "Repetitions": str(job.manifest.repetitions),
            "Executor": stats_line,
        }
        body = build_html_report(results, provenance).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_store_export(self, query: dict) -> None:
        manifests: List[str] = query.get("manifest", [])
        store = self.service.scheduler.store
        handle = tempfile.NamedTemporaryFile(
            mode="rb", suffix=".json", prefix="repro-export-", delete=False)
        handle.close()
        try:
            try:
                store.export(handle.name, manifest_hashes=manifests or None)
            except ValueError as exc:
                return self._send_error(400, str(exc))
            with open(handle.name, "rb") as reader:
                body = reader.read()
        finally:
            try:
                os.remove(handle.name)
            except OSError:
                pass
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
