"""Thin ``urllib`` client of the simulation service.

``repro submit|watch|fetch`` run through this class, so the CLI is a client
of exactly the HTTP API any other consumer sees — no private side channel.
Errors surface as :class:`ServiceError` carrying the server's named
``{"error": ...}`` message (a validation rejection reads identically to the
same mistake on a local CLI flag) or the connection failure.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A failed service interaction (HTTP error or unreachable server)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` endpoint.

    Args:
        base_url: service root, e.g. ``http://127.0.0.1:8378``.
        timeout: per-socket-operation timeout in seconds.  The watch stream
            stays under it through the server's heartbeat events.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport --------------------------------------------------------------
    def _open(self, path: str, payload: Optional[dict] = None):
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error")
            except (ValueError, UnicodeDecodeError, AttributeError):
                detail = None
            raise ServiceError(detail or f"{url}: HTTP {exc.code}",
                               status=exc.code) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                f"cannot reach the service at {self.base_url} ({exc}); is "
                "'repro serve' running?") from None

    def _json(self, path: str, payload: Optional[dict] = None) -> dict:
        with self._open(path, payload) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- API --------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("/v1/health")

    def submit(self, payload: dict) -> dict:
        """Submit one job; returns the job document (``id``, ``state``...)."""
        return self._json("/v1/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._json(f"/v1/jobs/{job_id}")

    def jobs(self) -> List[dict]:
        return self._json("/v1/jobs")["jobs"]

    def watch(self, job_id: str,
              on_event: Optional[Callable[[dict], None]] = None) -> dict:
        """Follow a job's event stream to a terminal state.

        Streams ``/v1/jobs/<id>/events`` (chunked JSONL), invoking
        ``on_event`` for every real event (heartbeats are swallowed), and
        returns the final job document.  If the stream drops mid-job the
        watch resumes from the last seen event index — progress is never
        double-reported.
        """
        index = 0
        while True:
            try:
                with self._open(f"/v1/jobs/{job_id}/events?from={index}") \
                        as response:
                    for line in response:
                        event = json.loads(line.decode("utf-8"))
                        if event.get("event") == "pending":
                            continue
                        index += 1
                        if on_event is not None:
                            on_event(event)
            except (OSError, ValueError):
                # Torn stream (server restart, proxy hiccup): fall back to
                # the job document; resume streaming if it is still running.
                pass
            document = self.job(job_id)
            if document["state"] in ("done", "failed"):
                return document

    def fetch(self, job_id: str, out_dir: str) -> List[str]:
        """Download every output file of a finished job into ``out_dir``.

        Returns the written paths.  The files are the exact bytes a serial
        ``repro run all --out`` writes, so ``diff -r`` against one passes.
        """
        listing = self._json(f"/v1/jobs/{job_id}/files")
        os.makedirs(out_dir, exist_ok=True)
        written: List[str] = []
        for name in listing["files"]:
            with self._open(f"/v1/jobs/{job_id}/files/{name}") as response:
                body = response.read()
            path = os.path.join(out_dir, name)
            with open(path, "wb") as handle:
                handle.write(body)
            written.append(path)
        return written

    def stats_line(self, document: Dict) -> str:
        """The job's statistics in the CLI's assertable format.

        Matches :func:`repro.cli._stats_line` byte for byte, so the CI grep
        that certifies 100% store hit rates works identically on a served
        run and a local one.
        """
        from ..experiments.manifest import format_stats_line

        stats = document.get("stats", {})
        return format_stats_line(stats.get("unique", 0),
                                 stats.get("simulated", 0),
                                 stats.get("store_hits", 0),
                                 document.get("caseless", ""))
