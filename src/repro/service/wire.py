"""Wire schemas for the simulation service.

One strict parsing layer between HTTP bodies and the planning machinery.
Every field of a job submission is validated by the *same* named-source
parsers the CLI flags use (``parse_scale_factor``, ``parse_repetitions``),
so a malformed submission fails with the exact error a malformed flag
would — attributed to the offending field, at submission time, never deep
inside a worker.  Unknown fields are rejected outright: the wire format is
a contract, and a typo'd ``"repetitons"`` silently running one repetition
would be the service-shaped version of the silent ``REPRO_SCALE`` fallback
the parsers exist to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["JOB_SCHEMA", "JobRequest", "parse_job_request", "parse_port"]

#: Wire schema revision of job submissions and job documents.
JOB_SCHEMA = 1

#: Fields a ``POST /v1/jobs`` body may carry.
_REQUEST_FIELDS = ("experiments", "bench_sets", "scale", "repetitions")


@dataclass(frozen=True)
class JobRequest:
    """One validated manifest submission.

    Attributes:
        experiments: experiment keys to plan (``None`` + no bench sets plans
            the full registry, exactly like ``repro run all``).
        bench_sets: benchmark-set selectors planned as ``bench:<selector>``
            experiments alongside ``experiments``.
        scale: trace-length scale *factor* applied on top of the server's
            base scale (``None`` runs at the server's ``REPRO_SCALE``), so a
            served job and a serial ``repro run all --scale F`` plan the
            same manifest hash.
        repetitions: seed repetitions per planned case.
    """

    experiments: Optional[List[str]] = None
    bench_sets: Optional[List[str]] = None
    scale: Optional[float] = None
    repetitions: int = 1

    def manifest_keys(self) -> Optional[List[str]]:
        """Combine experiments and bench sets into manifest keys.

        Mirrors the CLI's ``--experiments``/``--bench-set`` combination:
        ``None`` (plan everything) only when neither field was given.
        """
        if self.experiments is None and self.bench_sets is None:
            return None
        keys = list(self.experiments or [])
        keys.extend(f"bench:{selector}" for selector in self.bench_sets or [])
        return keys

    def to_wire(self) -> dict:
        """The submission as a JSON-ready body (``None`` fields omitted)."""
        body = {"experiments": self.experiments,
                "bench_sets": self.bench_sets,
                "scale": self.scale}
        body = {name: value for name, value in body.items()
                if value is not None}
        if self.repetitions != 1:
            body["repetitions"] = self.repetitions
        return body


def _parse_name_list(raw, field: str, *, source: str) -> List[str]:
    if not isinstance(raw, list) or not raw \
            or not all(isinstance(item, str) and item.strip()
                       for item in raw):
        raise ValueError(
            f"{source}: {field!r} must be a non-empty list of names, "
            f"got {raw!r}")
    return [item.strip() for item in raw]


def parse_job_request(payload, *, source: str = "job request") -> JobRequest:
    """Validate one ``POST /v1/jobs`` body into a :class:`JobRequest`.

    Raises:
        ValueError: non-object body, unknown fields, or any field value the
            corresponding CLI parser would reject — always naming the field.
    """
    from ..experiments.manifest import parse_repetitions
    from ..experiments.scaling import parse_scale_factor

    if not isinstance(payload, dict):
        raise ValueError(
            f"{source}: body must be a JSON object, got "
            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    if unknown:
        raise ValueError(
            f"{source}: unknown field(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(_REQUEST_FIELDS)})")
    fields = {}
    if payload.get("experiments") is not None:
        fields["experiments"] = _parse_name_list(
            payload["experiments"], "experiments", source=source)
    if payload.get("bench_sets") is not None:
        fields["bench_sets"] = _parse_name_list(
            payload["bench_sets"], "bench_sets", source=source)
    if payload.get("scale") is not None:
        fields["scale"] = parse_scale_factor(
            payload["scale"], source=f"{source} field 'scale'")
    if payload.get("repetitions") is not None:
        fields["repetitions"] = parse_repetitions(
            payload["repetitions"], source=f"{source} field 'repetitions'")
    return JobRequest(**fields)


def parse_port(raw, *, source: str = "REPRO_SERVE_PORT") -> int:
    """Parse a TCP port, naming the offending setting.

    ``0`` is valid — the OS picks a free port (the test harness relies on
    it) and the serve banner reports the bound one.
    """
    try:
        port = int(raw)
        if port != float(raw):  # int() would silently truncate 1.5
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be an integer port, got {raw!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{source} must be in [0, 65535], got {port}")
    return port
