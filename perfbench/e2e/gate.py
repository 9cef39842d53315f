"""Correctness gate and provenance.

The gate never trusts a timing run's output: every unit of work is
digested (SHA-256 over the ``write_outputs`` bytes), its simulated
statistics are totalled, and both are compared with the first unit of the
run, with the pins for the default seed, and — for a few sampled cases —
with the scalar reference engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import random
import subprocess
from typing import Dict, List, Optional

PINS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pins.json")

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0

PIN_FIELDS = ("scale_factor", "manifest_hash", "outputs_sha256", "branches",
              "cycles", "mispredicts")


def digest_dir(path: str) -> str:
    """SHA-256 over every file of a flat output directory, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def totals(results: Dict[str, object]) -> Dict[str, object]:
    """Simulated branches, cycles and mispredictions over a result set,
    summed in key order so the float total is reproducible."""
    branches = mispredicts = 0
    cycles = 0.0
    for key in sorted(results):
        result = results[key]
        cycles += result.cycles
        for thread in result.threads.values():
            branches += thread.branches
            mispredicts += thread.mispredicts
    return {"branches": branches, "cycles": cycles,
            "mispredicts": mispredicts}


def load_pins() -> dict:
    try:
        with open(PINS_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_pin(workload: str, record: dict, *,
              update: bool = False) -> List[str]:
    """Mismatches between a default-seed record and its pin.

    ``record`` holds ``scale_factor``, ``manifest_hash``,
    ``outputs_sha256`` and the :func:`totals` fields.  A missing pin is a
    mismatch: the gate must not pass silently on an unpinned workload.
    With ``update`` the record replaces the pin instead.
    """
    if update:
        write_pin(workload, record)
        return []
    pin = load_pins().get(workload)
    if pin is None:
        return [f"no pin for {workload} in {os.path.basename(PINS_PATH)}"]
    return [f"{field}: pinned {pin.get(field)!r}, got {record[field]!r}"
            for field in PIN_FIELDS
            if pin.get(field) != record[field]]


def write_pin(workload: str, record: dict) -> None:
    pins = load_pins()
    pins[workload] = {field: record[field] for field in PIN_FIELDS}
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextlib.contextmanager
def scalar_engine():
    """Force every core onto the scalar reference loop."""
    from repro.cpu.core import SingleThreadCore
    from repro.cpu.smt import SmtCore

    originals = {cls: cls.__dict__["run"] for cls in (SingleThreadCore,
                                                      SmtCore)}
    for cls, run in originals.items():
        def scalar_run(self, *args, _run=run, **kwargs):
            kwargs["engine"] = "scalar"
            return _run(self, *args, **kwargs)
        cls.run = scalar_run
    try:
        yield
    finally:
        for cls, run in originals.items():
            cls.run = run


def oracle_mismatches(specs: Dict[str, object], results: Dict[str, object],
                      seed: int, samples: int = 2) -> List[str]:
    """Re-simulate sampled cases on the scalar engine; list disagreements.

    The batched kernels are certified bit-identical to the scalar loop, so
    any difference is a correctness failure of the measured program.
    """
    from repro.cpu.stats import run_result_to_dict
    from repro.experiments.executor import RunResultCache, SweepExecutor

    keys = sorted(specs)
    chosen = random.Random(seed).sample(keys, min(samples, len(keys)))
    executor = SweepExecutor(jobs=1, cache=RunResultCache(directory=False,
                                                          store=False))
    problems = []
    with scalar_engine():
        for key in chosen:
            reference = executor.run_spec(specs[key])
            if run_result_to_dict(reference) != \
                    run_result_to_dict(results[key]):
                problems.append(f"case {key[:12]} differs from the scalar "
                                "reference engine")
    return problems


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources (``src/**/*.py``, path order)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths: List[str] = []
    for directory, _dirs, files in os.walk(src):
        paths.extend(os.path.join(directory, name) for name in files
                     if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True,
                                   timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def provenance(root: str, *, workload: str, seed: int, scale,
               scale_factor: float, manifest_hash: str, jobs: int,
               trace: bool) -> dict:
    from dataclasses import asdict

    from repro.experiments.executor import ENGINE_VERSION

    return {
        "engine_version": ENGINE_VERSION,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "scale_factor": scale_factor,
        "scale": asdict(scale),
        "manifest_hash": manifest_hash,
        "jobs": jobs,
        "trace": trace,
    }

