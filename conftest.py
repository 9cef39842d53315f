"""Pytest bootstrap: make the ``src`` layout importable without installation.

The package is normally installed with ``pip install -e .``; this shim keeps
``pytest`` working in minimal environments (e.g. offline CI images without the
``wheel`` package) by putting ``src/`` on ``sys.path`` when the package is not
already importable.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

try:  # pragma: no cover - trivial import probe
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Scrub the REPRO_* knobs before every test.

    The suite must behave identically on a developer machine with
    ``REPRO_STORE_DIR``/``REPRO_CACHE_DIR`` exported (the documented
    workflow) and in clean CI — without this, cache/store-sensitive tests
    would read stale results from, and publish tiny test simulations into,
    the user's real store.  Tests that exercise the env knobs set them
    explicitly via ``monkeypatch.setenv`` on top of this scrub.

    Uses a private :class:`pytest.MonkeyPatch` (not the shared function
    fixture) so a test calling ``monkeypatch.undo()`` cannot resurrect the
    developer's environment mid-test.
    """
    patcher = pytest.MonkeyPatch()
    for name in ("REPRO_SCALE", "REPRO_JOBS", "REPRO_SHARD",
                 "REPRO_CACHE_DIR", "REPRO_STORE_DIR",
                 "REPRO_CASE_TIMEOUT", "REPRO_RETRIES",
                 "REPRO_RETRY_BACKOFF", "REPRO_FAULT_SPEC",
                 "REPRO_TRACE_DIR",
                 "REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
                 "REPRO_SERVE_DATA_DIR", "REPRO_SERVE_WORKERS",
                 "REPRO_SERVE_URL"):
        patcher.delenv(name, raising=False)
    yield
    patcher.undo()
