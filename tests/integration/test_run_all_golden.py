"""Byte-for-byte pin of every ``repro run all`` output at scale 0.05.

The figure goldens in :mod:`test_golden_traces` pin a few figures at a
hand-picked smoke scale.  This fixture pins the *whole* manifest as the
CLI produces it: every experiment's JSON result and ``summary.json`` of
``repro run all --scale 0.05``, compared as bytes.  Any change to the
engine, the workload streams, the executor's scheduling or the assembly
that moves a single output byte fails here; on a mismatch the parsed JSON
is compared first, so the failure shows a readable diff.

Regenerating (only legitimate after an *intentional* statistics change —
bump ``ENGINE_VERSION`` in the same commit)::

    PYTHONPATH=src python tests/integration/test_run_all_golden.py --regen
"""

import json
import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro.experiments.executor import RunResultCache  # noqa: E402
from repro.experiments.manifest import build_manifest  # noqa: E402
from repro.experiments.pipeline import run_serial  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "run_all")

#: ``repro run all --scale 0.05``: the smallest scale the CLI accepts, where
#: every trace budget sits at its floor.
SCALE = ExperimentScale().scaled_by(0.05)


def _run_all(out_dir):
    """Run the full manifest serially, in memory, into ``out_dir``."""
    run_serial(build_manifest(scale=SCALE), jobs=1,
               cache=RunResultCache(store=False),
               out_dir=out_dir)
    return sorted(name for name in os.listdir(out_dir)
                  if name.endswith(".json"))


@pytest.fixture(scope="module")
def outputs():
    with tempfile.TemporaryDirectory() as out_dir:
        names = _run_all(out_dir)
        contents = {}
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as handle:
                contents[name] = handle.read()
        yield contents


def _golden_names():
    return sorted(name for name in os.listdir(GOLDEN_DIR)
                  if name.endswith(".json"))


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_output_matches_golden(outputs, name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        expected = handle.read()
    actual = outputs[name]
    assert json.loads(actual) == json.loads(expected), (
        f"{name} drifted from its `run all` golden; regenerate only after an "
        "intentional statistics change (see the module docstring)")
    assert actual == expected


def _regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in _golden_names():
        os.remove(os.path.join(GOLDEN_DIR, name))
    with tempfile.TemporaryDirectory() as out_dir:
        for name in _run_all(out_dir):
            with open(os.path.join(out_dir, name), "rb") as src, \
                    open(os.path.join(GOLDEN_DIR, name), "wb") as dst:
                dst.write(src.read())
            print(f"wrote {os.path.join(GOLDEN_DIR, name)}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("refusing to overwrite the run-all golden without --regen")
    _regenerate()
