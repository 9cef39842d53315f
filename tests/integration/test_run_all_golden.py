"""Byte-for-byte pin of every ``repro run all`` output at scale 0.05.

The figure goldens in :mod:`test_golden_traces` pin a few figures at a
hand-picked smoke scale.  This fixture pins the *whole* manifest as the
CLI produces it: every experiment's JSON result and ``summary.json`` of
``repro run all --scale 0.05``, compared as bytes.  Any change to the
engine, the workload streams, the executor's scheduling or the assembly
that moves a single output byte fails here; on a mismatch the parsed JSON
is compared first, so the failure shows a readable diff.  The same run
also pins every expectation's verdict (:data:`VERDICTS`).

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

from repro.analysis.export import load_result_json  # noqa: E402
from repro.analysis.report import evaluate  # noqa: E402
from repro.experiments.executor import RunResultCache  # noqa: E402
from repro.experiments.manifest import build_manifest  # noqa: E402
from repro.experiments.pipeline import run_serial  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "run_all")

#: ``repro run all --scale 0.05``: the smallest scale the CLI accepts, where
#: every trace budget sits at its floor.
SCALE = ExperimentScale().scaled_by(0.05)


#: Every expectation's verdict on the scale-0.05 run.  At this smoke scale
#: the short traces also leave Figure 2's SMT-2 flush cost and the PoC's
#: protected BTB rate (2.00%) short of the paper; EXPERIMENTS.md records the
#: verdicts at scale 0.25, where only Figure 10 (LTAGE) diverges.
VERDICTS = {
    "figure1": "holds",
    "figure2": "diverges",
    "figure3": "known (tournament-pf-inversion)",
    "figure7": "known (worst-case-shift)",
    "figure8": "known (scaled-magnitudes, worst-case-shift)",
    "figure9": "known (scaled-magnitudes, worst-case-shift)",
    "figure10": "diverges",
    "table1": "holds",
    "table2": "holds",
    "table3": "holds",
    "table4": "known (short-trace-zero-rates)",
    "table5": "known (hwcost-small-btb-area)",
    "poc_attacks": "diverges",
    "ablation_encoder": "holds",
    "ablation_key_refresh": "holds",
    "ablation_pht_granularity": "holds",
    "ablation_switch_interval": "holds",
    "ablation_penalty": "holds",
    "smt4_noisy_xor": "known (history-aliasing)",
}


def _run_all(out_dir):
    """Run the full manifest serially, in memory, into ``out_dir``; returns
    the experiment results by key."""
    return run_serial(build_manifest(scale=SCALE), jobs=1,
                      cache=RunResultCache(store=False), out_dir=out_dir)


def _json_names(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".json"))


@pytest.fixture(scope="module")
def run_all():
    """``(results by key, output bytes by file name)`` of one run."""
    with tempfile.TemporaryDirectory() as out_dir:
        results = _run_all(out_dir)
        contents = {}
        for name in _json_names(out_dir):
            with open(os.path.join(out_dir, name), "rb") as handle:
                contents[name] = handle.read()
        yield results, contents


@pytest.fixture(scope="module")
def outputs(run_all):
    return run_all[1]


def _golden_names():
    return _json_names(GOLDEN_DIR)


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


def test_verdicts_are_pinned(run_all):
    results, _ = run_all
    assert {key: evaluate(key, result)[1].label
            for key, result in results.items()} == VERDICTS


def test_verdicts_survive_the_json_round_trip():
    # The service renders its report from the written JSON files.
    assert {key: evaluate(key, load_result_json(
        os.path.join(GOLDEN_DIR, f"{key}.json")))[1].label
        for key in VERDICTS} == VERDICTS


def _regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in _golden_names():
        os.remove(os.path.join(GOLDEN_DIR, name))
    with tempfile.TemporaryDirectory() as out_dir:
        _run_all(out_dir)
        for name in _json_names(out_dir):
            with open(os.path.join(out_dir, name), "rb") as src, \
                    open(os.path.join(GOLDEN_DIR, name), "wb") as dst:
                dst.write(src.read())
            print(f"wrote {os.path.join(GOLDEN_DIR, name)}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("refusing to overwrite the run-all golden without --regen")
    _regenerate()
