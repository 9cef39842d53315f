"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``perfbench/run.py`` writes under ``.perfbench/results``.  Records are
paired by workload and seed; a pair whose manifest hashes differ planned
different work (another engine version, scale or experiment set), so the
comparison is refused (exit code 2) rather than reported.  For every
workload and end-to-end metric the report gives each side's median and
quartiles and one verdict: ``worse`` when the new median is worse than the
base median by more than the metric's bound, ``unresolved`` when the base
runs spread wider than the bound, ``ok`` otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2e import catalog  # noqa: E402


class MixedManifests(ValueError):
    """Two paired records planned different manifests."""


def load(directory: str) -> Dict[Tuple[str, int], dict]:
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        stamp = record["provenance"]
        records[(stamp["workload"], stamp["seed"])] = record
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def compare(base: Dict[Tuple[str, int], dict],
            new: Dict[Tuple[str, int], dict]) -> List[str]:
    """Report lines; raises :class:`MixedManifests` on a mismatched pair."""
    paired = sorted(set(base) & set(new))
    for key in paired:
        hashes = (base[key]["provenance"]["manifest_hash"],
                  new[key]["provenance"]["manifest_hash"])
        if hashes[0] != hashes[1]:
            raise MixedManifests(
                f"{key[0]} seed {key[1]}: manifest {hashes[0][:12]} vs "
                f"{hashes[1][:12]}; the two sides planned different work")
    lines = []
    for workload in sorted({key[0] for key in paired}):
        seeds = [key for key in paired if key[0] == workload]
        for metric in catalog.END_TO_END:
            before = [base[key]["metrics"][metric.name]["value"]
                      for key in seeds]
            after = [new[key]["metrics"][metric.name]["value"]
                     for key in seeds]
            b_low, b_mid, b_high = quartiles(before)
            a_low, a_mid, a_high = quartiles(after)
            change = (a_mid - b_mid) / b_mid
            worse = change if metric.better == "lower" else -change
            spread = (b_high - b_low) / b_mid
            verdict = "ok"
            if worse > metric.bound:
                verdict = "worse"
            elif spread > metric.bound:
                verdict = "unresolved"
            lines.append(
                f"{workload:<13} {metric.name:<12} base {b_mid:.4g} "
                f"[{b_low:.4g}, {b_high:.4g}]  new {a_mid:.4g} "
                f"[{a_low:.4g}, {a_high:.4g}] {metric.unit}  "
                f"{change:+.1%} (bound {metric.bound:.0%}, n={len(seeds)})"
                f"  {verdict}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except MixedManifests as exc:
        print(f"compare: refusing to mix results: {exc}", file=sys.stderr)
        return 2
    if not lines:
        print("compare: no workload/seed pairs in common", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
