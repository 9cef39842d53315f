"""End-to-end benchmark of the reproduction: workloads, tracing and gates.

The package holds everything ``perfbench/run.py`` needs besides the program
under test (``src/repro``), which it imports from the checkout it sits in:

* :mod:`.catalog` — every metric the benchmark reports, with its unit and,
  for per-layer metrics, the end-to-end metric and workload it should move;
* :mod:`.spans` — the in-memory span recorder and self-time arithmetic;
* :mod:`.layers` — wrappers installed around each layer's public entry
  points for the traced run;
* :mod:`.gate` — output digests, simulated-statistic totals, pins and
  provenance;
* :mod:`.workloads` — the ``st_tage``, ``smt_zoo`` and ``warm_service``
  workloads.
"""
