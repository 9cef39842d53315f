#!/usr/bin/env python3
"""Hardware cost study: what does Noisy-XOR-BP cost in area and delay?

Table 5 of the paper reports RTL synthesis results (TSMC 28 nm) for the
Noisy-XOR-BP additions to a 2-way BTB and a TAGE pattern history table.  The
package reproduces the *shape* of that table with an analytic gate/SRAM model
(:mod:`repro.hwcost`); this example sweeps the structure sizes well beyond the
three points the paper shows and prints where the overheads go as tables grow.

Run:  python examples/hwcost_report.py
"""

from repro.analysis import render_table, sweep
from repro.hwcost import btb_cost, tage_pht_cost


def btb_sweep() -> None:
    """Noisy-XOR-BTB cost across BTB geometries."""
    result = sweep(
        {"entries_per_way": [128, 256, 512, 1024, 2048],
         "n_ways": [2, 4]},
        lambda entries_per_way, n_ways: btb_cost(entries_per_way, n_ways),
        metric="estimate")
    rows = [[f"{point.params['n_ways']}w{point.params['entries_per_way']}",
             f"{100 * point.value.timing_overhead:.2f}%",
             f"{100 * point.value.area_overhead:.3f}%"]
            for point in result.points]
    print(render_table(["BTB geometry", "timing overhead", "area overhead"], rows,
                       title="Noisy-XOR-BTB cost (Table 5 model, extended sweep)"))
    print()


def pht_sweep() -> None:
    """Noisy-XOR-PHT cost across TAGE table sizes."""
    result = sweep(
        {"entries_per_table": [1024, 2048, 4096, 8192],
         "n_tables": [6, 12]},
        lambda entries_per_table, n_tables: tage_pht_cost(entries_per_table, n_tables),
        metric="estimate")
    rows = [[f"{point.params['entries_per_table']} x {point.params['n_tables']} tables",
             f"{100 * point.value.timing_overhead:.2f}%",
             f"{100 * point.value.area_overhead:.3f}%"]
            for point in result.points]
    print(render_table(["TAGE PHT geometry", "timing overhead", "area overhead"], rows,
                       title="Noisy-XOR-PHT cost (Table 5 model, extended sweep)"))
    print()


def paper_points() -> None:
    """The exact six configurations Table 5 reports."""
    rows = []
    for entries in (128, 256, 512):
        estimate = btb_cost(entries, 2)
        rows.append([f"BTB 2w{entries}", f"{100 * estimate.timing_overhead:.2f}%",
                     f"{100 * estimate.area_overhead:.2f}%"])
    for entries in (1024, 2048, 4096):
        estimate = tage_pht_cost(entries)
        rows.append([f"TAGE PHT {entries}/table", f"{100 * estimate.timing_overhead:.2f}%",
                     f"{100 * estimate.area_overhead:.2f}%"])
    print(render_table(["structure", "timing overhead", "area overhead"], rows,
                       title="Table 5 configurations"))
    print("Paper: BTB timing 0.70-1.46%, area 0.13-0.24%; "
          "PHT timing ~2%, area 0.03-0.11%.")
    print()


def main() -> None:
    paper_points()
    btb_sweep()
    pht_sweep()


if __name__ == "__main__":
    main()
