"""Run one experiment driver outside a manifest, at a reduced size."""

from __future__ import annotations

__all__ = ["run_driver"]


def run_driver(executor, plan, assemble, scale, **knobs):
    """Plan a driver's cases with ``knobs``, fetch them through ``executor``
    in one batch, and assemble their results with the same knobs.

    This is what :func:`repro.experiments.pipeline.assemble_experiment` does
    for one repetition of a registered experiment; the tests and the golden
    fixtures use it to run a driver on a few pairs.
    """
    return assemble(scale, executor.run_specs(plan(scale, **knobs)), **knobs)
