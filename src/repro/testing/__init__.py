"""Test-support machinery shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection layer the
fault-tolerance suite and the CI chaos job drive through the
``REPRO_FAULT_SPEC`` environment variable.  It lives under ``src`` (not
``tests``) because the injection points sit inside the worker processes and
the atomic-write path of the real execution layer — the hooks must be
importable wherever a simulation runs, including pool workers on another
machine.  :func:`repro.testing.drivers.run_driver` runs one experiment
driver (plan, fetch, assemble) outside a manifest, for the driver tests and
the golden fixtures.
"""
