"""Benchmark harness for ``snloc.localize``.

``workloads`` fixes the seeded instance families, ``harness`` runs one
workload for a time budget and turns the solves into metrics, and
``tracing`` wraps the solver's module-level layer functions from outside to
record spans and per-layer counts.  ``bench/run.py`` is the command line.
"""
