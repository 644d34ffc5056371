"""Benchmark harness: the machinery behind every figure reproduction.

:mod:`repro.bench.specs` defines :class:`StrategySpec` — how to build
each routing strategy (router + overlay + attached controllers) — and
the registry mapping the paper's system names to specs.

:mod:`repro.bench.harness` runs one (strategy, workload) combination on
a fresh cluster and returns an :class:`ExperimentResult` with the
series and aggregates the paper plots.

:mod:`repro.bench.reporting` renders paper-style comparison tables.
"""
