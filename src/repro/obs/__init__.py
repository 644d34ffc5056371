"""Observability: structured tracing and trace analysis.

:mod:`repro.obs.tracer` records and :mod:`repro.obs.analyze` reads a
recorded trace back.  Run totals are not kept here: they are plain
counters on :class:`~repro.engine.metrics.ClusterMetrics`.  Recording a
run::

    from repro.obs.tracer import Tracer

    tracer = Tracer(preset="fig07", seed=1)
    result = run_workload(..., trace=tracer)
    tracer.write_jsonl("run.trace.jsonl")
    tracer.write_chrome_trace("run.trace.json")   # open in Perfetto

``python -m repro.obs record --preset fig07`` records and summarizes a
traced run from the command line; see :mod:`repro.obs.__main__`.
"""
