"""Fault injection and deterministic-recovery validation.

The subsystem has three layers:

* :mod:`repro.faults.plan` — declarative fault schedules
  (:class:`FaultPlan` of crashes, failovers, partitions, loss, jitter,
  stragglers), including bounded random plans drawn from a
  deterministic seed;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which turns a
  plan's windowed faults into scheduled kernel events against one
  cluster's network and worker pools;
* :mod:`repro.faults.chaos` — the chaos harness: run a Google-trace YCSB
  schedule under a plan (a crash's survivor replays the durable tier or
  is a promoted WAN replica), or with a background migration crashed,
  failed over or cancelled part-way, and verify the paper's
  determinism invariant — the final state equals the fault-free
  reference bit for bit, no committed transaction is ever lost, and
  every record sits where the ownership view says.

:mod:`repro.faults.forecast` extends the injector's reach beyond the
cluster itself: :class:`FaultyForecaster` degrades the *forecast* the
prescient router plans against while a :class:`ForecastFault` window is
active, so chaos campaigns can exercise mispredict detection and the
reactive fallback path.
"""
