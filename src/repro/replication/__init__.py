"""Adaptive read replication with deterministic speculative reads.

The replication layer provisions *read replicas* of hot remote ranges
from the same forecast window prescient routing plans against, keeps
them coherent with write invalidations applied on the sequenced log,
and reroutes remote read-only keys to valid holders — lock-free, and
still bit-for-bit deterministic (DESIGN.md §16):

* :mod:`repro.replication.directory` — range-granular validity
  bookkeeping (install at chunk commit, invalidate at batch routing,
  strict epoch inequality);
* :mod:`repro.replication.provision` — forecast demand ranked into
  full-range copy chunks;
* :mod:`repro.replication.router` — :class:`ReplicationRouter`, the
  planning wrapper (invalidate → provision → intercept installs →
  rewrite reads, optional request cloning per arXiv 2002.04416);
* :mod:`repro.replication.coordinator` — the strategy attach hook
  running installs through the migration session machinery and
  stamping validity at commit.
"""
