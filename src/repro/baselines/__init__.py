"""Baseline systems the paper compares against (Section 5.2.1).

Each baseline is re-implemented from its own paper's description at the
granularity this paper evaluates — its routing and migration policy —
and executes on the same deterministic engine as Hermes:

* :class:`CalvinRouter` — vanilla multi-master deterministic execution.
* :class:`GStoreRouter` — look-present grouping: pull the accessed
  records to one master, push them back after commit.
* :class:`LeapRouter` — look-present fusion: migrate accessed records to
  the master and leave them there; no load balancing.
* :class:`TPartRouter` — transaction-routing-only with forward pushing;
  records return to their homes at batch end.
* :class:`ClayController` (+ :class:`ClayRouter`) — look-back clump
  re-partitioning triggered by overload, executed as Squall-style
  chunks by :class:`~repro.engine.migration.MigrationController`.
* :func:`schism_partition` — offline co-access graph partitioning.

Squall itself is no separate module: its chunked range plans are
:func:`~repro.core.provisioning.range_chunks`, run by the same
:class:`~repro.engine.migration.MigrationController` Hermes' cold
migration uses (Figure 14's ``squall`` row).
"""
