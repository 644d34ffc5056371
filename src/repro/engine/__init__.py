"""The deterministic database engine (Calvin-style substrate).

Wires the simulation kernel, storage, and routing layers into a running
cluster: a global :class:`Sequencer` cuts totally ordered batches, each
batch is routed by the configured :class:`Router`, lock requests are
enqueued in plan order through the conservative ordered
:class:`LockManager`, and per-node :class:`Node` worker pools execute the
transaction phases (local reads → remote-read collection → logic → writes
→ post-commit write-backs/evictions).

The top-level entry point is :class:`Cluster`.
"""

from repro.engine.cluster import Cluster
from repro.engine.locks import LockManager, LockMode
from repro.engine.migration import (
    MigrationController,
    MigrationSession,
    MigrationState,
)
from repro.engine.node import Node, WorkerPool
from repro.engine.ollp import OLLP, DependentTxnSpec
from repro.engine.recovery import (
    DurableState,
    promote_replica,
    recover_from_crash,
    replay_command_log,
)
from repro.engine.sequencer import Sequencer

__all__ = [
    "Cluster",
    "DurableState",
    "LockManager",
    "LockMode",
    "DependentTxnSpec",
    "MigrationController",
    "MigrationSession",
    "MigrationState",
    "Node",
    "OLLP",
    "Sequencer",
    "WorkerPool",
    "promote_replica",
    "recover_from_crash",
    "replay_command_log",
]
