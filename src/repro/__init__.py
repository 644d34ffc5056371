"""Hermes reproduction: prescient data partitioning and migration for
deterministic database systems (Lin et al., SIGMOD 2021).

The library is a discrete-event simulation of a Calvin-style
deterministic database cluster plus the full strategy zoo the paper
evaluates.  A complete experiment is four lines::

    from repro import Cluster, ClusterConfig, PrescientRouter, make_uniform_ranges

    cluster = Cluster(ClusterConfig(num_nodes=4), PrescientRouter(),
                      make_uniform_ranges(100_000, 4))
    cluster.load_data(range(100_000))
    # ... submit transactions (see repro.workloads) and run.

Subpackages:

* :mod:`repro.common`    — keys, transactions, configs, deterministic RNG
* :mod:`repro.sim`       — the discrete-event kernel
* :mod:`repro.storage`   — record stores, partitioners, logs
* :mod:`repro.engine`    — sequencer, lock manager, executors, cluster
* :mod:`repro.core`      — prescient routing, fusion table, provisioning
* :mod:`repro.baselines` — Calvin, G-Store+, LEAP, T-Part, Clay, Schism
* :mod:`repro.workloads` — Google-trace YCSB, TPC-C, multi-tenant, drivers
* :mod:`repro.faults`    — crash/partition/straggler injection and the
  deterministic-recovery chaos harness
* :mod:`repro.bench`     — the experiment harness behind every figure
"""

from repro.common.config import (
    ClusterConfig,
    CostModel,
    EngineConfig,
    FusionConfig,
    RoutingConfig,
)
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction, TxnKind
from repro.core.fusion_table import FusionTable
from repro.core.plan import RoutingPlan, TxnPlan
from repro.core.prescient import PrescientRouter
from repro.core.router import ClusterView, Router
from repro.engine.cluster import Cluster
from repro.engine.migration import (
    MigrationController,
    MigrationSession,
    MigrationState,
)
from repro.engine.recovery import (
    DurableState,
    recover_from_crash,
    replay_command_log,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.storage.partitioning import (
    HashPartitioner,
    RangePartitioner,
    make_uniform_ranges,
)

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "Cluster",
    "ClusterConfig",
    "ClusterView",
    "CostModel",
    "DeterministicRNG",
    "DurableState",
    "EngineConfig",
    "FaultInjector",
    "FaultPlan",
    "FusionConfig",
    "FusionTable",
    "HashPartitioner",
    "MigrationController",
    "MigrationSession",
    "MigrationState",
    "PrescientRouter",
    "RangePartitioner",
    "Router",
    "RoutingConfig",
    "RoutingPlan",
    "Transaction",
    "TxnKind",
    "TxnPlan",
    "make_uniform_ranges",
    "recover_from_crash",
    "replay_command_log",
]
