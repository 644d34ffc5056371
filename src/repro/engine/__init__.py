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
