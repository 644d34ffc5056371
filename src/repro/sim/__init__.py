"""Discrete-event simulation substrate.

The engine in :mod:`repro.engine` is written as chains of callbacks
running on a deterministic event :class:`Kernel`: each step schedules
the next with ``call_soon`` or ``call_now`` (now) or a timer (after
simulated time has passed).  A chain that must wait for locks or remote
data parks its next hop on what it waits for, which schedules the hop
when the wait ends; the kernel itself has no wait primitive.

The kernel is deliberately small — a FIFO run-queue and a binary heap of
timestamped callbacks, both ordered by one ``(time, sequence)`` key —
because determinism is the whole point: given the same inputs, every run
produces the same interleaving.
"""
