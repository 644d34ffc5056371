"""Discrete-event simulation substrate.

The engine in :mod:`repro.engine` is written as chains of callbacks
running on a deterministic event :class:`Kernel`: each step schedules
the next with ``call_soon`` (now) or a timer (after simulated time has
passed), and a chain that must wait for messages, locks, or remote data
parks on a one-shot :class:`SimEvent`.

The kernel is deliberately small — a FIFO run-queue and a binary heap of
timestamped callbacks, both ordered by one ``(time, sequence)`` key —
because determinism is the whole point: given the same inputs, every run
produces the same interleaving.
"""
