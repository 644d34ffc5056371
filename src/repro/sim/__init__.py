"""Discrete-event simulation substrate.

The engine in :mod:`repro.engine` is written as cooperating *processes*
(Python generators) running on a deterministic event :class:`Kernel`.
Processes yield :class:`Delay` objects to consume simulated time and
:class:`SimEvent` objects to wait for messages, locks, or remote data.

The kernel is deliberately small — a binary heap of timestamped callbacks
with a FIFO tiebreaker — because determinism is the whole point: given the
same inputs, every run produces the same interleaving.
"""
