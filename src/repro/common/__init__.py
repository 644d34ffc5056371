"""Shared primitives used by every subsystem.

This package holds the vocabulary of the whole reproduction: record keys,
transactions, node identifiers, configuration dataclasses, deterministic
random-number helpers, and the exception hierarchy.  Nothing in here knows
about simulation, routing, or storage — it is the bottom layer.
"""
