"""Determinism sanitizer: lint, event-stream digests, dual replay.

Every claim this reproduction makes rests on the simulator being a pure
function of ``(spec, seed)``.  This package makes that property an
*enforced invariant* instead of a hope, with three layers of defense:

1. **Static lint** (:mod:`repro.sanitize.lint`) — an AST walk over the
   source tree that flags nondeterminism hazards before they run:
   iteration over ``set``/``frozenset`` values in order-sensitive
   positions, wall clocks, unseeded randomness, ambient entropy,
   ``id()``/``hash()``-keyed ordering, and filesystem-order dependence.
   ``python -m repro.sanitize lint src/repro`` gates CI; individual
   lines opt out with ``# sanitize: ok(<reason>)``.

2. **Runtime digest** (:mod:`repro.sanitize.digest`) — an incremental
   hash of the kernel's dispatched event stream plus semantic taps at
   the sequencer/scheduler/lock boundaries.  Disabled it costs one
   ``None`` check per event; enabled it fingerprints *the order things
   happened*, which golden final-state checks cannot see.

3. **Dual replay** (:mod:`repro.sanitize.replay`) — run the same
   :class:`repro.api.ExperimentSpec` twice in-process and once per
   perturbed ``PYTHONHASHSEED`` in a subprocess, compare digests, and on
   mismatch localize the *first divergent event* with surrounding trace
   context from :mod:`repro.obs`.

The fixture corpus in :mod:`repro.sanitize.corpus` proves each lint rule
fires; ``tests/sanitize/`` wires all three layers into the test suite.
Beside them, :mod:`repro.sanitize.reach` runs every entry point under
``cProfile`` and fails on functions none of them enters.
"""
