"""Cross-subsystem consistency checks over a finished run.

:func:`audit_placement` verifies that physical record placement, the
ownership view and the WAL-visible migration history agree — the check
every chaos trial and ``python -m repro.obs`` report runs.
"""
