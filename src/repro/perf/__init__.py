"""Performance microbenchmarks and PR-over-PR regression tracking.

``python -m repro.perf`` runs a small suite of wall-clock microbenchmarks
over the simulator's hot paths — kernel dispatch, timer churn, network
send, batch routing, and a small end-to-end cluster run — and reports
throughput in *simulator events per wall-clock second* (``events/s``).

Results append to ``BENCH_sim.json`` at the repo root, so the perf
trajectory is tracked commit over commit, and ``--compare`` fails the run
when a metric regresses beyond a tolerance (the CI perf-smoke job).

All scenarios are deterministic in their *simulated* behavior; only the
wall-clock measurements vary between machines.
"""
