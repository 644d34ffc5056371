"""Workload generators and client drivers for every experiment.

* :mod:`repro.workloads.zipf` — Zipfian and moving two-sided Zipfian
  key samplers (the paper's skew model).
* :mod:`repro.workloads.google_trace` — synthetic Google cluster-usage
  traces reproducing Figure 1's statistical features.
* :mod:`repro.workloads.ycsb` — the paper's Google-YCSB workload
  (Section 5.2.2) with configurable transaction-length distributions.
* :mod:`repro.workloads.tpcc` — TPC-C New-Order/Payment with hot-spot
  concentration (Section 5.3.1).
* :mod:`repro.workloads.multitenant` — the moving-hot-spot multi-tenant
  workload (Section 5.3.2) and its initial-partitioning variants.
* :mod:`repro.workloads.base` — open-loop and closed-loop client
  drivers.
"""
