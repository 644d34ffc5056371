"""Schism (offline look-back partitioning) [Curino et al., VLDB'10].

Schism models a workload trace as a graph — records as vertices, edge
weights counting how often two records are co-accessed by a transaction —
and partitions it to minimize cut edges subject to balance.  The original
uses METIS; METIS is not available offline, so we substitute a greedy
balanced min-cut heuristic over a `networkx` co-access graph: vertices
are taken in descending weight order and each is placed on the partition
where it has the most already-placed co-access weight, subject to a
balance cap.  This is the classic graph-growing heuristic METIS itself
uses for initial partitions, and on range-granular YCSB co-access graphs
it recovers the same structure (co-accessed ranges land together, load
spread within the slack).

As in the paper, we partition at *range* granularity and use the result
as a static initial partitioning ("the optimal partitioning at a
particular time") — Schism has no incremental mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ConfigurationError
from repro.common.types import Transaction
from repro.storage.partitioning import RangePartitioner

if TYPE_CHECKING:
    import networkx as nx


def build_coaccess_graph(
    trace: Iterable[Transaction], range_records: int
) -> nx.Graph:
    """Range-granular co-access graph of a transaction trace.

    Vertex weight = number of accesses to the range; edge weight = number
    of transactions co-accessing the two ranges.  ``networkx`` is
    imported here, not at module level: Schism is an offline baseline,
    and a process that only routes never pays for the import.
    """
    import networkx as nx

    if range_records < 1:
        raise ConfigurationError("range_records must be >= 1")
    graph = nx.Graph()
    for txn in trace:
        ranges = sorted({int(key) // range_records for key in txn.full_set})
        for vertex in ranges:
            if graph.has_node(vertex):
                graph.nodes[vertex]["weight"] += 1
            else:
                graph.add_node(vertex, weight=1)
        for i, u in enumerate(ranges):
            for v in ranges[i + 1:]:
                if graph.has_edge(u, v):
                    graph[u][v]["weight"] += 1
                else:
                    graph.add_edge(u, v, weight=1)
    return graph


def partition_graph(
    graph: nx.Graph, num_parts: int, balance_slack: float = 0.10
) -> dict[int, int]:
    """Greedy balanced min-cut assignment of vertices to parts."""
    if num_parts < 1:
        raise ConfigurationError("num_parts must be >= 1")
    total_weight = sum(data["weight"] for _n, data in graph.nodes(data=True))
    cap = (total_weight / num_parts) * (1 + balance_slack) if total_weight else 0

    part_of: dict[int, int] = {}
    part_weight = [0.0] * num_parts
    ordered = sorted(
        graph.nodes(data=True),
        key=lambda item: (-item[1]["weight"], item[0]),
    )
    for vertex, data in ordered:
        gains = [0.0] * num_parts
        for neighbor in graph[vertex]:
            assigned = part_of.get(neighbor)
            if assigned is not None:
                gains[assigned] += graph[vertex][neighbor]["weight"]
        eligible = [
            p
            for p in range(num_parts)
            if part_weight[p] + data["weight"] <= cap
        ]
        if eligible:
            chosen = max(eligible, key=lambda p: (gains[p], -p))
        else:
            chosen = min(range(num_parts), key=lambda p: (part_weight[p], p))
        part_of[vertex] = chosen
        part_weight[chosen] += data["weight"]
    return part_of


def schism_partition(
    trace: Iterable[Transaction],
    num_keys: int,
    num_nodes: int,
    range_records: int,
    balance_slack: float = 0.10,
) -> RangePartitioner:
    """Offline-partition a keyspace from a workload trace.

    Returns a :class:`RangePartitioner` assigning each ``range_records``-
    sized range to a node.  Ranges never seen in the trace are spread
    round-robin (they carry no load, so placement is irrelevant — but
    every key needs a home).
    """
    if num_keys < 1:
        raise ConfigurationError("num_keys must be >= 1")
    graph = build_coaccess_graph(trace, range_records)
    part_of = partition_graph(graph, num_nodes, balance_slack)

    num_ranges = (num_keys + range_records - 1) // range_records
    starts = [r * range_records for r in range(num_ranges)]
    owners = [
        part_of.get(r, r % num_nodes) for r in range(num_ranges)
    ]
    return RangePartitioner(starts, owners)
