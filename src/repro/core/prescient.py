"""The prescient transaction routing algorithm (Section 3.2, Algorithm 1).

Given a totally ordered batch B and the current partitioning P0 (static
ranges + fusion table), the router computes a permutation B′ and routes
x_1..x_b approximately solving Eq. (1):

    minimize   Σ_i r(x_i; T_i ∈ B′, P_{i-1})
    subject to l(P) ≤ θ = ceil(b/n · (1+α))   for every partition P,

where r counts the records the master must fetch from other nodes and
P_{i-1} is the partitioning *after* the first i-1 transactions' on-the-fly
migrations.  The three steps mirror the paper exactly:

1. **Greedy reorder + route** — repeatedly pick the (transaction, node)
   pair with the fewest remote records under the evolving ownership view,
   fusing each transaction's write-set onto its master as we go (the
   "write-set only" simplification of Section 3.2.2, so concurrent remote
   readers can share records).
2. **Load census** — find overloaded (l > θ) and underloaded (l < θ)
   nodes.
3. **Backward re-route** — walk B′ from the tail, moving transactions off
   overloaded nodes onto underloaded ones whenever the move adds at most
   δ remote edges, counting both the transaction's own remote reads and
   the remote reads it inflicts on *later* transactions that consume its
   writes; relax δ until the constraint holds.

The implementation keeps three auxiliary structures so the whole thing
runs in roughly O(b·(a + n) + moves·b·a) instead of the brute-force
O(b!·n^b):

* per-transaction owner-count vectors, updated incrementally through an
  inverted key→transactions index as ownership evolves;
* a ``writer_history`` per key — the ordered positions in B′ that write
  (and thus move) the key — which answers "who owned k just before
  position i" in O(log w);
* a scratch ownership overlay, so planning never touches the real fusion
  table until the final, authoritative plan-construction pass.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Sequence

from repro.common.config import CostModel, RoutingConfig
from repro.common.types import Batch, Key, NodeId, Transaction, TxnKind
from repro.core.plan import Migration, RoutingPlan, TxnPlan
from repro.core.router import (
    ClusterView,
    Router,
    build_chunk_migration_plan,
    split_system_txns,
)

#: Upper bound on the remote-edge relaxation δ of Algorithm 1's
#: balancing phase before it gives up; the trivial even-spread plan is
#: always feasible, so in practice δ stays small, but a bound keeps the
#: worst case finite.
MAX_DELTA = 64


class _TxnState:
    """Planning-time bookkeeping for one transaction."""

    __slots__ = (
        "index", "txn", "keys", "counts", "best_node", "best_count", "stamp"
    )

    def __init__(self, index: int, txn: Transaction, width: int) -> None:
        self.index = index
        self.txn = txn
        self.keys: tuple[Key, ...] = txn.ordered_keys
        #: per-node key counts, indexed by node id (node ids are dense
        #: small ints, so a flat list beats a dict on every update).
        self.counts: list[int] = [0] * width
        self.best_node: NodeId = 0
        self.best_count: int = -1
        #: Bumped whenever ``counts`` changes; heap entries carry the
        #: stamp they were pushed under so stale ones are skippable.
        self.stamp = 0

    def refresh_best(
        self, active_sorted: tuple[NodeId, ...], fallback: NodeId
    ) -> None:
        """Recompute the active node owning most of this txn's keys.

        Scans active nodes in ascending order with a strict-improvement
        test: the winner is the *smallest* active node holding the
        (positive) maximum count, or ``fallback`` with count 0 when no
        active node owns anything.
        """
        counts = self.counts
        best_node, best_count = fallback, 0
        for node in active_sorted:
            count = counts[node]
            if count > best_count:
                best_node, best_count = node, count
        self.best_node = best_node
        self.best_count = best_count

    def remote_records(self) -> int:
        """r(best_node; T) under the current counts."""
        return len(self.keys) - max(self.best_count, 0)


class PrescientRouter(Router):
    """Hermes' scheduler-side routing algorithm."""

    name = "hermes"

    def __init__(self, config: RoutingConfig | None = None) -> None:
        self.config = config if config is not None else RoutingConfig()
        # Run-level planning counters, sampled by the tracing layer.
        self.batches_routed = 0
        self.txns_routed = 0
        self.moves_planned = 0

    # ------------------------------------------------------------------
    # Router interface
    # ------------------------------------------------------------------

    def routing_cost_us(self, batch_size: int, costs: CostModel) -> float:
        return (
            costs.route_fixed_us
            + costs.route_per_txn_us * batch_size
            + costs.route_prescient_quad_us * batch_size * batch_size
        )

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        user_txns, system_plans, migration_txns = split_system_txns(batch, view)
        order = self._plan_order(user_txns, view)
        plan = RoutingPlan(epoch=batch.epoch, plans=system_plans)
        for index, master in order:
            plan.plans.append(self._build_plan(user_txns[index], master, view))
        # Cold-migration chunks run after the batch's user transactions so
        # background re-partitioning yields to foreground work; their lock
        # requests still conflict with *later* batches touching the chunk.
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        self.batches_routed += 1
        self.txns_routed += len(user_txns)
        self.moves_planned += sum(len(p.migrations) for p in plan.plans)
        return plan

    def stats_snapshot(self) -> dict[str, int]:
        """Cumulative planning counters (per-batch trace samples)."""
        return {
            "batches": self.batches_routed,
            "txns": self.txns_routed,
            "moves_planned": self.moves_planned,
        }

    def reset_stats(self) -> None:
        """Zero the planning counters.

        Called by the bench harness at the start of every run so a
        router instance reused across back-to-back ``run_experiment``
        calls does not leak stale counts into the next run's metrics.
        """
        self.batches_routed = 0
        self.txns_routed = 0
        self.moves_planned = 0

    # ------------------------------------------------------------------
    # Steps 1-3 of Algorithm 1 (search phase; touches only scratch state)
    # ------------------------------------------------------------------

    def _plan_order(
        self, txns: Sequence[Transaction], view: ClusterView
    ) -> list[tuple[int, NodeId]]:
        """Return [(original index, master)] in execution (B′) order."""
        if not txns:
            return []
        active_sorted = tuple(sorted(view.active_nodes))
        fallback = view.active_nodes[0]

        # Resolve the whole batch's read/write sets in one bulk overlay
        # pass.  Distinct keys are collected in first-encounter order —
        # the exact order the per-key code consulted the overlay — so
        # LRU recency in the fusion table evolves identically.
        distinct: list[Key] = []
        seen: set[Key] = set()
        for txn in txns:
            for key in txn.ordered_keys:
                if key not in seen:
                    seen.add(key)
                    distinct.append(key)
        owners = view.ownership.owners_bulk(distinct)
        base_owner: dict[Key, NodeId] = dict(zip(distinct, owners))
        # Count slots must cover every active node and every current
        # owner (records can still sit on decommissioned nodes).
        width = active_sorted[-1] + 1
        if owners:
            width = max(width, max(owners) + 1)
        states = [_TxnState(i, txn, width) for i, txn in enumerate(txns)]
        inverted: dict[Key, list[int]] = {}
        for state in states:
            counts = state.counts
            for key in state.keys:
                counts[base_owner[key]] += 1
                inverted.setdefault(key, []).append(state.index)
            state.refresh_best(active_sorted, fallback)

        scratch: dict[Key, NodeId] = {}
        # writer_history[k] = parallel lists of positions / master nodes of
        # the B'-ordered transactions that write (move) key k.
        writer_pos: dict[Key, list[int]] = {}
        writer_node: dict[Key, list[NodeId]] = {}

        b = len(txns)
        order: list[tuple[int, NodeId]] = []
        selected = bytearray(b)
        reorder = self.config.reorder

        # Greedy selection used to re-scan every remaining transaction per
        # position — O(b²) and the top hotspot of full-preset profiles.
        # A lazy-deletion heap keyed by (remote_records, index) finds the
        # same minimum: every count change bumps the state's stamp and
        # pushes a fresh entry, so each state has exactly one *live* entry
        # (stamp matches) whose remote count is current; stale and
        # already-selected entries are skipped on pop.  Ties still break
        # towards the smaller batch index, byte-for-byte the old order.
        heap: list[tuple[int, int, int]] = []
        if reorder:
            heap = [(s.remote_records(), s.index, 0) for s in states]
            heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop

        def apply_move(key: Key, new_owner: NodeId) -> None:
            old_owner = scratch.get(key, base_owner[key])
            if old_owner == new_owner:
                return
            scratch[key] = new_owner
            for t_index in inverted[key]:
                if selected[t_index]:
                    continue
                state = states[t_index]
                counts = state.counts
                counts[old_owner] -= 1
                counts[new_owner] += 1
                state.refresh_best(active_sorted, fallback)
                if reorder:
                    state.stamp += 1
                    heappush(
                        heap,
                        (state.remote_records(), t_index, state.stamp),
                    )

        for position in range(b):
            if reorder:
                while True:
                    _remote, chosen, stamp = heappop(heap)
                    if not selected[chosen] and stamp == states[chosen].stamp:
                        break
            else:
                chosen = position
            state = states[chosen]
            master = state.best_node
            selected[chosen] = 1
            order.append((chosen, master))
            for key in state.txn.write_set:
                apply_move(key, master)
                writer_pos.setdefault(key, []).append(position)
                writer_node.setdefault(key, []).append(master)

        if self.config.balance:
            self._balance(
                txns, order, view, base_owner, inverted, writer_pos, writer_node
            )
        return order

    def _balance(
        self,
        txns: Sequence[Transaction],
        order: list[tuple[int, NodeId]],
        view: ClusterView,
        base_owner: dict[Key, NodeId],
        inverted: dict[Key, list[int]],
        writer_pos: dict[Key, list[int]],
        writer_node: dict[Key, list[NodeId]],
    ) -> None:
        """Steps 2 and 3: re-route off overloaded nodes, in place."""
        n = view.num_active
        b = len(order)
        theta = math.ceil(b / n * (1 + self.config.alpha))
        loads: dict[NodeId, int] = {node: 0 for node in view.active_nodes}
        for _index, master in order:
            loads[master] = loads.get(master, 0) + 1

        position_of = {index: pos for pos, (index, _m) in enumerate(order)}

        def owner_before(key: Key, position: int) -> NodeId:
            """Who holds ``key`` just before B′ position ``position``."""
            positions = writer_pos.get(key)
            if positions:
                at = bisect.bisect_left(positions, position) - 1
                if at >= 0:
                    return writer_node[key][at]
            return base_owner[key]

        def next_writer_slot(key: Key, position: int) -> int | None:
            """Index into writer history of the first writer after pos."""
            positions = writer_pos.get(key)
            if not positions:
                return None
            at = bisect.bisect_right(positions, position)
            return at if at < len(positions) else None

        def edge_hits(
            pos: int, txn: Transaction
        ) -> tuple[int, dict[NodeId, int]]:
            """``(total, hits)`` for the txn at B′ pos: routed to node
            ``c`` it has ``total - hits.get(c, 0)`` remote edges.  One
            scan of the footprint and of each written key's later
            readers scores every candidate at once."""
            hits: dict[NodeId, int] = {}
            total = len(txn.full_set)
            for key in txn.full_set:
                owner = owner_before(key, pos)
                hits[owner] = hits.get(owner, 0) + 1
            for key in txn.write_set:
                stop = next_writer_slot(key, pos)
                stop_pos = writer_pos[key][stop] if stop is not None else b
                for reader_index in inverted.get(key, ()):  # in batch order
                    reader_pos = position_of[reader_index]
                    if pos < reader_pos < stop_pos:
                        reader_master = order[reader_pos][1]
                        hits[reader_master] = hits.get(reader_master, 0) + 1
                        total += 1
            return total, hits

        overloaded = {node for node, load in loads.items() if load > theta}
        underloaded = {node for node, load in loads.items() if load < theta}
        delta = 1
        while overloaded and underloaded and delta <= MAX_DELTA:
            moved_any = False
            # The smallest extra edge count this pass refuses: a pass that
            # moves nothing leaves every score as it was, so the next pass
            # that can move anything runs at exactly this delta.
            least_refused = MAX_DELTA + 1
            for pos in range(b - 1, -1, -1):
                index, master = order[pos]
                if master not in overloaded:
                    continue
                txn = txns[index]
                if txn.kind is TxnKind.TOPOLOGY:
                    continue
                total, hits = edge_hits(pos, txn)
                current_edges = total - hits.get(master, 0)
                best: tuple[int, NodeId] | None = None
                for candidate in sorted(underloaded):
                    candidate_edges = total - hits.get(candidate, 0)
                    extra = candidate_edges - current_edges
                    if extra > delta:
                        least_refused = min(least_refused, extra)
                        continue
                    if best is None or candidate_edges < best[0]:
                        best = (candidate_edges, candidate)
                if best is None:
                    continue
                new_master = best[1]
                loads[master] -= 1
                loads[new_master] += 1
                order[pos] = (index, new_master)
                moved_any = True
                # Rewrite this transaction's slots in the writer history so
                # later owner_before lookups see the new route.
                for key in txn.write_set:
                    positions = writer_pos[key]
                    slot = bisect.bisect_left(positions, pos)
                    writer_node[key][slot] = new_master
                if loads[master] <= theta:
                    overloaded.discard(master)
                if loads[new_master] >= theta:
                    underloaded.discard(new_master)
                if loads[master] < theta:
                    underloaded.add(master)
                if not overloaded:
                    return
            if not moved_any:
                delta = least_refused

    # ------------------------------------------------------------------
    # Final authoritative pass: build plans and commit fusion updates
    # ------------------------------------------------------------------

    def _build_plan(
        self, txn: Transaction, master: NodeId, view: ClusterView
    ) -> TxnPlan:
        keys = txn.ordered_keys
        write_set = txn.write_set
        owners = view.ownership.owners_bulk(keys)
        migrations: list[Migration] = []
        all_local = True
        for location in owners:
            if location != master:
                all_local = False
                break
        if all_local:
            # Converged placement: every key already lives at the master,
            # so the footprint *is* the single serve group.
            reads_from_sets = {master: txn.full_set}
        else:
            by_node: dict[NodeId, list[Key]] = {}
            for key, location in zip(keys, owners):
                by_node.setdefault(location, []).append(key)
                if key in write_set and location != master:
                    migrations.append(Migration(key, location, master))
            reads_from_sets = {
                n: frozenset(k) for n, k in by_node.items()
            }

        # Apply the fusion updates, then derive evictions from the table's
        # *final* state: when the write-set exceeds the table's headroom, a
        # transaction's own keys can be popped and re-inserted within this
        # loop, so per-pop decisions would chase records mid-shuffle.
        popped: dict[Key, NodeId] = {}
        for key in write_set:
            for evicted_key, evicted_owner in view.ownership.record_move(
                key, master
            ):
                popped[evicted_key] = evicted_owner
        evictions: list[Migration] = []
        for evicted_key, recorded_owner in popped.items():
            if view.ownership.overlay.get(evicted_key) is not None:
                continue  # re-inserted later in this loop and survived
            if evicted_key in write_set:
                # The record travels to the master with its own migration
                # regardless, so the send-home eviction originates there —
                # not at the stale pre-transaction location.
                src = master
            else:
                src = recorded_owner
            home = view.ownership.home(evicted_key)
            if src == home:
                # Nothing to move: either the entry went stale (a cold
                # re-partitioning relocated the key's static home to where
                # fusion had already put it), or the master *is* home.
                continue
            evictions.append(Migration(evicted_key, src, home))

        writes_at = {master: frozenset(write_set)} if write_set else {}
        return TxnPlan(
            txn=txn,
            masters=(master,),
            reads_from=reads_from_sets,
            writes_at=writes_at,
            migrations=tuple(migrations),
            evictions=tuple(evictions),
        )
