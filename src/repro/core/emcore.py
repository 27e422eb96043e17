"""EMCore: the partition-based external-memory baseline (Algorithm 2).

Reimplementation of Cheng et al.'s algorithm from Section III of the
paper.  The graph is split into node-range partitions on disk; each node
carries an upper bound ``ub(v)`` on its core number obtained by a
partition-local *pseudo peel* in which neighbours outside the partition
are treated as immortal.  Core numbers are then computed top-down over
ranges ``[kl, ku]``: every partition containing a node with ``ub >= kl``
is loaded, the in-memory union is peeled (finalized neighbours contribute
permanent *deposit* support), nodes whose value lands in the range are
finalized, and the shrunken partitions are written back (EMCore is the
only algorithm here that issues write I/Os during decomposition).

The behaviour the paper criticises is reproduced faithfully: as ``ku``
decreases, most partitions qualify for loading, so the peak loaded bytes
approach the full graph regardless of the configured memory budget.  The
reported model memory is that peak plus the O(n) bookkeeping arrays.
"""

from __future__ import annotations

import heapq
import time
from array import array

from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.errors import GraphError
from repro.obs.trace import span
from repro.storage.partition import PartitionStore
from repro.storage.partition_codec import RECORD_OVERHEAD as _RECORD_OVERHEAD


def _peel_with_support(local_adj, support):
    """Peel a subgraph whose ``support`` edges never disappear.

    ``local_adj`` maps each node to its decrementable (in-memory)
    neighbours; ``support`` maps each node to its immortal degree
    contribution.  Returns the peel value of every node: the largest ``k``
    such that the node survives peeling at level ``k``.
    """
    eff = {}
    for v, nbrs in local_adj.items():
        eff[v] = len(nbrs) + support[v]
    heap = [(e, v) for v, e in eff.items()]
    heapq.heapify(heap)
    value = {}
    level = 0
    while heap:
        e, v = heapq.heappop(heap)
        if v in value or e != eff[v]:
            continue
        if e > level:
            level = e
        value[v] = level
        for u in local_adj[v]:
            if u not in value:
                eff[u] -= 1
                heapq.heappush(heap, (eff[u], u))
    return value


def _partition_upper_bounds(records, deposit):
    """Pseudo-peel one partition, returning a valid ub for each member.

    Neighbours outside the partition (plus deposited, already finalized
    ones) are immortal, so the peel value dominates the true core number.
    """
    local_ids = {v for v, _ in records}
    local_adj = {}
    support = {}
    for v, nbrs in records:
        local = [u for u in nbrs if u in local_ids]
        local_adj[v] = local
        support[v] = (len(nbrs) - len(local)) + deposit[v]
    return _peel_with_support(local_adj, support)


def _select_range(metas, budget):
    """Choose one round's range ``[kl, ku]`` and the partitions to load.

    Partitions are grouped by their largest upper bound and taken in
    descending order while the loaded bytes fit ``budget`` (the first
    group always loads); the first group left out sets ``kl`` one above
    its bound.  Returns ``(selected_pids, kl, ku, loaded_bytes)``.
    Shared by both engines' EMCore implementations.
    """
    groups = {}
    for pid, meta in metas.items():
        groups.setdefault(meta["max_ub"], []).append(pid)
    ordered = sorted(groups.items(), reverse=True)
    ku = ordered[0][0]
    selected = []
    loaded_bytes = 0
    kl = 1
    for bound, pids in ordered:
        group_bytes = sum(metas[p]["bytes"] for p in pids)
        if selected and loaded_bytes + group_bytes > budget:
            kl = bound + 1
            break
        selected.extend(pids)
        loaded_bytes += group_bytes
    return selected, max(1, min(kl, ku)), ku, loaded_bytes


def em_core(storage, *, memory_budget_bytes=None, partition_arcs=None,
            engine=None):
    """Run EMCore against a storage-backed graph.

    Parameters
    ----------
    memory_budget_bytes:
        Target bound on the bytes of partitions resident at once.  The
        range ``[kl, ku]`` is chosen against this budget, but -- as the
        paper stresses -- EMCore must load every partition containing a
        candidate node, so the recorded peak routinely exceeds the budget.
        Defaults to one quarter of the edge-table payload.
    partition_arcs:
        Adjacency entries per initial partition (controls partition count).
        Shrunken partitions are re-merged towards this size during
        write-back (Algorithm 2, line 13).
    engine:
        Execution engine from :mod:`repro.core.engines` (default
        ``"python"``, the reference implementation below).  Every engine
        returns bit-identical results, including the write I/Os of the
        partition store; see ``docs/ARCHITECTURE.md``.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "emcore")(
            storage, memory_budget_bytes=memory_budget_bytes,
            partition_arcs=partition_arcs,
        )
    started = time.perf_counter()
    snapshot = io_snapshot(storage)
    n = storage.num_nodes
    num_arcs = storage.num_arcs
    if partition_arcs is None:
        partition_arcs = max(1024, num_arcs // 64)
    if memory_budget_bytes is None:
        memory_budget_bytes = max(1 << 16, num_arcs)  # ~ arcs/4 * 4 bytes

    core = array("i", b"\xff\xff\xff\xff" * n)  # -1 == unknown
    deposit = array("i", bytes(4 * n))
    ub = array("i", bytes(4 * n))

    store = PartitionStore(block_size=storage.block_size,
                           stats=getattr(storage, "io_stats", None))
    metas = {}  # pid -> {"bytes": int, "max_ub": int}
    computations = 0

    # ------------------------------------------------------------------
    # Partitioning pass: sequential scan, contiguous ranges, local ubs.
    # ------------------------------------------------------------------
    pending = []
    pending_arcs = 0

    def flush_partition():
        nonlocal pending, pending_arcs, computations
        if not pending:
            return
        pid, size = store.write(pending)
        values = _partition_upper_bounds(pending, deposit)  # all zero here
        computations += len(values)
        for v, bound in values.items():
            ub[v] = bound
        metas[pid] = {"bytes": size, "max_ub": max(values.values())}
        pending = []
        pending_arcs = 0

    with span("emcore.partition",
              io=getattr(storage, "io_stats", None)) as part_span:
        for v, nbrs in storage.iter_adjacency():
            if len(nbrs) == 0:
                core[v] = 0
                continue
            if pending_arcs and pending_arcs + len(nbrs) > partition_arcs:
                flush_partition()
            pending.append((v, nbrs))  # the scan's fresh arrays, kept
            pending_arcs += len(nbrs)
        flush_partition()
        part_span.annotate(partitions=len(metas))

    # ------------------------------------------------------------------
    # Top-down range computation.
    # ------------------------------------------------------------------
    rounds = 0
    peak_loaded = 0
    while metas:
        rounds += 1
        with span("emcore.round", io=getattr(storage, "io_stats", None),
                  round=rounds) as round_span:
            selected, kl, ku, loaded_bytes = _select_range(
                metas, memory_budget_bytes)
            exhaustive = len(selected) == len(metas)
            peak_loaded = max(peak_loaded, loaded_bytes)
            round_span.annotate(kl=kl, ku=ku, partitions=len(selected))

            gmem = {}
            members = {}
            for pid in selected:
                records = store.read(pid)
                members[pid] = [v for v, _ in records]
                # Every member is unfinalized: write-back drops the
                # nodes a round finalizes from their partitions.
                gmem.update(records)

            local_adj = {
                v: [u for u in nbrs if u in gmem]
                for v, nbrs in gmem.items()
            }
            support = {v: deposit[v] for v in gmem}
            values = _peel_with_support(local_adj, support)
            computations += len(values)

            finalized_now = []
            for v, value in values.items():
                if value >= kl or exhaustive:
                    core[v] = value
                    finalized_now.append(v)
            for v in finalized_now:
                for u in gmem[v]:
                    if core[u] < 0:
                        deposit[u] += 1

            # Write back shrunken partitions, refreshing upper bounds.
            survivors_small = []
            for pid in selected:
                remaining = []
                for v in members[pid]:
                    if core[v] < 0:
                        filtered = [u for u in gmem[v] if core[u] < 0]
                        remaining.append((v, filtered))
                refreshed = _partition_upper_bounds(remaining, deposit)
                computations += len(refreshed)
                cap = kl - 1
                finalize_zero = []
                kept = []
                for v, nbrs in remaining:
                    bound = min(ub[v], cap, refreshed[v])
                    if bound <= 0:
                        core[v] = 0
                        finalize_zero.append(v)
                    else:
                        ub[v] = bound
                        kept.append((v, nbrs))
                if finalize_zero:
                    zero_set = set(finalize_zero)
                    kept = [(v, [u for u in nbrs if u not in zero_set])
                            for v, nbrs in kept]
                if not kept:
                    store.delete(pid)
                    metas.pop(pid)
                    continue
                size = store.rewrite(pid, kept)
                metas[pid] = {"bytes": size,
                              "max_ub": max(ub[v] for v, _ in kept)}
                if size < partition_arcs * 2:
                    survivors_small.append(pid)

            if len(survivors_small) > 1:
                _merge_small_partitions(store, metas, survivors_small,
                                        partition_arcs, ub)

    unknown = [v for v in range(n) if core[v] < 0]
    if unknown:
        raise GraphError(
            "EMCore left %d nodes unfinalized (first: %d)"
            % (len(unknown), unknown[0])
        )

    elapsed = time.perf_counter() - started
    model_memory = peak_loaded + 12 * n
    return DecompositionResult(
        algorithm="EMCore",
        cores=core,
        iterations=rounds,
        node_computations=computations,
        io=io_delta(storage, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
    )


def _merge_small_partitions(store, metas, small_pids, partition_arcs, ub):
    """Greedily repack small partitions back towards the target size."""

    def flush(bucket_records):
        pid, size = store.write(bucket_records)
        metas[pid] = {"bytes": size,
                      "max_ub": max(ub[v] for v, _ in bucket_records)}

    bucket = []
    bucket_words = 0
    for pid in small_pids:
        records = store.read(pid)
        store.delete(pid)
        metas.pop(pid)
        words = sum(len(nbrs) + _RECORD_OVERHEAD for _, nbrs in records)
        if bucket and bucket_words + words > partition_arcs:
            flush(bucket)
            bucket = []
            bucket_words = 0
        bucket.extend(records)
        bucket_words += words
    if bucket:
        flush(bucket)
