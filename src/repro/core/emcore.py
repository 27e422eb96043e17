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
import os
import time
from array import array

from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.core.sharded import get_executor
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


class _ZeroDeposit:
    """Stand-in deposit during partitioning, when every entry is zero.

    It makes :func:`_partition_ub_task` a pure function of its records,
    which is what lets the shard executors run upper-bound pseudo-peels
    in worker processes without shipping the O(n) deposit array.
    """

    def __getitem__(self, v):
        return 0


_ZERO_DEPOSIT = _ZeroDeposit()


def _partition_ub_task(records):
    """Executor task: pseudo-peel one freshly written partition.

    Runs during the partitioning pass only, where no node is finalized
    yet and every deposit is zero -- so the task is self-contained and
    any :mod:`repro.core.sharded` executor (serial or persistent)
    produces bit-identical upper bounds.
    """
    return _partition_upper_bounds(records, _ZERO_DEPOSIT)


def em_core(storage, *, memory_budget_bytes=None, partition_arcs=None,
            merge_partitions=True, engine=None, executor=None):
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
    merge_partitions:
        Re-merge shrunken partitions during write-back (Algorithm 2,
        line 13).
    engine:
        Execution engine from :mod:`repro.core.engines` (default
        ``"python"``, the reference implementation below).  Every engine
        returns bit-identical results, including the write I/Os of the
        partition store; see ``docs/ARCHITECTURE.md``.
    executor:
        A :mod:`repro.core.sharded` shard executor (``None`` = serial,
        ``"persistent"``, or an object with ``run(fn, tasks)``).  The
        partitioning pass's upper-bound pseudo-peels -- pure functions
        of each freshly written partition -- run through it in waves of
        one task per worker, so EMCore scales on the same machinery as
        the sharded driver.  Results are bit-identical under every
        executor; partitions are still written in scan order.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "emcore")(
            storage, memory_budget_bytes=memory_budget_bytes,
            partition_arcs=partition_arcs,
            merge_partitions=merge_partitions,
            executor=executor,
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
    metas = {}  # pid -> {"bytes": int, "max_ub": int, "nodes": int}
    computations = 0

    # ------------------------------------------------------------------
    # Partitioning pass: sequential scan, contiguous ranges, local ubs.
    # Partitions are written in scan order; their upper-bound pseudo-
    # peels (pure functions of the records -- deposits are all zero
    # here) drain through the executor in waves of one task per worker,
    # so at most ``wave`` partitions' records are resident at once.
    # ------------------------------------------------------------------
    exec_obj = get_executor(executor)
    owns_executor = executor is None or isinstance(executor, str)
    if getattr(exec_obj, "name", "serial") == "serial":
        wave = 1
    else:
        wave = max(1, getattr(exec_obj, "processes", None)
                   or (os.cpu_count() or 1))
    pending = []
    pending_arcs = 0
    pending_ubs = []  # (pid, size, records) awaiting their pseudo-peel

    def drain_ubs():
        nonlocal computations
        if not pending_ubs:
            return
        batch = pending_ubs[:]
        del pending_ubs[:]
        results = exec_obj.run(_partition_ub_task,
                               [records for _, _, records in batch])
        for (pid, size, records), values in zip(batch, results):
            computations += len(values)
            for v, bound in values.items():
                ub[v] = bound
            metas[pid] = {
                "bytes": size,
                "max_ub": max(values.values()),
                "nodes": len(records),
            }

    def flush_partition():
        nonlocal pending, pending_arcs
        if not pending:
            return
        pid, size = store.write(pending)
        pending_ubs.append((pid, size, pending))
        pending = []
        pending_arcs = 0
        if len(pending_ubs) >= wave:
            drain_ubs()

    try:
        with span("emcore.partition",
                  io=getattr(storage, "io_stats", None)) as part_span:
            for v, nbrs in storage.iter_adjacency():
                if len(nbrs) == 0:
                    core[v] = 0
                    continue
                if pending_arcs and \
                        pending_arcs + len(nbrs) > partition_arcs:
                    flush_partition()
                # The scan yields fresh adjacency arrays; keeping them
                # avoids the per-edge Python list rebuild the partition
                # writer used to do.
                pending.append((v, nbrs))
                pending_arcs += len(nbrs)
            flush_partition()
            drain_ubs()
            part_span.annotate(partitions=len(metas))
    finally:
        if owns_executor:
            closer = getattr(exec_obj, "close", None)
            if closer is not None:
                closer()

    # ------------------------------------------------------------------
    # Top-down range computation.
    # ------------------------------------------------------------------
    rounds = 0
    peak_loaded = 0
    while metas:
        rounds += 1
        with span("emcore.round", io=getattr(storage, "io_stats", None),
                  round=rounds) as round_span:
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
                if (selected
                        and loaded_bytes + group_bytes
                        > memory_budget_bytes):
                    kl = bound + 1
                    break
                selected.extend(pids)
                loaded_bytes += group_bytes
            kl = max(1, min(kl, ku))
            exhaustive = len(selected) == len(metas)
            peak_loaded = max(peak_loaded, loaded_bytes)
            round_span.annotate(kl=kl, ku=ku, partitions=len(selected))

            gmem = {}
            members = {}
            for pid in selected:
                records = store.read(pid)
                members[pid] = [v for v, _ in records]
                for v, nbrs in records:
                    if core[v] < 0:
                        gmem[v] = nbrs

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
                if not remaining:
                    store.delete(pid)
                    metas.pop(pid)
                    continue
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
                metas[pid] = {
                    "bytes": size,
                    "max_ub": max(ub[v] for v, _ in kept),
                    "nodes": len(kept),
                }
                if merge_partitions and size < partition_arcs * 2:
                    survivors_small.append(pid)

            if merge_partitions and len(survivors_small) > 1:
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
    small_pids = [pid for pid in small_pids if pid in metas]
    if len(small_pids) < 2:
        return

    def flush(bucket_records):
        pid, size = store.write(bucket_records)
        metas[pid] = {
            "bytes": size,
            "max_ub": max(ub[v] for v, _ in bucket_records),
            "nodes": len(bucket_records),
        }

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
