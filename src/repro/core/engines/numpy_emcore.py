"""NumPy-vectorized EMCore kernel (the ``numpy`` engine's Algorithm 2).

The reference EMCore spends its time in two heap-driven peels --
:func:`~repro.core.emcore._peel_with_support` over dict-of-list
subgraphs -- executed once per partition during partitioning and once
per loaded partition union per round.  This module keeps the reference's
*round structure* byte for byte (the same partitions, the same greedy
``[kl, ku]`` selection, the same write-back and merge decisions) while
replacing every peel and every adjacency materialization with array
kernels:

* the partitioning pass decodes the graph once into a
  :class:`~repro.storage.csr.CSRGraph` snapshot (the identical
  sequential-scan reads of the reference's ``iter_adjacency`` pass) and
  derives partition boundaries with ``searchsorted`` over the degree
  prefix sums -- the same greedy "flush when the next adjacency would
  overflow ``partition_arcs``" rule;
* partitions serialize through
  :mod:`repro.storage.partition_codec` -- byte-identical payloads, so
  the write-I/O figures match the reference block for block, and reads
  decode via ``np.frombuffer`` into CSR slices with no per-edge Python
  objects;
* every peel is :func:`~repro.core.engines.numpy_engine._peel_values`,
  the numpy engine's bin-bucket peel with level jumps: it produces the
  same generalized peel values as the reference's lazy-heap peel
  because those values are unique (the largest ``k`` such that the
  node survives at level ``k`` does not depend on tie-breaking).

The ``[kl, ku]`` selection is the reference implementation's own
(:func:`~repro.core.emcore._select_range`); only the partition
representation and the peels are engine-specific.

Exactness of the observable counters follows from determinism: peel
values are unique, so the finalized sets, deposits, refreshed upper
bounds, partition contents and merge decisions -- and therefore
``iterations``, ``node_computations`` and every read/write I/O --
evolve identically to the reference run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.emcore import _select_range
from repro.core.engines.numpy_engine import (
    _as_core_array,
    _gather_rows,
    _peel_values,
)
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.errors import GraphError
from repro.storage.csr import CSRGraph
from repro.storage.partition import PartitionStore
from repro.storage.partition_codec import (
    RECORD_OVERHEAD,
    decode_csr,
    encode_csr,
)

__all__ = ["em_core_numpy"]


def _filter_csr(counts, keep, values):
    """Rebuild a local CSR after dropping entries of a gathered row set.

    ``counts`` are the per-row lengths of the flat entries, ``keep`` a
    mask over them and ``values`` what each kept entry stores.  Returns
    ``(indptr, values[keep], degrees)`` of the filtered rows.
    """
    row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    deg = np.bincount(row[keep], minlength=len(counts))
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return indptr, values[keep], deg


class _Renumber:
    """Reusable global->local id mapping (sparse reset between uses)."""

    def __init__(self, n):
        self._loc = np.full(n, -1, dtype=np.int64)

    def induce(self, nodes, indptr, indices):
        """Local CSR of the subgraph induced by ``nodes``.

        Returns ``(local_indptr, local_indices, local_degrees)`` where
        entries of ``indices`` outside ``nodes`` are dropped (they are
        the peel's immortal support, accounted by the caller).
        """
        loc = self._loc
        loc[nodes] = np.arange(len(nodes), dtype=np.int64)
        mapped = loc[indices]
        loc[nodes] = -1
        return _filter_csr(np.diff(indptr), mapped >= 0, mapped)


def em_core_numpy(storage, *, memory_budget_bytes=None, partition_arcs=None):
    """Vectorized Algorithm 2 with reference-identical semantics."""
    started = time.perf_counter()
    snapshot = io_snapshot(storage)
    n = storage.num_nodes
    num_arcs = storage.num_arcs
    if partition_arcs is None:
        partition_arcs = max(1024, num_arcs // 64)
    if memory_budget_bytes is None:
        memory_budget_bytes = max(1 << 16, num_arcs)

    core = np.full(n, -1, dtype=np.int64)
    deposit = np.zeros(n, dtype=np.int64)
    ub = np.zeros(n, dtype=np.int64)
    renumber = _Renumber(n)

    store = PartitionStore(block_size=storage.block_size,
                           stats=getattr(storage, "io_stats", None))
    metas = {}
    computations = 0

    # ------------------------------------------------------------------
    # Partitioning pass: one CSR snapshot (the identical sequential-scan
    # reads of the reference pass), greedy contiguous ranges, local ubs.
    # ------------------------------------------------------------------
    csr = CSRGraph.from_graph(storage)
    snapshot_bytes = csr.model_memory_bytes()
    g_indptr = csr.indptr
    g_indices = csr.indices.astype(np.int64)
    degrees = csr.degrees()
    core[degrees == 0] = 0
    nonzero = np.flatnonzero(degrees)

    bounds = np.zeros(len(nonzero) + 1, dtype=np.int64)
    np.cumsum(degrees[nonzero], out=bounds[1:])
    start = 0
    while start < len(nonzero):
        # Largest prefix whose total adjacency fits partition_arcs; a
        # single oversized adjacency forms its own partition -- exactly
        # the reference's "flush before the overflowing node" rule.
        stop = int(np.searchsorted(bounds, bounds[start] + partition_arcs,
                                   side="right")) - 1
        stop = min(max(stop, start + 1), len(nonzero))
        part = nonzero[start:stop]
        start = stop

        sub_indptr = np.zeros(len(part) + 1, dtype=np.int64)
        np.cumsum(degrees[part], out=sub_indptr[1:])
        # Members are a contiguous id range (zero-degree nodes between
        # them hold no arcs), so their payload is one snapshot slice.
        sub_indices = g_indices[g_indptr[part[0]]:g_indptr[part[-1] + 1]]

        pid, size = store.write_bytes(encode_csr(part, sub_indptr,
                                                 sub_indices))
        # Pseudo-peel: out-of-partition arcs are immortal support, so
        # each member's effective degree is its full degree (deposits
        # are all zero here).
        l_indptr, l_indices, _ = renumber.induce(part, sub_indptr,
                                                 sub_indices)
        values = _peel_values(l_indptr, l_indices, degrees[part])
        computations += len(part)
        ub[part] = values
        metas[pid] = {"bytes": size, "max_ub": int(values.max())}

    # ------------------------------------------------------------------
    # Top-down range computation (identical round structure).
    # ------------------------------------------------------------------
    rounds = 0
    peak_loaded = 0
    while metas:
        rounds += 1
        selected, kl, _, loaded_bytes = _select_range(metas,
                                                      memory_budget_bytes)
        exhaustive = len(selected) == len(metas)
        peak_loaded = max(peak_loaded, loaded_bytes)

        chunks = []
        mem_nodes_parts = []
        mem_deg_parts = []
        mem_idx_parts = []
        for pid in selected:
            nodes_p, indptr_p, indices_p = decode_csr(store.read_bytes(pid))
            chunks.append((pid, nodes_p, indptr_p, indices_p))
            # Every member is unfinalized: write-back drops the nodes a
            # round finalizes from their partitions.
            mem_nodes_parts.append(nodes_p)
            mem_deg_parts.append(np.diff(indptr_p))
            mem_idx_parts.append(indices_p)

        mem_nodes = (np.concatenate(mem_nodes_parts) if mem_nodes_parts
                     else np.zeros(0, dtype=np.int64))
        mem_deg = (np.concatenate(mem_deg_parts) if mem_deg_parts
                   else np.zeros(0, dtype=np.int64))
        mem_indices = (np.concatenate(mem_idx_parts) if mem_idx_parts
                       else np.zeros(0, dtype=np.int64))
        mem_indptr = np.zeros(len(mem_nodes) + 1, dtype=np.int64)
        np.cumsum(mem_deg, out=mem_indptr[1:])

        if len(mem_nodes):
            l_indptr, l_indices, _ = renumber.induce(
                mem_nodes, mem_indptr, mem_indices)
            local_deg = np.diff(l_indptr)
            values = _peel_values(l_indptr, l_indices,
                                  local_deg + deposit[mem_nodes])
            computations += len(mem_nodes)

            if exhaustive:
                fin_rows = np.arange(len(mem_nodes), dtype=np.int64)
            else:
                fin_rows = np.flatnonzero(values >= kl)
            core[mem_nodes[fin_rows]] = values[fin_rows]
            nbr_fin, _ = _gather_rows(mem_indptr, mem_indices, fin_rows)
            alive_nbr = nbr_fin[core[nbr_fin] < 0]
            if alive_nbr.size:
                deposit += np.bincount(alive_nbr, minlength=n)

        # Write back shrunken partitions, refreshing upper bounds.
        survivors_small = []
        cap = kl - 1
        for pid, nodes_p, indptr_p, indices_p in chunks:
            rem_rows = np.flatnonzero(core[nodes_p] < 0)
            if rem_rows.size == 0:
                store.delete(pid)
                metas.pop(pid)
                continue
            rem_nodes = nodes_p[rem_rows]
            flat, counts = _gather_rows(indptr_p, indices_p, rem_rows)
            f_indptr, f_indices, f_deg = _filter_csr(counts, core[flat] < 0,
                                                     flat)

            l_indptr, l_indices, local_deg = renumber.induce(
                rem_nodes, f_indptr, f_indices)
            external = f_deg - local_deg
            refreshed = _peel_values(l_indptr, l_indices,
                                     local_deg + external +
                                     deposit[rem_nodes])
            computations += len(rem_nodes)

            bound = np.minimum(np.minimum(ub[rem_nodes], cap), refreshed)
            zero = bound <= 0
            core[rem_nodes[zero]] = 0
            kept_rows = np.flatnonzero(~zero)
            if kept_rows.size == 0:
                store.delete(pid)
                metas.pop(pid)
                continue
            kept_nodes = rem_nodes[kept_rows]
            ub[kept_nodes] = bound[kept_rows]
            kept_flat, kept_counts = _gather_rows(f_indptr, f_indices,
                                                  kept_rows)
            # Re-filtering on core < 0 drops exactly the entries this
            # partition just finalized to zero.
            k_indptr, k_indices, _ = _filter_csr(
                kept_counts, core[kept_flat] < 0, kept_flat)
            size = store.rewrite_bytes(
                pid, encode_csr(kept_nodes, k_indptr, k_indices))
            metas[pid] = {"bytes": size, "max_ub": int(ub[kept_nodes].max())}
            if size < partition_arcs * 2:
                survivors_small.append(pid)

        if len(survivors_small) > 1:
            _merge_small_partitions(store, metas, survivors_small,
                                    partition_arcs, ub)

    unknown = np.flatnonzero(core < 0)
    if unknown.size:
        raise GraphError(
            "EMCore left %d nodes unfinalized (first: %d)"
            % (int(unknown.size), int(unknown[0]))
        )

    elapsed = time.perf_counter() - started
    # Honest engine memory: the loaded-partition peak and O(n) arrays of
    # the reference, plus the CSR snapshot this engine holds while
    # partitioning.
    model_memory = peak_loaded + 12 * n + snapshot_bytes
    return DecompositionResult(
        algorithm="EMCore",
        cores=_as_core_array(core),
        iterations=rounds,
        node_computations=computations,
        io=io_delta(storage, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        engine="numpy",
    )


def _merge_small_partitions(store, metas, small_pids, partition_arcs, ub):
    """Greedy repack of small partitions (reference merge, CSR payloads)."""

    def flush(bucket):
        nodes = np.concatenate([c[0] for c in bucket])
        indices = np.concatenate([c[2] for c in bucket])
        degs = np.concatenate([np.diff(c[1]) for c in bucket])
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        pid, size = store.write_bytes(encode_csr(nodes, indptr, indices))
        metas[pid] = {"bytes": size, "max_ub": int(ub[nodes].max())}

    bucket = []
    bucket_words = 0
    for pid in small_pids:
        chunk = decode_csr(store.read_bytes(pid))
        store.delete(pid)
        metas.pop(pid)
        words = int(chunk[1][-1]) + RECORD_OVERHEAD * len(chunk[0])
        if bucket and bucket_words + words > partition_arcs:
            flush(bucket)
            bucket = []
            bucket_words = 0
        bucket.append(chunk)
        bucket_words += words
    if bucket:
        flush(bucket)
