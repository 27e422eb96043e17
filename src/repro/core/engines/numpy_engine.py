"""NumPy-vectorized decomposition kernels (the ``numpy`` engine).

The reference engine spends its time in per-node Python loops
(:func:`~repro.core.locality.local_core` touches every neighbour id as a
Python int).  This module replaces those loops with whole-batch array
kernels over :class:`~repro.storage.csr.CSRGraph` snapshots while
reproducing the reference semantics *exactly* -- same core numbers, same
iteration counts, same node-computation totals, same per-iteration
traces, and same block-I/O figures.

Why exact parity is possible
----------------------------
One SemiCore pass is an ascending Gauss-Seidel sweep: node ``v`` is
recomputed once, seeing post-update values for neighbours ``u < v`` and
pass-start values for ``u > v``.  Writing ``old`` for the pass-start
values, the post-pass values ``new`` solve the *triangular* system

    new[v] = LocalCore({new[u] : u < v} + {old[u] : u > v}, cold=old[v])

because ``v`` depends only on smaller ids.  :func:`_sweep` solves that
system by fixpoint iteration of batched h-index evaluations: start from
``old``, recompute the violating nodes, then keep recomputing any node
that a smaller-id neighbour's drop left violating, until nothing moves.
Values are monotone non-increasing, each sub-round only re-reads the
in-memory snapshot, and the fixpoint of the batched operator is the
unique triangular solution -- so each outer pass lands on exactly the
state the reference pass produces.

Every pass-based algorithm runs that one sweep kernel:

* SemiCore* -- a converge pass of Algorithm 5 only skips nodes whose
  recomputation would be a no-op (``cnt(v) >= core(v)`` implies
  ``LocalCore`` returns ``core(v)``), so its per-pass state evolution
  equals the full sweep, and its scheduling bookkeeping reduces to "the
  next pass runs while violators remain".  A pass over a resident
  snapshot that starts with few violators is run instead as the
  reference's own worklist (:func:`_scalar_pass`): most SemiCore*
  passes move a handful of nodes, and a sweep's fixed cost in array
  calls would dwarf them;
* the sharded shard pass -- the same converge loop with the halo rows
  frozen (``limit``); after a shard's first pass it starts from carried
  counts and runs over the rows it loads wave by wave
  (:class:`_LoadedRows`);
* SemiCore+ -- the sweep restricted to a window that grows while the
  pass runs (``window``): a dropper recruits its larger-id neighbours
  into the same pass.

Counts are state
----------------
Like the paper's SemiCore* with its ``cnt`` array, every pass-based
run counts Eq. 2 support once (:func:`_support`) and from then on moves
the counts only by deltas; no pass recounts them.

* Inside a sweep (:func:`_sweep`) ``support[v]`` is the mixed-value
  support of ``v`` at its current value.  A dropper falling from ``a``
  to ``b`` costs each larger-id neighbour ``v`` with ``b < x[v] <= a``
  one unit, and the dropper's own count is read off its h-index
  histogram at the new value.
* After a sweep (:func:`_settle_counts`) only the larger-id
  neighbours still weigh in at their pass-start values, so each changed
  ``u`` costs each smaller-id neighbour ``v`` with ``new[u] < new[v] <=
  old[u]`` one unit.  The nodes it costs are the only ones that can
  violate Eq. 2 in the next pass, so the next pass starts from them
  without a scan of all rows.
* A scalar SemiCore* pass (:func:`_scalar_pass`) moves the counts in
  place as Algorithm 5 does: a drop from ``a`` to ``b`` costs every
  neighbour with a value in ``(b, a]`` one unit.

So a sweep gathers only its droppers' rows, once per drop, and a
settle only the changed rows.  LocalCore is a counting
h-index (:func:`_h_index`): weights clipped to the row length and the
pass-start value, one ``bincount`` histogram, a segmented suffix sum --
no sort.
:func:`_peel_values` is the one peel (IMCore here, the EMCore
partitions in :mod:`repro.core.engines.numpy_emcore`).

I/O accounting
--------------
Each SemiCore pass materializes a fresh CSR snapshot through
``iter_adjacency_chunks`` -- the identical device reads of a reference
scan -- so the shared :class:`~repro.storage.blockio.IOStats` advances
exactly as under the reference engine.  SemiCore* builds its snapshot
with the same per-node ``neighbors()`` reads the reference issues in
pass 1 and then replays the (identical, ascending) reads of each later
pass's processed set, both through
:func:`~repro.storage.csr.read_sorted_rows`.  Model memory is reported
honestly: the numpy engine *does* hold the snapshot resident, so its
figure includes the CSR arrays where the reference engine charges only
``O(n)``.
"""

from __future__ import annotations

import heapq
import time
from array import array

import numpy as np

from repro.core.locality import initial_bounds
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.errors import GraphError
from repro.storage import layout
from repro.storage.blockio import charge_spans
from repro.storage.csr import CSRGraph, read_sorted_rows

__all__ = ["semi_core_numpy", "semi_core_plus_numpy",
           "semi_core_star_numpy", "im_core_numpy",
           "shard_pass_numpy", "distributed_core_numpy"]


#: A SemiCore* pass over a resident snapshot that starts with at most
#: this many violators runs as a scalar worklist (:func:`_scalar_pass`):
#: below it the fixed cost of the array calls of a sweep outweighs the
#: work of the few rows it recomputes.
SCALAR_PASS_MAX = 64

#: Rows longer than this take the array h-index inside the scalar pass.
_SCALAR_ROW_MAX = 64

# ----------------------------------------------------------------------
# batched kernels
# ----------------------------------------------------------------------

def _gather_rows(indptr, indices, rows):
    """Gather the adjacency of ``rows`` from a CSR pair as flat arrays.

    Returns ``(nbr, counts)`` where ``nbr`` holds the neighbour ids of
    every listed row (int64) laid out row after row and ``counts`` the
    per-row lengths.
    """
    counts = indptr[rows + 1] - indptr[rows]
    starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    positions = np.arange(int(counts.sum()), dtype=np.int64) + \
        np.repeat(indptr[rows] - starts, counts)
    return indices[positions].astype(np.int64, copy=False), counts


def _weigh(csr, rows, x, old):
    """Weigh every neighbour of ``rows`` under sweep semantics.

    Neighbour ``u`` of ``v`` contributes its updated value ``x[u]`` when
    it precedes ``v`` in scan order and its pass-start value ``old[u]``
    otherwise (plainly ``old[u]`` when ``x is old``).  ``rows=None``
    stands for every row and reads ``csr.indices`` in place, without a
    gather.  Returns ``(nbr, w, owner, counts)``: the neighbour ids and
    their weights row after row, the owning node per entry, and the
    per-row lengths.
    """
    if rows is None:
        nbr, counts = csr.indices, csr.degrees()
        rows = np.arange(len(counts), dtype=np.int64)
    else:
        nbr, counts = _gather_rows(csr.indptr, csr.indices, rows)
    owner = np.repeat(rows, counts)
    w = old[nbr]
    if x is not old:
        earlier = nbr < owner
        w[earlier] = x[nbr[earlier]]
    return nbr, w, owner, counts


def _h_index(w, counts, cap):
    """Per-row h-index of the weights ``w`` (rows of ``counts`` entries
    laid end to end) clamped by ``cap``: the largest ``k <= cap`` with
    at least ``k`` weights ``>= k`` in the row.  Consumes ``w``, whose
    entries are core values and so never negative.

    Counting, not sorting.  No row's answer exceeds its length, so each
    weight is clipped to ``bound`` with ``bound = min(length,
    cap)`` and one ``bincount`` histograms every row into ``bound + 1``
    bins laid end to end.  The within-row suffix sum ``S[k]`` counts the
    weights ``>= k``; it never grows with ``k``, so the bins with ``S[k]
    >= k`` form the prefix ``0..h`` of their row and ``h`` is their
    count minus one.  Returns ``(h, S[h])``: the answer and the row's
    support at it.
    """
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    bound = np.minimum(counts, cap)
    np.maximum(bound, 0, out=bound)
    size = bound + 1
    end = np.cumsum(size)
    base = end - size
    np.minimum(w, np.repeat(bound, counts), out=w)
    w += np.repeat(base, counts)
    excess = np.bincount(w, minlength=int(end[-1]))
    np.cumsum(excess[::-1], out=excess[::-1])
    # A row's S is the flat suffix sum minus the part past the row's
    # end, which is the next row's first flat suffix sum (0 after the
    # last row); flat position base + k ends up holding S[k] - k.
    past = np.append(excess[end[:-1]], 0)
    excess -= np.arange(excess.size, dtype=np.int64)
    excess -= np.repeat(past - base, size)
    h = np.add.reduceat(excess >= 0, base, dtype=np.int64) - 1
    return h, excess[base + h] + h


def _local_core_batch(csr, rows, current, old):
    """Vectorized ``LocalCore`` (Eq. 1) for a batch of nodes.

    Evaluates the h-index-style tightening for every node in ``rows``
    (every node when None) at once under sequential-sweep semantics
    (see :func:`_weigh`); the result is clamped by the owner's
    pass-start value.
    """
    _, w, _, counts = _weigh(csr, rows, current, old)
    return _h_index(w, counts, old if rows is None else old[rows])[0]


def _support(csr, core):
    """Eq. 2 count of every node, ``|{u in nbr(v): core[u] >= core[v]}|``,
    straight from ``csr.indices`` with no gather."""
    _, w, owner, counts = _weigh(csr, None, core, core)
    return np.bincount(owner[w >= np.repeat(core, counts)],
                       minlength=len(counts))


def _drop(csr, active, x, old, support, limit):
    """Drop every ``active`` node to its LocalCore value in ``x``.

    The rows of ``active`` are gathered once, for the h-index and for
    what the drops do to the nodes ahead of them.  A dropper's
    ``support`` becomes its row's count at the new value, under the
    weights it was just evaluated against.  Returns ``(larger,
    crossed)``: the larger-id neighbours below ``limit``, one per arc,
    and, again one per arc, those whose current value the dropper fell
    through: ``b < x[v] <= a`` for a drop from ``a`` to ``b``.
    """
    nbr, w, owner, counts = _weigh(csr, active, x, old)
    above = x[active]
    below, support[active] = _h_index(w, counts, old[active])
    x[active] = below
    ahead = nbr > owner
    if limit is not None:
        ahead &= nbr < limit
    larger = nbr[ahead]
    value = x[larger]
    return larger, larger[(np.repeat(below, counts)[ahead] < value)
                          & (value <= np.repeat(above, counts)[ahead])]


def _settle_counts(csr, old, new, support, changed):
    """Turn a sweep's mixed-value counts into Eq. 2 counts at ``new``.

    At the end of a sweep ``support[v]`` weighs every neighbour ``u <
    v`` at ``new[u]`` but every ``u > v`` still at ``old[u]``.  So the
    only correction left is one unit per changed ``u`` and smaller-id
    neighbour ``v`` that ``u`` fell through: ``new[u] < new[v] <=
    old[u]``.  Applied in place; ``changed`` (ascending) lists the nodes
    whose value dropped, and only their rows are read.  Returns the
    nodes the correction leaves violating Eq. 2 -- the next pass's
    active set, since the sweep leaves every node it met satisfied.
    """
    nbr, counts = _gather_rows(csr.indptr, csr.indices, changed)
    value = new[nbr]
    crossed = nbr[(nbr < np.repeat(changed, counts))
                  & (np.repeat(new[changed], counts) < value)
                  & (value <= np.repeat(old[changed], counts))]
    hit, units = np.unique(crossed, return_counts=True)
    support[hit] -= units
    return hit[support[hit] < new[hit]]


def _scalar_pass(csr, core, cnt, active, limit):
    """One SemiCore* pass as the reference's sequential worklist.

    The small-frontier counterpart of :func:`_sweep` for a resident
    snapshot: the violators pop from a min-heap in ascending id order,
    each is recomputed against the values in ``core`` (written in place,
    so smaller ids weigh in at their new values and larger ones at
    their pass-start values -- exactly the sweep's semantics), and
    ``cnt`` is kept as exact Eq. 2 counts the way Algorithm 5 keeps
    them: a drop from ``a`` to ``b`` costs every neighbour ``u`` with
    ``b < core[u] <= a`` one unit.  Larger-id neighbours it leaves
    violating join this pass, smaller-id ones the next.  Rows at or past
    ``limit`` are read but never recomputed.  Each row is taken with one
    ``tolist()``; rows longer than :data:`_SCALAR_ROW_MAX` are handled
    with array operations instead.  Returns ``(changed, upcoming)``:
    the nodes that dropped and the next pass's violators, both ascending
    int64 arrays.
    """
    indptr, indices = csr.indptr, csr.indices
    movable = csr.num_nodes if limit is None else limit
    heap = active.tolist()
    changed = []
    upcoming = set()
    while heap:
        v = heapq.heappop(heap)
        cold = core.item(v)
        if cnt.item(v) >= cold:
            continue
        start, end = indptr.item(v), indptr.item(v + 1)
        cap = min(cold, end - start)
        row = indices[start:end]
        if end - start <= _SCALAR_ROW_MAX:
            values = core[row].tolist()
            ordered = sorted(values, reverse=True)
            h = 0
            while h < cap and ordered[h] > h:
                h += 1
            support = h
            while support < len(ordered) and ordered[support] >= h:
                support += 1
            short = []
            for u, c in zip(row.tolist(), values):
                if h < c <= cold and u < movable:
                    k = cnt.item(u) - 1
                    cnt[u] = k
                    if k < c:
                        short.append(u)
        else:
            values = core[row]
            ordered = np.sort(values)[::-1]
            h = int(np.count_nonzero(ordered[:cap] > np.arange(cap)))
            support = int(np.count_nonzero(values >= h))
            crossed = (h < values) & (values <= cold) & (row < movable)
            hit = row[crossed]
            cnt[hit] -= 1
            short = hit[cnt[hit] < values[crossed]].tolist()
        core[v] = h
        cnt[v] = support
        changed.append(v)
        for u in short:
            if u > v:
                heapq.heappush(heap, u)
            else:
                upcoming.add(u)
    return (np.array(changed, dtype=np.int64),
            np.array(sorted(upcoming), dtype=np.int64))


def _sweep(csr, old, supporting, active, *, limit=None, window=None,
           load=None):
    """Exact result of one ascending Gauss-Seidel sweep, vectorized.

    ``old`` holds the pass-start values, ``supporting`` their Eq. 2
    counts and ``active`` the nodes that violate Eq. 2 against them: the
    only ones the sweep can move first.  Everything else joins the
    active set when a smaller-id neighbour drops.  An active node drops
    by definition, so every active node gets the full h-index treatment.

    The counts are state, never recounted.  ``support[v]`` is the
    mixed-value support of ``v`` at its current value ``x[v]``: the
    neighbours ``u < v`` weighed at ``x[u]``, the rest at ``old[u]``.  A
    dropper takes its count from its own h-index histogram, and a
    dropper falling from ``a`` to ``b`` costs each larger-id neighbour
    ``v`` with ``b < x[v] <= a`` one unit.  Those are the only moves,
    so a sweep reads nothing but its droppers' rows, once per drop.

    ``limit`` restricts the sweep to rows below it: rows at or past
    ``limit`` are read like any neighbour but never recomputed (the
    sharded engine's frozen halo rows).  ``window`` is SemiCore+'s
    processed mask: the larger-id neighbours of every dropper join it
    (they are processed in the same pass, whether or not they drop), so
    it ends as the least closure of the schedule under "a dropper
    recruits its larger neighbours" -- the reference's processed set.
    ``load`` is called with every wave's droppers before their rows are
    gathered, for a ``csr`` that holds only the rows loaded so far
    (:class:`_LoadedRows`).  The fixpoint is monotone -- values only
    decrease as the active set grows -- so it lands on exactly the
    sequential pass's state.  Returns ``(x, support, changed)``: the
    post-pass values, their mixed-value counts and the nodes that
    dropped (ascending), without mutating ``old`` or ``supporting``.
    """
    x = old.copy()
    support = supporting.copy()
    # Only rows below ``limit`` ever enter the active set.
    movable = csr.num_nodes if limit is None else limit
    mark = np.zeros(movable, dtype=bool)
    waves = [active]
    while active.size:
        if load is not None:
            load(active)
        # Larger-id neighbours of just-changed nodes are the only nodes
        # the sweep still has in front of it ...
        larger, crossed = _drop(csr, active, x, old, support, limit)
        if larger.size == 0:
            break
        if window is not None:
            window[larger] = True
        support[:movable] -= np.bincount(crossed, minlength=movable)
        mark[larger] = True
        candidates = np.flatnonzero(mark)
        mark[candidates] = False
        # ... and of those, exactly the ones whose support falls short
        # of their current value will drop (LocalCore(v) < x[v] iff
        # fewer than x[v] neighbours weigh in at >= x[v]).
        active = candidates[support[candidates] < x[candidates]]
        waves.append(active)
    return x, support, np.unique(np.concatenate(waves))


def _peel_values(indptr, indices, eff):
    """Vectorized generalized peel over a CSR (sub)graph.

    ``eff`` holds each node's starting effective degree (decrementable
    local degree plus any immortal support) and is consumed in place.
    The returned value of a node is the level at which it peels away --
    the unique largest ``k`` such that the node survives peeling at
    ``k``: its core number when ``eff`` is the plain degree.  Levels
    jump straight to the minimum surviving effective degree, so sparse
    level ranges (large immortal supports) cost nothing.
    """
    p = indptr.size - 1
    value = np.zeros(p, dtype=np.int64)
    alive = np.ones(p, dtype=bool)
    remaining = p
    level = 0
    while remaining:
        level = max(level, int(eff[alive].min()))
        frontier = np.flatnonzero(alive & (eff <= level))
        while frontier.size:
            value[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            nbr, _ = _gather_rows(indptr, indices, frontier)
            live = nbr[alive[nbr]]
            eff -= np.bincount(live, minlength=p)
            touched = np.unique(live)
            frontier = touched[eff[touched] <= level]
    return value


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _initial_cores(graph, initial_cores):
    """The pass-0 upper bound as an int64 array (degrees by default)."""
    return np.asarray(initial_bounds(graph, initial_cores), dtype=np.int64)


def _as_core_array(values):
    """Convert an int64 numpy vector to the API's ``array('i')``."""
    out = array("i")
    out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def _replay_neighbor_reads(graph, nodes, loaded=None):
    """Re-issue the reference engine's per-node adjacency reads.

    The snapshot already holds the adjacency, but the semi-external model
    charges every pass for reading it from the device; charging the
    identical ascending read sequence (:func:`~repro.storage.csr.
    read_sorted_rows`) keeps the shared ``IOStats`` (and its one-block
    cache behaviour) bit-identical to the reference run.  Rows a
    :class:`_LoadedRows` (``loaded``) read ahead are charged from the
    offsets it holds, with ``charge_spans``.  Graphs without I/O
    accounting skip the replay entirely.
    """
    if getattr(graph, "io_stats", None) is None:
        return
    if loaded is None:
        read_sorted_rows(graph, nodes)
        return
    charge_spans(graph.node_device, layout.node_entry_position(0)
                 + nodes * layout.NODE_ENTRY_SIZE,
                 np.full(nodes.size, layout.NODE_ENTRY_SIZE))
    start = loaded.indptr[nodes]
    charge_spans(graph.edge_device, layout.edge_entry_position(0)
                 + start * layout.EDGE_ENTRY_SIZE,
                 (loaded.indptr[nodes + 1] - start) * layout.EDGE_ENTRY_SIZE)


# ----------------------------------------------------------------------
# engine entry points
# ----------------------------------------------------------------------

def semi_core_numpy(graph, *, initial_cores=None, trace_changes=False,
                    trace_computed=False, max_iterations=None):
    """Vectorized Algorithm 3 with reference-identical semantics."""
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = _initial_cores(graph, initial_cores)

    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    iterations = 0
    computations = 0
    max_arcs = 0
    cnt = None
    update = True
    while update:
        # One snapshot per pass: the identical device reads of the
        # reference engine's per-iteration sequential scan.
        csr = CSRGraph.from_graph(graph)
        if csr.num_arcs > max_arcs:
            max_arcs = csr.num_arcs
        if cnt is None:
            cnt = _support(csr, core)
            active = np.flatnonzero(cnt < core)
        new, cnt, changed_ids = _sweep(csr, core, cnt, active)
        active = _settle_counts(csr, core, new, cnt, changed_ids)
        core = new
        changed = int(changed_ids.size)
        iterations += 1
        computations += n
        update = changed > 0
        if trace_changes:
            changes.append(changed)
        if trace_computed:
            computed_log.append(list(range(n)))
        if max_iterations is not None and iterations >= max_iterations:
            break

    elapsed = time.perf_counter() - started
    # The snapshot is resident plus the old/new value vectors.
    model_memory = 8 * (n + 1) + 4 * max_arcs + 16 * n
    return DecompositionResult(
        algorithm="SemiCore",
        cores=_as_core_array(core),
        iterations=iterations,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        computed_per_iteration=computed_log,
        engine="numpy",
    )


def semi_core_plus_numpy(graph, *, initial_cores=None, trace_changes=False,
                         trace_computed=False):
    """Vectorized Algorithm 4 with reference-identical semantics.

    Pass 1 schedules every node, so its snapshot is built with the
    identical ascending per-node ``neighbors()`` reads the reference
    issues; later passes replay the reads of their processed window
    (scheduled nodes plus mid-pass recruits, always ascending).  The
    next pass's schedule is the reference's ``upcoming`` list: the
    smaller-id neighbours of the nodes that changed -- a set, because
    the reference's ``active`` flags deduplicate, and no node scheduled
    for the next pass can be recruited back into the current one (every
    later dropper has a strictly larger id).
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = _initial_cores(graph, initial_cores)

    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    iterations = 0
    computations = 0
    num_arcs = 0
    csr = None
    scheduled = np.arange(n, dtype=np.int64)
    while scheduled.size:
        iterations += 1
        if csr is None:
            csr = CSRGraph.from_rows(graph, scheduled)
            num_arcs = csr.num_arcs
            cnt = _support(csr, core)
        # Every scheduled node is recomputed (SemiCore+ counts them
        # all), but a scheduled node drops iff it violates Theorem 4.1
        # against the pass-start values, so only those enter the sweep.
        window = np.zeros(n, dtype=bool)
        window[scheduled] = True
        new, cnt, changed_ids = _sweep(
            csr, core, cnt, scheduled[cnt[scheduled] < core[scheduled]],
            window=window)
        processed = np.flatnonzero(window)
        _settle_counts(csr, core, new, cnt, changed_ids)
        core = new
        computations += int(processed.size)
        if iterations > 1:
            _replay_neighbor_reads(graph, processed)
        if trace_changes:
            changes.append(int(changed_ids.size))
        if trace_computed:
            computed_log.append([int(v) for v in processed])
        nbr, counts = _gather_rows(csr.indptr, csr.indices, changed_ids)
        scheduled = np.unique(nbr[nbr < np.repeat(changed_ids, counts)])

    elapsed = time.perf_counter() - started
    # The snapshot stays resident plus the old/new value vectors.
    model_memory = 8 * (n + 1) + 4 * num_arcs + 16 * n
    return DecompositionResult(
        algorithm="SemiCore+",
        cores=_as_core_array(core),
        iterations=iterations,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        computed_per_iteration=computed_log,
        engine="numpy",
    )


def _converge_star_passes(graph, csr, core, *, supporting=None,
                          first=None, limit=None, changes=None,
                          computed_log=None):
    """The SemiCore* converge loop over ``csr``, for the rows below ``limit``.

    ``limit`` is None for a whole graph and ``frozen_from`` for a shard,
    whose halo rows are read like any neighbour but never recomputed.
    ``supporting`` holds exact Eq. 2 counts at ``core`` (counted from
    the snapshot when omitted); both are consumed.  ``first`` is the row
    set pass 1 is charged for computing (the whole-graph stale-count
    pass recomputes every row with a positive bound); without it pass 1,
    like every later pass, computes exactly the rows that change.  When
    ``csr`` is a snapshot, pass 1 is served by it and later passes
    replay the reads of the rows that changed; a pass that starts with
    at most :data:`SCALAR_PASS_MAX` violators runs as the scalar
    worklist (:func:`_scalar_pass`), any other as a sweep whose counts
    :func:`_settle_counts` corrects.  When ``csr`` is a
    :class:`_LoadedRows`, every pass is a sweep that loads its rows as
    it meets them and replays their reads.  Passes run while any row
    below ``limit`` violates Eq. 2; every pass hands the next one its
    violators, so no pass scans all rows.  Appends to the ``changes`` /
    ``computed_log`` traces when given.  Returns ``(core, cnt,
    iterations, computations)``.
    """
    loaded = isinstance(csr, _LoadedRows)
    if supporting is None:
        supporting = _support(csr, core)
    active = np.flatnonzero(supporting[:limit] < core[:limit])
    iterations = 0
    computations = 0
    while True:
        iterations += 1
        if not loaded and active.size <= SCALAR_PASS_MAX:
            changed_ids, active = _scalar_pass(csr, core, supporting,
                                               active, limit)
        else:
            old = core
            core, supporting, changed_ids = _sweep(
                csr, old, supporting, active, limit=limit,
                load=csr.load if loaded else None)
            active = _settle_counts(csr, old, core, supporting, changed_ids)
        if iterations == 1 and first is not None:
            processed = first
        else:
            processed = changed_ids
        if loaded:
            _replay_neighbor_reads(graph, processed, csr)
        elif iterations > 1:
            _replay_neighbor_reads(graph, processed)
        computations += int(processed.size)
        if changes is not None:
            changes.append(int(changed_ids.size))
        if computed_log is not None:
            computed_log.append(processed.tolist())
        if not active.size:
            return core, supporting, iterations, computations


def semi_core_star_numpy(graph, *, initial_cores=None, trace_changes=False,
                         trace_computed=False):
    """Vectorized Algorithm 5 with reference-identical semantics.

    A reference converge pass recomputes exactly the nodes that change
    (after the stale-count first pass, which recomputes every node with a
    positive bound), so the emulation runs the shared pass kernel and
    derives the reference counters from the changed sets: computations
    are ``|{core > 0}|`` in pass 1 and ``|changed|`` afterwards, and the
    next pass runs while any node still violates Eq. 2.
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    core = _initial_cores(graph, initial_cores)
    cnt = np.zeros(n, dtype=np.int64)
    iterations = computations = num_arcs = 0
    first = np.flatnonzero(core > 0)
    if first.size:
        # Pass 1 reads exactly the rows the reference recomputes, with
        # its ascending per-node ``neighbors()`` reads (rows it never
        # reads stay empty).
        csr = CSRGraph.from_rows(graph, first)
        num_arcs = csr.num_arcs
        core, cnt, iterations, computations = _converge_star_passes(
            graph, csr, core, first=first,
            changes=changes, computed_log=computed_log)

    elapsed = time.perf_counter() - started
    model_memory = 8 * (n + 1) + 4 * num_arcs + 16 * n
    return DecompositionResult(
        algorithm="SemiCore*",
        cores=_as_core_array(core),
        iterations=iterations,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        computed_per_iteration=computed_log,
        cnt=_as_core_array(cnt),
        engine="numpy",
    )


class _LoadedRows:
    """A CSR of a table's rows, holding only the rows loaded so far.

    A shard pass after the first knows which rows it recomputes only
    wave by wave, and the order the reference reads them in (ascending
    per pass) only once the pass is over.  So each wave's rows are
    loaded ahead with :func:`~repro.storage.csr.read_sorted_rows`
    (``charge=False``), and :func:`_converge_star_passes` charges them at
    the end of the pass by replaying the reference's reads.  The edge
    table stores rows back to back in id order, so a loaded row sits at
    its node-table offset and ends where the next row starts:
    ``indptr`` and ``indices`` are the table's own, exact wherever a
    loaded row reads them and never read anywhere else.
    """

    __slots__ = ("graph", "indptr", "indices", "num_nodes", "_loaded")

    def __init__(self, graph):
        self.graph = graph
        self.num_nodes = graph.num_nodes
        self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        self.indices = np.empty(graph.num_arcs, dtype=np.uint32)
        self._loaded = np.zeros(self.num_nodes, dtype=bool)

    def load(self, rows):
        """Make the adjacency of ``rows`` (ascending ids) resident."""
        rows = rows[~self._loaded[rows]]
        if not rows.size:
            return
        self._loaded[rows] = True
        offsets, degrees, indices = read_sorted_rows(self.graph, rows,
                                                     charge=False)
        self.indptr[rows] = offsets
        self.indptr[rows + 1] = offsets + degrees
        self.indices[np.arange(indices.size, dtype=np.int64) + np.repeat(
            offsets - (np.cumsum(degrees) - degrees), degrees)] = indices


def shard_pass_numpy(graph, *, initial_cores, frozen_from, cnt=None):
    """Vectorized per-shard SemiCore* pass with frozen halo rows.

    The numpy side of the ``"shard-pass"`` kernel contract (see
    :func:`repro.core.sharded.shard_pass_python`): ``graph`` is one
    shard's local table, ``initial_cores`` the current estimates for
    every local row, and rows at or past ``frozen_from`` are boundary
    estimates that contribute their value but are never recomputed.
    Without ``cnt``, pass 1 is one sequential scan of the owned rows
    (the read plan of ``iter_adjacency(0, frozen_from)``) and its counts
    are taken from that snapshot.  With ``cnt`` nothing is scanned: the
    sweeps run over :class:`_LoadedRows` from the Eq. 2 violators under
    ``cnt`` and charge the reads of the rows they recompute.  Every
    pass computes exactly the rows that change, and later passes replay
    their reads.
    Passes run until no owned row violates Eq. 2 -- the same greatest
    fixpoint the reference kernel reaches, so the cores, counts and
    charged reads agree exactly.
    """
    n = graph.num_nodes
    if len(initial_cores) != n:
        raise GraphError(
            "initial_cores has %d entries, expected %d"
            % (len(initial_cores), n)
        )
    if not 0 <= frozen_from <= n:
        raise GraphError(
            "frozen_from %d out of range [0, %d]" % (frozen_from, n)
        )
    core = np.array(initial_cores, dtype=np.int64)
    sweeps = []
    if cnt is None:
        csr = CSRGraph.from_storage(graph, stop=frozen_from)
        supporting = None
    else:
        csr = _LoadedRows(graph)
        supporting = np.array(cnt, dtype=np.int64)
    core, counts, _, computations = _converge_star_passes(
        graph, csr, core, supporting=supporting, limit=frozen_from,
        changes=sweeps)
    # Without carried counts the first sweep's rows came with the scan.
    rows_read = computations - (sweeps[0] if cnt is None else 0)
    model_memory = 8 * (n + 1) + 4 * graph.num_arcs + 16 * n
    return (_as_core_array(core), computations, rows_read, model_memory,
            counts[:frozen_from])


def distributed_core_numpy(graph, *, initial_cores=None,
                           trace_changes=False, max_rounds=None):
    """Vectorized Montresor et al. rounds with reference semantics.

    One Jacobi round evaluates Eq. 1 for every node against the
    estimates published at the previous barrier, which is exactly
    :func:`_local_core_batch` with ``current`` and ``old`` both bound to
    the round-start vector.  Each round rebuilds the snapshot, issuing
    the identical device reads of the reference engine's per-round
    sequential scan, so rounds, change traces, message counts and block
    I/O all match :func:`repro.core.distributed.distributed_core`
    bit for bit.
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = _initial_cores(graph, initial_cores)

    changes = [] if trace_changes else None
    rounds = 0
    computations = 0
    messages = 0
    max_arcs = 0
    update = True
    while update:
        csr = CSRGraph.from_graph(graph)
        if csr.num_arcs > max_arcs:
            max_arcs = csr.num_arcs
        new = _local_core_batch(csr, None, core, core)
        changed = int(np.count_nonzero(new != core))
        core = new
        rounds += 1
        computations += n
        messages += csr.num_arcs
        update = changed > 0
        if trace_changes:
            changes.append(changed)
        if max_rounds is not None and rounds >= max_rounds:
            break

    elapsed = time.perf_counter() - started
    # The snapshot is resident plus the old/new estimate vectors.
    model_memory = 8 * (n + 1) + 4 * max_arcs + 16 * n
    result = DecompositionResult(
        algorithm="DistributedCore",
        cores=_as_core_array(core),
        iterations=rounds,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        engine="numpy",
    )
    result.messages = messages  # message-count metric of the model
    return result


def im_core_numpy(graph):
    """Vectorized Algorithm 1: level-synchronous bin peeling.

    :func:`_peel_values` over the degrees peels every node of current
    degree ``<= k`` as one batch, propagating degree decrements with
    ``bincount`` until level ``k`` is exhausted.  Produces the canonical
    core numbers (they are unique, so skipping empty levels cannot
    change them) with the same ingest scan, iteration count and
    node-computation figure as the reference peeling.
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    csr = CSRGraph.from_graph(graph)
    core = _peel_values(csr.indptr, csr.indices, csr.degrees())

    elapsed = time.perf_counter() - started
    model_memory = csr.model_memory_bytes() + 16 * n + n
    return DecompositionResult(
        algorithm="IMCore",
        cores=_as_core_array(core),
        iterations=1,
        node_computations=n,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        engine="numpy",
    )
