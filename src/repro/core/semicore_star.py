"""SemiCore*: optimal node computation (Algorithm 5).

For each node the algorithm maintains

    cnt(v) = |{u in nbr(v) : core(u) >= core(v)}|                    (Eq. 2)

and recomputes a node if and only if ``cnt(v) < core(v)`` -- Lemma 4.2
shows this condition is both necessary and sufficient, so after the first
pass every adjacency read is guaranteed to decrease a core value.

The convergence sweep (:func:`converge_star`) is shared with the
maintenance algorithms: SemiDelete* is exactly this sweep seeded with the
deletion's endpoints, and SemiInsert runs it as its second phase.
"""

from __future__ import annotations

import heapq
import time
from array import array
from contextlib import nullcontext
from typing import List, NamedTuple, Optional, Set

from repro.core.locality import initial_bounds, local_core
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.obs.trace import span


class ConvergeStats(NamedTuple):
    """Counters collected by one :func:`converge_star` run."""

    iterations: int
    computations: int
    changed: Set[int]
    per_iteration_changes: Optional[List[int]]
    computed_per_iteration: Optional[List[List[int]]]
    max_degree_seen: int


def converge_star(graph, core, cnt, candidates, *, trace_changes=False,
                  trace_computed=False, trace_passes=True):
    """Drive ``core``/``cnt`` to the fixpoint from a candidate seed set.

    This is lines 4-14 of Algorithm 5.  The paper sweeps an index window
    ``[vmin, vmax]`` testing ``cnt(v) < core(v)``; since only nodes whose
    ``cnt`` was just decremented can newly satisfy the test, scheduling
    exactly those nodes in a min-heap visits the same nodes in the same
    order.  Candidates are re-checked when popped, so stale or duplicate
    entries are harmless.  ``trace_passes`` opens one
    ``semicore_star.pass`` span per pass; the maintenance algorithms turn
    it off, so their sweeps stay in the time of the batch that runs them.
    """
    current = [v for v in candidates if cnt[v] < core[v]]
    iterations = 0
    computations = 0
    changed = set()
    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    max_degree_seen = 0

    while current:
        heapq.heapify(current)
        upcoming = []
        changed_this_pass = 0
        computed = [] if trace_computed else None
        iterations += 1
        with (span("semicore_star.pass",
                   io=getattr(graph, "io_stats", None),
                   iteration=iterations)
              if trace_passes else nullcontext()) as pass_span:
            while current:
                v = heapq.heappop(current)
                if cnt[v] >= core[v]:
                    continue
                nbrs = graph.neighbors(v)
                computations += 1
                if trace_computed:
                    computed.append(v)
                if len(nbrs) > max_degree_seen:
                    max_degree_seen = len(nbrs)
                cold = core[v]
                cnew = local_core(core, nbrs, cold)
                core[v] = cnew
                fresh_cnt = 0
                for u in nbrs:
                    if core[u] >= cnew:
                        fresh_cnt += 1
                cnt[v] = fresh_cnt
                if cnew == cold:
                    continue
                changed.add(v)
                changed_this_pass += 1
                for u in nbrs:
                    cu = core[u]
                    if cnew < cu <= cold:
                        cnt[u] -= 1
                for u in nbrs:
                    if cnt[u] < core[u]:
                        if u > v:
                            heapq.heappush(current, u)
                        elif u < v:
                            upcoming.append(u)
            if pass_span is not None:
                pass_span.annotate(changed=changed_this_pass)
        current = upcoming
        if trace_changes:
            changes.append(changed_this_pass)
        if trace_computed:
            computed_log.append(computed)

    return ConvergeStats(iterations, computations, changed, changes,
                         computed_log, max_degree_seen)


def semi_core_star(graph, *, initial_cores=None, trace_changes=False,
                   trace_computed=False, engine=None):
    """Run Algorithm 5 against a storage-backed graph.

    The result carries the converged ``cnt`` array alongside the cores;
    :class:`~repro.core.maintenance.CoreMaintainer` needs both to process
    edge updates incrementally.  ``engine`` selects an execution engine
    from :mod:`repro.core.engines` (default ``"python"``, the reference
    implementation below); every engine returns bit-identical results.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "semicore*")(
            graph, initial_cores=initial_cores,
            trace_changes=trace_changes, trace_computed=trace_computed,
        )
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = initial_bounds(graph, initial_cores)
    cnt = array("i", bytes(4 * n))

    stats = converge_star(graph, core, cnt, range(n),
                          trace_changes=trace_changes,
                          trace_computed=trace_computed)

    elapsed = time.perf_counter() - started
    # core + cnt arrays plus LocalCore scratch and adjacency buffer.
    model_memory = 8 * n + 8 * stats.max_degree_seen
    return DecompositionResult(
        algorithm="SemiCore*",
        cores=core,
        iterations=stats.iterations,
        node_computations=stats.computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=stats.per_iteration_changes,
        computed_per_iteration=stats.computed_per_iteration,
        cnt=cnt,
    )
