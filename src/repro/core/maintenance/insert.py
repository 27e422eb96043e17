"""SemiInsert: two-phase semi-external edge insertion (Algorithm 7).

Phase 1 promotes every candidate: starting from the endpoint with the
smaller core number ``cold``, all nodes reachable through nodes of core
``cold`` have their value lifted to ``cold + 1`` (Theorem 3.2 guarantees
the true changed set is inside this candidate set).  ``cnt`` is kept
consistent with Eq. 2 throughout: a promoted node recomputes its own
``cnt`` at the new level and increments the ``cnt`` of neighbours already
at ``cold + 1``.

Phase 2 is simply the SemiCore* sweep: every over-promoted node now has
``cnt < core`` and is demoted back.  The paper's criticism of this
algorithm -- the candidate set can be large, causing many loads in both
phases -- is what SemiInsert* addresses.
"""

from __future__ import annotations

import heapq
import time

from repro.core.locality import compute_cnt
from repro.core.result import MaintenanceResult, io_delta, io_snapshot
from repro.core.semicore_star import converge_star


def semi_insert(graph, core, cnt, u, v, *, validate=True):
    """Insert edge (u, v) and incrementally repair ``core``/``cnt``."""
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    try:
        graph.insert_edge(u, v, validate=validate)
    except TypeError:
        graph.insert_edge(u, v)

    if core[u] > core[v]:
        u, v = v, u
    cold = core[u]
    cnt[u] += 1
    if core[v] == cold:
        cnt[v] += 1

    # ------------------------------------------------------------------
    # Phase 1: promote the connected candidate set (iterations 1.x).
    # ------------------------------------------------------------------
    activated = {u}
    promoted = []
    current = [u]
    iterations = 0
    computations = 0
    while current:
        heapq.heapify(current)
        upcoming = []
        iterations += 1
        while current:
            w = heapq.heappop(current)
            if core[w] != cold:
                continue
            core[w] = cold + 1
            promoted.append(w)
            nbrs = graph.neighbors(w)
            computations += 1
            cnt[w] = compute_cnt(core, nbrs, cold + 1)
            for x in nbrs:
                if core[x] == cold + 1 and x != w:
                    cnt[x] += 1
            for x in nbrs:
                if core[x] == cold and x not in activated:
                    activated.add(x)
                    if x > w:
                        heapq.heappush(current, x)
                    else:
                        upcoming.append(x)
        current = upcoming

    # ------------------------------------------------------------------
    # Phase 2: SemiCore* sweep demotes the over-promoted nodes.
    # ------------------------------------------------------------------
    stats = converge_star(graph, core, cnt, promoted, trace_passes=False)

    changed = [w for w in promoted if core[w] == cold + 1]
    return MaintenanceResult(
        algorithm="SemiInsert",
        operation="insert",
        edge=(u, v),
        changed_nodes=sorted(changed),
        candidate_nodes=len(promoted),
        iterations=iterations + stats.iterations,
        node_computations=computations + stats.computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=time.perf_counter() - started,
    )
