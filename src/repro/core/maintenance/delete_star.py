"""SemiDelete*: semi-external edge deletion (Algorithm 6).

After deleting ``(u, v)`` the old core numbers remain valid upper bounds
(Theorem 3.1), so the SemiCore* sweep converges them again.  The only
bookkeeping is decrementing ``cnt`` for the endpoint(s) that counted the
other: the endpoint with the *smaller* core number counted its partner,
and with equal core numbers each counted the other.
"""

from __future__ import annotations

import time

from repro.core.result import MaintenanceResult, io_delta, io_snapshot
from repro.core.semicore_star import converge_star


def semi_delete_star(graph, core, cnt, u, v, *, validate=True):
    """Delete edge (u, v) and incrementally repair ``core``/``cnt``.

    ``graph`` must support ``delete_edge`` and the storage read protocol
    (:class:`~repro.storage.DynamicGraph` or
    :class:`~repro.storage.MemoryGraph`).  ``core`` and ``cnt`` are the
    in-memory arrays produced by
    :func:`~repro.core.semicore_star.semi_core_star`; both are updated in
    place.
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    if hasattr(graph, "delete_edge"):
        try:
            graph.delete_edge(u, v, validate=validate)
        except TypeError:
            graph.delete_edge(u, v)
    else:
        raise TypeError("graph does not support delete_edge")

    if core[u] < core[v]:
        cnt[u] -= 1
        seeds = (u,)
    elif core[v] < core[u]:
        cnt[v] -= 1
        seeds = (v,)
    else:
        cnt[u] -= 1
        cnt[v] -= 1
        seeds = (u, v)

    stats = converge_star(graph, core, cnt, seeds, trace_passes=False)

    return MaintenanceResult(
        algorithm="SemiDelete*",
        operation="delete",
        edge=(u, v),
        changed_nodes=sorted(stats.changed),
        candidate_nodes=len(stats.changed),
        iterations=stats.iterations,
        node_computations=stats.computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=time.perf_counter() - started,
    )
