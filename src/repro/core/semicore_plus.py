"""SemiCore+: partial node computation (Algorithm 4).

Lemma 4.1: a node's value can only change when a neighbour's value changed
in the previous pass.  SemiCore+ therefore keeps an ``active`` flag per
node and a window ``[vmin, vmax]`` of nodes to revisit; when node ``v``
changes, larger neighbours are recomputed in the *same* pass (the window's
upper end is extended) while smaller neighbours wait for the next pass.

The sweep is implemented with a min-heap of scheduled nodes, which visits
exactly the nodes the paper's array window visits and in the same order --
the paper-trace tests assert the iteration-by-iteration equivalence with
Fig. 4 (23 node computations on the sample graph).
"""

from __future__ import annotations

import heapq
import time

from repro.core.locality import initial_bounds, local_core
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.obs.trace import span


def semi_core_plus(graph, *, initial_cores=None, trace_changes=False,
                   trace_computed=False, engine=None):
    """Run Algorithm 4 against a storage-backed graph.

    ``engine`` selects an execution engine from
    :mod:`repro.core.engines` (default ``"python"``, the reference
    implementation below); every engine returns bit-identical results.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "semicore+")(
            graph, initial_cores=initial_cores,
            trace_changes=trace_changes, trace_computed=trace_computed,
        )
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = initial_bounds(graph, initial_cores)

    active = bytearray(b"\x01") * n if n else bytearray()
    current = list(range(n))
    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    iterations = 0
    computations = 0
    max_degree_seen = 0

    while current:
        heapq.heapify(current)
        upcoming = []
        changed = 0
        computed = [] if trace_computed else None
        iterations += 1
        with span("semicore_plus.pass",
                  io=getattr(graph, "io_stats", None),
                  iteration=iterations) as pass_span:
            while current:
                v = heapq.heappop(current)
                if not active[v]:
                    continue
                active[v] = 0
                nbrs = graph.neighbors(v)
                computations += 1
                if trace_computed:
                    computed.append(v)
                if len(nbrs) > max_degree_seen:
                    max_degree_seen = len(nbrs)
                cold = core[v]
                cnew = local_core(core, nbrs, cold)
                if cnew == cold:
                    continue
                core[v] = cnew
                changed += 1
                for u in nbrs:
                    if not active[u]:
                        active[u] = 1
                        if u > v:
                            heapq.heappush(current, u)
                        else:
                            upcoming.append(u)
            pass_span.annotate(changed=changed)
        current = upcoming
        if trace_changes:
            changes.append(changed)
        if trace_computed:
            computed_log.append(computed)

    elapsed = time.perf_counter() - started
    # core array + active flags + LocalCore scratch and adjacency buffer.
    model_memory = 4 * n + n + 8 * max_degree_seen
    return DecompositionResult(
        algorithm="SemiCore+",
        cores=core,
        iterations=iterations,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        computed_per_iteration=computed_log,
    )
