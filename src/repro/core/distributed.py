"""The distributed k-core algorithm of Montresor et al. (reference [23]).

The locality property (Theorem 4.1) that SemiCore builds on was first
used by Montresor, De Pellegrini and Miorandi to decompose graphs in a
message-passing model: every node starts from ``deg(v)``, broadcasts its
estimate, and recomputes Eq. 1 from its neighbours' *last received*
estimates until no estimate changes.

This module simulates that algorithm with synchronous rounds (a Jacobi
iteration, versus the Gauss-Seidel sweep of SemiCore).  It serves two
purposes: it is the natural baseline showing why the paper's in-scan
updates converge faster, and it doubles as an independent implementation
of the locality fixpoint for cross-checking.
"""

from __future__ import annotations

import time
from array import array

from repro.core.locality import initial_bounds, local_core
from repro.core.result import DecompositionResult, io_delta, io_snapshot


def distributed_core(graph, *, initial_cores=None, trace_changes=False,
                     max_rounds=None, engine=None):
    """Synchronous message-passing core decomposition.

    Each round every node recomputes Eq. 1 from the estimates *published
    at the end of the previous round* (all updates take effect at the
    round barrier, as in a bulk-synchronous distributed system).  Returns
    a :class:`DecompositionResult` whose ``iterations`` is the number of
    rounds and whose ``io`` reflects one full scan per round when the
    graph is storage backed.  ``engine`` selects an execution engine
    from :mod:`repro.core.engines` (default ``"python"``, the reference
    rounds below); every engine returns bit-identical results.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "distributed")(
            graph, initial_cores=initial_cores,
            trace_changes=trace_changes, max_rounds=max_rounds,
        )
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = initial_bounds(graph, initial_cores)

    changes = [] if trace_changes else None
    rounds = 0
    computations = 0
    messages = 0
    max_degree_seen = 0
    update = True
    while update:
        update = False
        next_core = array("i", core)  # estimates published at the barrier
        changed = 0
        for v, nbrs in graph.iter_adjacency():
            computations += 1
            messages += len(nbrs)
            if len(nbrs) > max_degree_seen:
                max_degree_seen = len(nbrs)
            value = local_core(core, nbrs, core[v])
            if value != core[v]:
                next_core[v] = value
                changed += 1
        core = next_core
        rounds += 1
        if changed:
            update = True
        if trace_changes:
            changes.append(changed)
        if max_rounds is not None and rounds >= max_rounds:
            break

    elapsed = time.perf_counter() - started
    # Two estimate arrays plus the LocalCore scratch.
    model_memory = 8 * n + 8 * max_degree_seen
    result = DecompositionResult(
        algorithm="DistributedCore",
        cores=core,
        iterations=rounds,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
    )
    result.messages = messages  # message-count metric of the model
    return result
