"""SemiCore: the basic semi-external core decomposition (Algorithm 3).

Core values start at ``deg(v)`` (any upper bound works) and are repeatedly
tightened with :func:`~repro.core.locality.local_core` until a full pass
changes nothing.  Every iteration is one sequential scan of the node and
edge tables, so the I/O cost is ``l * (m + n) / B`` for ``l`` iterations --
the exact figure Theorem 4.2 states and the tests assert.
"""

from __future__ import annotations

import time

from repro.core.locality import initial_bounds, local_core
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.obs.trace import span


def semi_core(graph, *, initial_cores=None, trace_changes=False,
              trace_computed=False, max_iterations=None, engine=None):
    """Run Algorithm 3 against a storage-backed graph.

    Parameters
    ----------
    graph:
        Any object with the storage read protocol (``num_nodes``,
        ``read_degrees``, ``iter_adjacency``).
    initial_cores:
        Optional pointwise upper bound on the core numbers used instead of
        the degrees (Section IV-A notes any upper bound converges).
    trace_changes:
        Record the number of nodes whose value changed per iteration
        (the series plotted in Fig. 3).
    trace_computed:
        Record the exact nodes recomputed per iteration (used by the
        paper-trace tests; only sensible on small graphs).
    max_iterations:
        Abort after this many passes (``None`` runs to convergence).
    engine:
        Execution engine from :mod:`repro.core.engines` (default
        ``"python"``, the reference implementation below).  Every engine
        returns bit-identical results; see ``docs/ARCHITECTURE.md``.
    """
    if engine is not None and engine != "python":
        from repro.core.engines import engine_implementation

        return engine_implementation(engine, "semicore")(
            graph, initial_cores=initial_cores,
            trace_changes=trace_changes, trace_computed=trace_computed,
            max_iterations=max_iterations,
        )
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    n = graph.num_nodes
    core = initial_bounds(graph, initial_cores)

    changes = [] if trace_changes else None
    computed_log = [] if trace_computed else None
    iterations = 0
    computations = 0
    max_degree_seen = 0
    update = True
    while update:
        update = False
        changed = 0
        computed = [] if trace_computed else None
        with span("semicore.pass", io=getattr(graph, "io_stats", None),
                  iteration=iterations) as pass_span:
            for v, nbrs in graph.iter_adjacency():
                cold = core[v]
                computations += 1
                if trace_computed:
                    computed.append(v)
                if len(nbrs) > max_degree_seen:
                    max_degree_seen = len(nbrs)
                cnew = local_core(core, nbrs, cold)
                if cnew != cold:
                    core[v] = cnew
                    changed += 1
            pass_span.annotate(changed=changed)
        iterations += 1
        if changed:
            update = True
        if trace_changes:
            changes.append(changed)
        if trace_computed:
            computed_log.append(computed)
        if max_iterations is not None and iterations >= max_iterations:
            break

    elapsed = time.perf_counter() - started
    # core array (4n) plus the LocalCore scratch and one adjacency buffer.
    model_memory = 4 * n + 8 * max_degree_seen
    return DecompositionResult(
        algorithm="SemiCore",
        cores=core,
        iterations=iterations,
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        per_iteration_changes=changes,
        computed_per_iteration=computed_log,
    )
