"""Experiment drivers shared by the benchmark suite and the CLI.

The functions here encode the paper's measurement protocols so every
benchmark regenerates figures the same way:

* :func:`run_decomposition` dispatches one algorithm run by name;
* :func:`maintenance_trial` implements the Section VI-B protocol --
  sample 100 existing edges, delete them one by one, re-insert them one
  by one, report the averages per algorithm.
"""

from __future__ import annotations

import random

from repro.core.distributed import distributed_core
from repro.core.imcore import im_core
from repro.core.emcore import em_core
from repro.core.maintenance.inmemory import im_delete, im_insert
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.core.semicore import semi_core
from repro.core.semicore_plus import semi_core_plus
from repro.core.semicore_star import semi_core_star
from repro.errors import ReproError
from repro.obs.trace import span
from repro.storage.dynamic import DynamicGraph
from repro.storage.memgraph import MemoryGraph

DECOMPOSITION_ALGORITHMS = {
    "semicore": semi_core,
    "semicore+": semi_core_plus,
    "semicore*": semi_core_star,
    "emcore": em_core,
    "imcore": im_core,
    "distributed": distributed_core,
}


def run_decomposition(algorithm, graph, *, engine=None, **kwargs):
    """Run one decomposition algorithm by registry name.

    ``engine`` selects an execution engine (see :mod:`repro.core.engines`);
    every algorithm here is engine-aware, and the reference engine is
    the default everywhere.
    """
    name = algorithm.lower()
    try:
        runner = DECOMPOSITION_ALGORITHMS[name]
    except KeyError:
        raise ReproError(
            "unknown algorithm %r (known: %s)"
            % (algorithm, ", ".join(sorted(DECOMPOSITION_ALGORITHMS)))
        ) from None
    if engine is not None:
        kwargs["engine"] = engine
    # One coarse span around the whole run: numpy-engine kernels have no
    # per-pass spans of their own, so this keeps every engine attributed.
    with span("decompose", io=getattr(graph, "io_stats", None),
              algorithm=name, engine=engine or "python"):
        return runner(graph, **kwargs)


def sample_existing_edges(storage, count, seed=0):
    """Pick ``count`` distinct existing edges (the paper uses 100)."""
    edges = list(storage.edges())
    if count > len(edges):
        raise ReproError(
            "asked for %d edges but the graph has only %d" % (count, len(edges))
        )
    rng = random.Random(seed)
    return rng.sample(edges, count)


def summarize_maintenance(results):
    """Average the metrics of a list of MaintenanceResult objects."""
    if not results:
        return {
            "operations": 0, "avg_seconds": 0.0, "avg_read_ios": 0.0,
            "avg_write_ios": 0.0, "avg_changed": 0.0,
            "avg_candidates": 0.0, "avg_computations": 0.0,
        }
    n = len(results)
    return {
        "operations": n,
        "avg_seconds": sum(r.elapsed_seconds for r in results) / n,
        "avg_read_ios": sum(r.io.read_ios for r in results) / n,
        "avg_write_ios": sum(r.io.write_ios for r in results) / n,
        "avg_changed": sum(r.num_changed for r in results) / n,
        "avg_candidates": sum(r.candidate_nodes for r in results) / n,
        "avg_computations": sum(r.node_computations for r in results) / n,
    }


def maintenance_trial(storage, *, num_edges=100, seed=0,
                      include_inmemory=True):
    """The Fig. 10 protocol on one graph.

    Deletes ``num_edges`` sampled edges one by one (SemiDelete*), then
    re-inserts them one by one with SemiInsert and again with SemiInsert*
    (the graph is restored to its original state between insert passes by
    re-running the deletions).  With ``include_inmemory`` the protocol is
    repeated on a resident copy with IMDelete / IMInsert.

    Returns ``{algorithm: summary dict}``.
    """
    edges = sample_existing_edges(storage, num_edges, seed)
    graph = DynamicGraph(storage, buffer_capacity=None)
    maintainer = CoreMaintainer.from_graph(graph)

    summaries = {}

    delete_results = [maintainer.delete_edge(u, v) for u, v in edges]
    summaries["SemiDelete*"] = summarize_maintenance(delete_results)

    insert_two = [
        maintainer.insert_edge(u, v, algorithm="two-phase")
        for u, v in reversed(edges)
    ]
    summaries["SemiInsert"] = summarize_maintenance(insert_two)

    for u, v in edges:
        maintainer.delete_edge(u, v)
    insert_star = [
        maintainer.insert_edge(u, v, algorithm="star")
        for u, v in reversed(edges)
    ]
    summaries["SemiInsert*"] = summarize_maintenance(insert_star)

    if include_inmemory:
        memory = MemoryGraph.from_storage(storage)
        cores = im_core(memory).cores
        im_del = [im_delete(memory, cores, u, v) for u, v in edges]
        summaries["IMDelete"] = summarize_maintenance(im_del)
        im_ins = [im_insert(memory, cores, u, v) for u, v in reversed(edges)]
        summaries["IMInsert"] = summarize_maintenance(im_ins)

    return summaries


def decomposition_metrics(result):
    """Flatten a DecompositionResult into a report row dict."""
    return {
        "algorithm": result.algorithm,
        "engine": result.engine,
        "kmax": result.kmax,
        "iterations": result.iterations,
        "node_computations": result.node_computations,
        "read_ios": result.io.read_ios,
        "write_ios": result.io.write_ios,
        "total_ios": result.io.total_ios,
        "memory_bytes": result.model_memory_bytes,
        "seconds": result.elapsed_seconds,
    }
