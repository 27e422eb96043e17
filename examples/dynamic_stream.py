"""Maintaining core numbers under a live edge stream.

The paper's Section V scenario: a social network keeps changing, and
recomputing the decomposition from scratch per update is wasteful.  This
example replays a stream of friendships forming and dissolving, keeps
core numbers current with SemiInsert*/SemiDelete*, and compares the
incremental cost against recomputation.
"""

import random
import time

import repro
from repro.datasets import generators
from repro.storage.dynamic import DynamicGraph


def main():
    rng = random.Random(99)
    edges, n = generators.social_graph(3000, attach=3, clique=18, seed=21)
    storage = repro.GraphStorage.from_edges(edges, n)

    # The dynamic overlay buffers updates in memory and compacts the
    # tables when 2000 operations accumulate (Section V, graph storage).
    # The seeding SemiCore* runs on the vectorized engine -- identical
    # arrays to the reference python engine.
    graph = DynamicGraph(storage, buffer_capacity=2000)
    maintainer = repro.CoreMaintainer.from_graph(graph, engine="numpy")
    print("stream start: %d users, %d friendships, kmax=%d"
          % (graph.num_nodes, graph.num_edges, maintainer.kmax))

    present = set(edges)
    io_before = graph.io_stats.snapshot()
    started = time.perf_counter()
    operations = 600
    inserts = deletes = changed = 0
    for _ in range(operations):
        if present and rng.random() < 0.5:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            result = maintainer.delete_edge(*edge)
            deletes += 1
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (min(u, v), max(u, v)) in present:
                continue
            present.add((min(u, v), max(u, v)))
            result = maintainer.insert_edge(u, v)
            inserts += 1
        changed += result.num_changed
    elapsed = time.perf_counter() - started
    stream_io = graph.io_stats.delta_since(io_before)

    applied = inserts + deletes
    print("applied %d updates (%d inserts / %d deletes) in %.2fs"
          % (applied, inserts, deletes, elapsed))
    print("  avg %.3f ms and %.1f read I/Os per update"
          % (1e3 * elapsed / applied, stream_io.read_ios / applied))
    print("  avg %.2f core numbers changed per update" % (changed / applied))

    # What would recomputation have cost instead?
    fresh = repro.semi_core_star(graph)
    print("\none full recomputation: %.2fs and %d read I/Os"
          % (fresh.elapsed_seconds, fresh.io.read_ios))
    print("  -> incremental maintenance did %d updates for %.1fx the"
          " I/O of ONE recomputation"
          % (applied, stream_io.read_ios / max(1, fresh.io.read_ios)))

    assert list(fresh.cores) == list(maintainer.cores)
    print("incremental cores verified, kmax=%d" % maintainer.kmax)


if __name__ == "__main__":
    main()
