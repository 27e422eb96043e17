"""A core-index service: queries, batched updates, crash recovery.

The end-to-end serving story the ROADMAP aims at: seed a core index
once, keep it maintained under an update stream, answer a zipfian query
mix from a cache, checkpoint continuously -- and come back after a
crash by replaying the journal tail instead of recomputing.
"""

import os
import shutil
import tempfile

import repro
from repro.service import (
    CoreService,
    generate_queries,
    generate_updates,
    in_batches,
    run_mixed_workload,
)
from repro.datasets import generators


def main():
    edges, n = generators.social_graph(2500, attach=3, clique=16, seed=33)
    workdir = tempfile.mkdtemp(prefix="core_service_demo_")
    try:
        prefix = os.path.join(workdir, "graph")
        storage = repro.GraphStorage.from_edges(edges, n, path=prefix)
        data_dir = os.path.join(workdir, "service")

        engine = "numpy"
        service = CoreService.from_storage(storage, engine=engine,
                                           data_dir=data_dir,
                                           checkpoint_interval=2)
        kmax = service.degeneracy()
        print("service up: %d users, kmax=%d (engine: %s)"
              % (n, kmax, engine))

        # Serve a zipfian query mix while update batches stream in.
        queries = generate_queries(n, kmax, 1200, seed=1)
        updates = generate_updates(edges, n, 60, seed=2)
        metrics = run_mixed_workload(service, queries,
                                     in_batches(updates, 20))
        print("served %d queries across %d update batches (epoch %d)"
              % (metrics["queries"], 3, metrics["epoch"]))
        print("  %.0f queries/sec, p99 %.0fus, cache hit rate %.0f%%,"
              " %.1f read I/Os per 1k queries"
              % (metrics["qps"], 1e6 * metrics["p99_seconds"],
                 100 * metrics["hit_rate"],
                 metrics["read_ios_per_1k_queries"]))

        # Crash: the process dies here without any orderly shutdown.
        # The journal already holds every acknowledged batch, and the
        # periodic checkpoints cover most of them.
        crashed_state = (list(service.maintainer.cores), service.epoch)
        del service

        # Restart: load the checkpoint, replay the journal tail.
        resumed = CoreService.open(data_dir, engine=engine)
        assert list(resumed.maintainer.cores) == crashed_state[0]
        assert resumed.epoch == crashed_state[1]
        assert resumed.verify()
        print("restart: checkpoint + journal replay reproduced epoch %d"
              " exactly" % resumed.epoch)
        jstats = resumed.journal.stats()
        print("journal after compaction: %d live segment(s), %d of %d"
              " events on disk (%d bytes) -- the replay prefix stays"
              " bounded by the checkpoint interval"
              % (jstats["segments"], jstats["retained_events"],
                 jstats["total_events"], jstats["disk_bytes"]))
        hot = resumed.top_k(3)
        print("hottest users after recovery: %s"
              % ", ".join("v%d (core %d)" % pair for pair in hot))
        resumed.close()
        print("service state recovered and verified")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
