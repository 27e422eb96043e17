"""Serving-layer throughput: the CoreService under a zipfian workload.

The ROADMAP north star is serving heavy query traffic from a maintained
core index.  This benchmark drives :class:`repro.service.CoreService`
with the deterministic workload generator -- a zipfian query mix
interleaved with edge-update batches -- and reports, per engine:
queries/sec, p50/p99 latency, ``subgraph`` memo hit rate and read I/Os
per 1k queries.  The rows land in ``BENCH_RESULTS.json`` through the
shared results sink.

The serving contract asserted here: query answers and the final epoch
are identical across the ``python`` / ``numpy`` engines (the engine is
observationally invisible).

The concurrent section races reader threads against a live writer over
the snapshot-isolated read plane: an idle pass (readers only) and a
write-load pass (>= 20 ``apply()`` swaps under >= 2,000 mixed reads).
Always asserted, at any scale: zero torn reads, zero epoch-window
violations, and every returned value equal to a single-threaded replay
at the epoch the read observed.  At full scale the read p99 under write
load must stay within 5x of the idle-read p99.
"""

from repro.core.engines import engine_names
from repro.service import (
    CoreService,
    generate_queries,
    generate_updates,
    in_batches,
    run_concurrent_workload,
    run_mixed_workload,
    verify_epoch_coherence,
)

from benchmarks.conftest import BENCH_SCALE, load_bench_dataset, once

DATASET = "lj"
NUM_QUERIES = 3000
NUM_UPDATES = 60
UPDATE_BATCH = 20
QUERY_SEED = 11
UPDATE_SEED = 13

#: Serving mix: heavier on the set/aggregate queries a core-index
#: service exists to answer (k-core membership, subgraph extraction,
#: leaderboards) than on O(1) point lookups.  Threshold queries stay
#: within the deepest 8 levels below kmax: the hot serving path (dense
#: communities / leaderboards), not whole-graph exports.
MAX_QUERY_DEPTH = 8

QUERY_MIX = (
    ("coreness", 0.20),
    ("coreness_many", 0.10),
    ("members", 0.30),
    ("top", 0.10),
    ("histogram", 0.05),
    ("degeneracy", 0.02),
    ("subgraph", 0.23),
)

ENGINES = engine_names()

#: Concurrent section: 4 readers, >= 2000 reads racing >= 20 swaps
#: (the ISSUE acceptance floor), p99 under write load within 5x of the
#: idle-read p99 at full scale.
READER_THREADS = 4
CONCURRENT_READS = 3000
CONCURRENT_UPDATES = 240
CONCURRENT_BATCH = 10
WRITE_LOAD_P99_FACTOR = 5.0


def _run_service_workload(engine):
    """One seeded service driven through the standard mixed workload."""
    storage = load_bench_dataset(DATASET)
    service = CoreService.from_storage(storage, engine=engine)
    kmax = service.degeneracy()
    queries = generate_queries(service.num_nodes, kmax, NUM_QUERIES,
                               seed=QUERY_SEED, mix=QUERY_MIX,
                               max_depth=MAX_QUERY_DEPTH)
    updates = generate_updates(list(service.graph.edges()),
                               service.num_nodes, NUM_UPDATES,
                               seed=UPDATE_SEED)
    metrics = run_mixed_workload(service, queries,
                                 in_batches(updates, UPDATE_BATCH))
    service.close()
    return metrics


def test_service_throughput(benchmark, results):
    outcome = {}

    def run():
        for engine in ENGINES:
            outcome[engine] = _run_service_workload(engine)

    once(benchmark, run)

    reference = outcome[ENGINES[0]]
    for engine in ENGINES:
        metrics = outcome[engine]
        results.add(
            "Service throughput (%s)" % DATASET,
            engine=engine,
            qps="%.0f" % metrics["qps"],
            p50="%.1fus" % (1e6 * metrics["p50_seconds"]),
            p99="%.1fus" % (1e6 * metrics["p99_seconds"]),
            hit_rate="%.1f%%" % (100.0 * metrics["hit_rate"]),
            io_per_1k="%.1f" % metrics["read_ios_per_1k_queries"],
            epoch=metrics["epoch"],
            _qps=metrics["qps"],
            _seconds=metrics["query_seconds"],
            _p50_seconds=metrics["p50_seconds"],
            _p99_seconds=metrics["p99_seconds"],
            _hit_rate=metrics["hit_rate"],
            _read_ios_per_1k_queries=metrics["read_ios_per_1k_queries"],
            _read_ios=metrics["read_ios"],
        )
        # The engine must be observationally invisible: byte-identical
        # answers for the same workload, and every run applies the same
        # batches, so epochs must agree.
        assert metrics["results"] == reference["results"], \
            "%s answers diverged" % engine
        assert metrics["epoch"] == reference["epoch"]


def _concurrent_service(engine):
    storage = load_bench_dataset(DATASET)
    return CoreService.from_storage(storage, engine=engine)


def test_service_concurrent_throughput(benchmark, results):
    outcome = {}

    def run():
        for engine in ENGINES:
            service = _concurrent_service(engine)
            kmax = service.degeneracy()
            queries = generate_queries(service.num_nodes, kmax,
                                       CONCURRENT_READS,
                                       seed=QUERY_SEED, mix=QUERY_MIX,
                                       max_depth=MAX_QUERY_DEPTH)
            updates = generate_updates(list(service.graph.edges()),
                                       service.num_nodes,
                                       CONCURRENT_UPDATES,
                                       seed=UPDATE_SEED)
            batches = in_batches(updates, CONCURRENT_BATCH)
            # Idle pass: 4 readers, no writer -- the latency baseline.
            idle = run_concurrent_workload(
                service, queries, [], reader_threads=READER_THREADS)
            # Write-load pass: the same readers race 24 apply() swaps.
            loaded = run_concurrent_workload(
                service, queries, batches,
                reader_threads=READER_THREADS)
            # Ground truth: replay the batches single-threaded and
            # recompute every (epoch, query) pair the races observed.
            mismatches = verify_epoch_coherence(
                lambda: _concurrent_service(engine), batches,
                idle["records"] + loaded["records"])
            service.close()
            outcome[engine] = {"idle": idle, "loaded": loaded,
                               "mismatches": mismatches}

    once(benchmark, run)

    for engine in ENGINES:
        for mode, metrics in (("idle-concurrent",
                               outcome[engine]["idle"]),
                              ("write-load",
                               outcome[engine]["loaded"])):
            results.add(
                "Concurrent serving (%s)" % DATASET,
                engine=engine,
                mode=mode,
                readers=READER_THREADS,
                reads=metrics["reads"],
                swaps=metrics["swaps"],
                torn=metrics["torn_reads"],
                qps="%.0f" % metrics["qps"],
                p50="%.1fus" % (1e6 * metrics["p50_seconds"]),
                p99="%.1fus" % (1e6 * metrics["p99_seconds"]),
                p999="%.1fus" % (1e6 * metrics["p999_seconds"]),
                _qps=metrics["qps"],
                _elapsed_seconds=metrics["elapsed_seconds"],
                _p50_seconds=metrics["p50_seconds"],
                _p99_seconds=metrics["p99_seconds"],
                _p999_seconds=metrics["p999_seconds"],
            )

    for engine in ENGINES:
        idle = outcome[engine]["idle"]
        loaded = outcome[engine]["loaded"]
        # The ISSUE acceptance floor: >= 2000 reads race >= 20 swaps
        # with zero torn reads, and every value matches the replay.
        assert loaded["reads"] >= 2000
        assert loaded["swaps"] >= 20
        assert idle["torn_reads"] == 0
        assert loaded["torn_reads"] == 0
        assert outcome[engine]["mismatches"] == [], \
            "%s: concurrent reads diverged from replay: %r" \
            % (engine, outcome[engine]["mismatches"][:3])
        if BENCH_SCALE >= 1.0:
            assert loaded["p99_seconds"] <= \
                WRITE_LOAD_P99_FACTOR * idle["p99_seconds"], \
                "%s: read p99 under write load %.1fus exceeds %.0fx " \
                "the idle p99 %.1fus" \
                % (engine, 1e6 * loaded["p99_seconds"],
                   WRITE_LOAD_P99_FACTOR, 1e6 * idle["p99_seconds"])
