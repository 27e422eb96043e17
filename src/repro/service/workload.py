"""Deterministic serving workloads: zipfian query mix + update stream.

Benchmarks and examples need a repeatable "millions of users" traffic
shape.  Real query logs are heavily skewed -- a few hot entities absorb
most lookups -- so node and threshold choices follow a zipfian rank
distribution: rank ``r`` is drawn with probability proportional to
``1 / (r + 1) ** s``.  Hot thresholds repeat, which is what the
per-snapshot ``subgraph`` memo serves, and every stream is a pure
function of its seed, so the same workload can be replayed across
engines, or against a straight-through replay, to assert byte-identical
answers.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
import time

#: Default query mix: (kind, weight).  Point lookups dominate, set and
#: aggregate queries ride along, subgraph extraction is the rare
#: expensive tail (it is the only I/O-issuing query kind).
DEFAULT_MIX = (
    ("coreness", 0.50),
    ("coreness_many", 0.15),
    ("members", 0.15),
    ("top", 0.07),
    ("histogram", 0.05),
    ("degeneracy", 0.03),
    ("subgraph", 0.05),
)

DEFAULT_ZIPF_S = 1.1
#: Nodes per ``coreness_many`` batch query.
MANY_BATCH = 8


class ZipfianSampler:
    """Draw ranks ``0..n-1`` with probability ``∝ 1 / (rank + 1) ** s``."""

    def __init__(self, n, s=DEFAULT_ZIPF_S):
        if n < 1:
            raise ValueError("need at least one rank")
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng):
        """One rank, using ``rng`` (a :class:`random.Random`)."""
        return bisect.bisect_left(self._cumulative,
                                  rng.random() * self._total)


def generate_queries(num_nodes, kmax, count, *, seed=0, mix=DEFAULT_MIX,
                     zipf_s=DEFAULT_ZIPF_S, max_depth=None):
    """A deterministic list of ``count`` query tuples.

    Node-valued queries pick zipfian node ids (low ids are hot, matching
    the registry proxies whose planted cliques sit at low ids);
    threshold-valued queries pick zipfian *depths*, i.e. hot thresholds
    sit near ``kmax`` where the cores are small.
    ``max_depth`` bounds how far below ``kmax`` the threshold queries
    reach: a serving workload asking for ``k``-cores near the degeneracy
    (leaderboards, dense-community lookups) never touches the
    whole-graph thresholds whose answers are a full scan wide.
    """
    rng = random.Random(seed)
    nodes = ZipfianSampler(num_nodes, zipf_s)
    depth_ranks = max(1, kmax)
    if max_depth is not None:
        depth_ranks = min(depth_ranks, max_depth)
    depths = ZipfianSampler(depth_ranks, zipf_s)
    kinds = [kind for kind, _ in mix]
    weights = [weight for _, weight in mix]
    queries = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "coreness":
            queries.append(("coreness", nodes.sample(rng)))
        elif kind == "coreness_many":
            queries.append(("coreness_many",
                            tuple(nodes.sample(rng)
                                  for _ in range(MANY_BATCH))))
        elif kind in ("members", "subgraph"):
            queries.append((kind, max(1, kmax - depths.sample(rng))))
        elif kind == "top":
            queries.append(("top", 1 + depths.sample(rng)))
        elif kind == "histogram":
            queries.append(("histogram",))
        elif kind == "degeneracy":
            queries.append(("degeneracy",))
        else:
            raise ValueError("unknown query kind %r in mix" % (kind,))
    return queries


def generate_updates(edges, num_nodes, count, *, seed=0, insert_ratio=0.5):
    """A deterministic, always-applicable stream of edge events.

    ``edges`` is the graph's current undirected edge list; the generator
    tracks presence as it goes, so every emitted ``("-", u, v)`` deletes
    an existing edge and every ``("+", u, v)`` inserts a missing one --
    the stream replays cleanly against a service seeded from the same
    graph.
    """
    rng = random.Random(seed)
    present = sorted((u, v) if u < v else (v, u) for u, v in edges)
    present_set = set(present)
    events = []
    for _ in range(count):
        if present and rng.random() >= insert_ratio:
            index = rng.randrange(len(present))
            edge = present[index]
            present[index] = present[-1]
            present.pop()
            present_set.discard(edge)
            events.append(("-", edge[0], edge[1]))
        else:
            for _ in range(64):
                u = rng.randrange(num_nodes)
                v = rng.randrange(num_nodes)
                if u == v:
                    continue
                edge = (u, v) if u < v else (v, u)
                if edge not in present_set:
                    present.append(edge)
                    present_set.add(edge)
                    events.append(("+", edge[0], edge[1]))
                    break
    return events


def in_batches(events, batch_size):
    """Chunk an event stream into apply-ready batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    return [events[i:i + batch_size]
            for i in range(0, len(events), batch_size)]


def execute_query(service, query):
    """Dispatch one workload query tuple against a service."""
    kind = query[0]
    if kind == "coreness":
        return service.coreness(query[1])
    if kind == "coreness_many":
        return service.coreness_many(query[1])
    if kind == "members":
        return service.kcore_members(query[1])
    if kind == "subgraph":
        return service.kcore_subgraph(query[1])
    if kind == "top":
        return service.top_k(query[1])
    if kind == "histogram":
        return service.core_histogram()
    if kind == "degeneracy":
        return service.degeneracy()
    raise ValueError("unknown query kind %r" % (kind,))


def run_queries(service, queries):
    """Execute ``queries`` in order; returns ``(results, latencies)``.

    ``results`` is the per-query answer list (compare it across engines
    -- it must be identical); ``latencies`` the per-query wall-clock
    seconds.
    """
    results = []
    latencies = []
    for query in queries:
        started = time.perf_counter()
        results.append(execute_query(service, query))
        latencies.append(time.perf_counter() - started)
    return results, latencies


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


def run_mixed_workload(service, queries, update_batches):
    """Interleave query blocks with update batches; return metrics.

    The queries are split into ``len(update_batches) + 1`` contiguous
    blocks with one update batch applied between consecutive blocks --
    the serving pattern the ISSUE's benchmark measures.  Returns a dict
    with the query results (for parity checks) and the serving metrics:
    queries/sec, p50/p99 latency, ``subgraph`` memo hit rate and read
    I/Os per 1k queries.
    """
    blocks = len(update_batches) + 1
    per_block = max(1, (len(queries) + blocks - 1) // blocks)
    io_before = service.io_stats.snapshot()
    hits_before = service.cache_stats.hits
    lookups_before = service.cache_stats.lookups
    results = []
    latencies = []
    update_seconds = 0.0
    update_read_ios = 0
    started = time.perf_counter()
    position = 0
    for index in range(blocks):
        block = queries[position:position + per_block]
        position += per_block
        block_results, block_latencies = run_queries(service, block)
        results.extend(block_results)
        latencies.extend(block_latencies)
        if index < len(update_batches):
            update_started = time.perf_counter()
            update_io_before = service.io_stats.snapshot()
            service.apply(update_batches[index])
            update_read_ios += service.io_stats.delta_since(
                update_io_before).read_ios
            update_seconds += time.perf_counter() - update_started
    elapsed = time.perf_counter() - started
    query_seconds = sum(latencies)
    io = service.io_stats.delta_since(io_before)
    query_read_ios = io.read_ios - update_read_ios
    lookups = service.cache_stats.lookups - lookups_before
    hits = service.cache_stats.hits - hits_before
    return {
        "results": results,
        "queries": len(results),
        "updates": sum(len(batch) for batch in update_batches),
        "elapsed_seconds": elapsed,
        "query_seconds": query_seconds,
        "update_seconds": update_seconds,
        "qps": len(results) / query_seconds if query_seconds else 0.0,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
        "hit_rate": hits / lookups if lookups else 0.0,
        "read_ios": io.read_ios,
        "write_ios": io.write_ios,
        "read_ios_per_1k_queries": (1000.0 * query_read_ios / len(results)
                                    if results else 0.0),
        "epoch": service.epoch,
    }


def run_concurrent_workload(service, queries, update_batches, *,
                            reader_threads=4):
    """Race ``reader_threads`` reader threads against a writer.

    The queries are dealt round-robin to the reader threads; the calling
    thread is the writer, progress-paced so the swaps spread across the
    read stream: batch ``i`` applies once the readers have completed
    ``(i + 1) / (batches + 1)`` of all reads.  Every read runs inside its
    own :meth:`CoreService.read_view`, so its value, epoch and stats come
    from one pinned snapshot; the record also carries the service epoch
    sampled just before the pin (``epoch_lo``) and just after the release
    (``epoch_hi``) -- a linearizability-style window.  A read whose
    observed epoch falls outside its window is a torn read and counts in
    ``torn_reads`` (the service guarantees zero).

    Returns a metrics dict with the per-read ``records`` (feed them to
    :func:`verify_epoch_coherence`), latency percentiles including
    p99.9, the swap count, and the torn-read count.  A reader exception
    is re-raised here after the remaining threads drain.
    """
    if reader_threads < 1:
        raise ValueError("reader_threads must be positive")
    total = len(queries)
    shards = [queries[index::reader_threads]
              for index in range(reader_threads)]
    epoch_start = service.epoch
    progress = threading.Condition()
    completed = [0]
    records = []
    records_lock = threading.Lock()
    failures = []

    def reader(shard):
        local = []
        try:
            for query in shard:
                epoch_lo = service.epoch
                started = time.perf_counter()
                with service.read_view() as view:
                    value = execute_query(view, query)
                    epoch = view.epoch
                latency = time.perf_counter() - started
                local.append({
                    "query": query,
                    "value": value,
                    "epoch": epoch,
                    "latency": latency,
                    "epoch_lo": epoch_lo,
                    "epoch_hi": service.epoch,
                })
                with progress:
                    completed[0] += 1
                    progress.notify_all()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)
            with progress:
                progress.notify_all()
        finally:
            with records_lock:
                records.extend(local)

    threads = [threading.Thread(target=reader, args=(shard,), daemon=True)
               for shard in shards]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for index, batch in enumerate(update_batches):
        target = (index + 1) * total // (len(update_batches) + 1)
        with progress:
            progress.wait_for(
                lambda: completed[0] >= target or failures)
        if failures:
            break
        service.apply(batch)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if failures:
        raise failures[0]
    torn = sum(1 for record in records
               if not record["epoch_lo"] <= record["epoch"]
               <= record["epoch_hi"])
    latencies = [record["latency"] for record in records]
    return {
        "records": records,
        "reads": len(records),
        "reader_threads": reader_threads,
        "updates": sum(len(batch) for batch in update_batches),
        "swaps": service.epoch - epoch_start,
        "torn_reads": torn,
        "elapsed_seconds": elapsed,
        "qps": len(records) / elapsed if elapsed else 0.0,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
        "p999_seconds": percentile(latencies, 0.999),
        "epoch": service.epoch,
    }


def verify_epoch_coherence(service_factory, update_batches, records):
    """Check every concurrent read against a straight-through replay.

    ``service_factory`` must rebuild the service in the state the
    records' epoch 0 refers to (same seed graph, same algorithm/engine);
    ``update_batches`` are the batches the writer applied while the
    records were collected.  The replay applies them one at a time and
    recomputes each distinct ``(epoch, query)`` pair the records
    mention, single-threaded -- the ground truth snapshot isolation
    promises.  Returns the list of mismatches (empty = every concurrent
    read returned exactly the value its epoch's index held).
    """
    by_epoch = {}
    for record in records:
        by_epoch.setdefault(record["epoch"], set()).add(record["query"])
    expected = {}
    service = service_factory()
    try:
        base = service.epoch
        for step in range(len(update_batches) + 1):
            if step:
                service.apply(update_batches[step - 1])
            epoch = base + step
            for query in sorted(by_epoch.get(epoch, ())):
                expected[(epoch, query)] = execute_query(service, query)
    finally:
        close = getattr(service, "close", None)
        if close is not None:
            close()
    mismatches = []
    for record in records:
        key = (record["epoch"], record["query"])
        if key not in expected:
            mismatches.append({
                "query": record["query"], "epoch": record["epoch"],
                "got": record["value"], "want": None,
                "reason": "epoch outside the replayed range",
            })
        elif expected[key] != record["value"]:
            mismatches.append({
                "query": record["query"], "epoch": record["epoch"],
                "got": record["value"], "want": expected[key],
                "reason": "value diverges from replay",
            })
    return mismatches
