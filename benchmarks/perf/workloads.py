"""The four benchmark workloads and the closed-loop runner that drives them.

Every workload has the same life cycle, run in one process by
:func:`run_workload`:

1. **inputs** (untimed) -- graph edges and operation streams;
2. **set-up** (timed, repeated :data:`SETUP_REPS` times, median kept) --
   build the stored graph in the work directory and, for the serve
   workloads, seed a journaled :class:`~repro.service.CoreService`;
3. **warm-up** (untimed) -- one round of the workload's operations;
4. **untraced window** -- a closed loop of unit operations until the
   time (or, with ``quick``, the operation) budget runs out; every
   end-to-end metric comes from this window;
5. **traced window** (``trace`` only) -- the same loop, continued, under
   :class:`~layers.LayerTracing`; per-layer self times come from here;
6. **oracle** (untimed) -- the correctness checks that feed ``failed``.

The unit operation is one decomposition (``decompose-web``,
``sharded-web``), one read query (``serve-read``) or one applied batch
(``serve-write``).
"""

from __future__ import annotations

import collections
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

from repro.core.imcore import im_core
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import PersistentShardExecutor, sharded_semi_core_star
from repro.core.validate import validate_cores
from repro.datasets.registry import generate_dataset
from repro.obs.trace import span
from repro.service.core_service import CoreService
from repro.service.workload import (
    DEFAULT_MIX,
    execute_query,
    generate_queries,
    generate_updates,
    verify_epoch_coherence,
)
from repro.storage.graphstore import GraphStorage

from .layers import ROWS, LayerTracing

SETUP_REPS = 5

#: serve-read traffic: every query kind, thresholds down to k = 1.
SERVE_READ_MIX = (
    ("coreness", 0.40),
    ("coreness_many", 0.15),
    ("members", 0.15),
    ("top", 0.10),
    ("histogram", 0.05),
    ("degeneracy", 0.05),
    ("subgraph", 0.10),
)
READ_KINDS = tuple(kind for kind, _ in SERVE_READ_MIX)

#: serve-read replays every this-many-th read through the oracle.
SAMPLE_EVERY = 20
#: Queries generated per chunk of an endless query stream.
QUERY_CHUNK = 2000
#: Events pre-generated for the update streams (far more than a window
#: applies; a window that exhausts them ends early and says so).
UPDATE_EVENTS = 8000
WRITE_BATCH = 8
SHARDS = 8
CACHE_FIELDS = ("hits", "misses", "invalidations", "evictions", "stale")


@dataclass(frozen=True)
class Size:
    """Input sizes and operation budgets of one benchmark size."""

    web_scale: float
    social_scale: float
    #: serve-read applies one single-edge batch after this many reads.
    reads_per_apply: int
    #: serve-write runs this many reads after every batch.
    reads_per_batch: int
    setup_reps: int
    #: Operation budget per window in quick mode (None: time budget).
    quick_ops: dict | None = None


FULL = Size(web_scale=4.0, social_scale=1.0, reads_per_apply=500,
            reads_per_batch=50, setup_reps=SETUP_REPS)
QUICK = Size(web_scale=0.25, social_scale=0.1, reads_per_apply=20,
             reads_per_batch=10, setup_reps=1,
             quick_ops={"decompose-web": 1, "sharded-web": 1,
                        "serve-read": 40, "serve-write": 2})


class Budget:
    """When a closed-loop window stops: a deadline or an operation count."""

    def __init__(self, seconds=None, ops=None):
        self.ops = ops
        self.deadline = None if seconds is None else \
            time.perf_counter() + seconds

    def more(self, done):
        if self.ops is not None:
            return done < self.ops
        return time.perf_counter() < self.deadline


class Window:
    """What one measurement window observed."""

    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.kind_latencies = collections.defaultdict(list)
        self.apply_latencies = []
        self.counters = collections.Counter()
        self.ended_early = None

    @property
    def ops(self):
        return len(self.latencies)

    def fail(self, message):
        self.failures.append(message)

    def crashed(self, what):
        """Record an operation that raised (the loop keeps running)."""
        self.attempted += 1
        self.fail("%s raised:\n%s" % (what, traceback.format_exc()))


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, fraction):
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def _per(value, count):
    return value / count if count else 0.0


# ----------------------------------------------------------------------
# decomposition workloads
# ----------------------------------------------------------------------

class _Decomposition:
    """Shared shape of the two decomposition workloads.

    Both run on the webbase proxy at the registry's default seed, so
    ``--seed`` does not change their graph: the sharded round count
    swings from 16 to 43 across generator seeds 1-10 at this scale, which
    would bury any regression bound in input variance.
    """

    dataset = "webbase"
    span_name = None

    def __init__(self, size, seed):
        self.size = size
        self.seed = seed
        self.edges, self.num_nodes = generate_dataset(
            self.dataset, size.web_scale)
        self.reference = None
        self.expected_counters = None

    def setup(self, directory):
        started = time.perf_counter()
        prefix = os.path.join(directory, "graph")
        GraphStorage.from_edges(self.edges, self.num_nodes,
                                path=prefix).close()
        storage = GraphStorage.open(prefix)
        return storage, {"build": time.perf_counter() - started}

    def close(self, storage):
        storage.close()

    def prepare(self, storage):
        self.reference = im_core(storage).cores

    def io_stats(self, storage):
        return storage.io_stats

    def warmup_ops(self):
        return 1

    def window(self, storage, budget, window, traced):
        started = time.perf_counter()
        done = 0
        while budget.more(done):
            done += 1
            storage.drop_caches()
            op_started = time.perf_counter()
            try:
                if traced:
                    with span(self.span_name):
                        result = self.decompose(storage)
                else:
                    result = self.decompose(storage)
            except Exception:  # noqa: BLE001 - counted, loop continues
                window.crashed(self.span_name)
                continue
            window.latencies.append(time.perf_counter() - op_started)
            window.attempted += 1
            self.verify(result, window)
        window.wall += time.perf_counter() - started

    def verify(self, result, window):
        """Cores bit for bit against IMCore; counters equal across runs."""
        if result.cores != self.reference:
            wrong = sum(1 for a, b in zip(result.cores, self.reference)
                        if a != b)
            window.fail("%s: %d core numbers differ from IMCore"
                        % (self.span_name, wrong))
        counters = self.counters(result)
        if self.expected_counters is None:
            self.expected_counters = counters
        elif counters != self.expected_counters:
            window.fail("%s: deterministic counters moved between runs: "
                        "%r then %r" % (self.span_name,
                                         self.expected_counters, counters))
        window.counters.update(counters)

    def gauges(self, storage):
        return {}

    def check(self, storage):
        return []


class DecomposeWeb(_Decomposition):
    """SemiCore* on the numpy engine: pass kernels plus charged reads."""

    name = "decompose-web"
    span_name = "op.decompose"

    def decompose(self, storage):
        return semi_core_star(storage, engine="numpy")

    def counters(self, result):
        return {
            "engines.passes": result.iterations,
            "engines.node_computations": result.node_computations,
            "engines.model_memory_bytes": result.model_memory_bytes,
            "io.read_ios": result.io.read_ios,
        }


class ShardedWeb(_Decomposition):
    """The same graph through 8 arc-balanced shards on 2 pool workers."""

    name = "sharded-web"
    span_name = "op.sharded"

    def decompose(self, storage):
        return sharded_semi_core_star(
            storage, SHARDS, balance="arc", engine="numpy",
            executor=PersistentShardExecutor(processes=2))

    def counters(self, result):
        return {
            "sharded.rounds": result.iterations,
            "engines.node_computations": result.node_computations,
            "engines.model_memory_bytes": result.model_memory_bytes,
            "sharded.halo_bytes": result.halo_bytes,
            "sharded.arc_skew": result.arc_skew,
            "sharded.pool_forks": result.pool_forks,
            "io.read_ios": result.io.read_ios,
        }


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------

class QueryStream:
    """An endless deterministic query stream, generated chunk by chunk.

    ``seconds`` accumulates generation time so windows can exclude it.
    """

    def __init__(self, num_nodes, kmax, seed, mix, max_depth):
        self._args = (num_nodes, kmax)
        self._seed = seed
        self._mix = mix
        self._max_depth = max_depth
        self._chunk = 0
        self._queue = collections.deque()
        self.seconds = 0.0

    def next(self):
        if not self._queue:
            started = time.perf_counter()
            self._chunk += 1
            self._queue.extend(generate_queries(
                *self._args, QUERY_CHUNK,
                seed=self._seed * 1_000_003 + self._chunk,
                mix=self._mix, max_depth=self._max_depth))
            self.seconds += time.perf_counter() - started
        return self._queue.popleft()


def _digest(value):
    """A cheap fingerprint of a read answer (for the replay oracle)."""
    if isinstance(value, dict):
        value = tuple(sorted(value.items()))
    elif isinstance(value, list):
        value = tuple(value)
    return (len(value) if isinstance(value, tuple) else -1, hash(value))


class _DigestingService:
    """A service whose read answers come back as :func:`_digest` values."""

    _READS = frozenset({"coreness", "coreness_many", "kcore_members",
                        "kcore_subgraph", "top_k", "core_histogram",
                        "degeneracy"})

    def __init__(self, service):
        self._service = service

    def __getattr__(self, name):
        attribute = getattr(self._service, name)
        if name in self._READS:
            return lambda *args: _digest(attribute(*args))
        return attribute


ServeState = collections.namedtuple("ServeState",
                                    "prefix storage service")


class _Serve:
    """Shared shape of the serving workloads (twitter proxy, numpy).

    The graph is the proxy at the registry's default seed; ``--seed``
    drives the query and update streams.
    """

    dataset = "twitter"

    def __init__(self, size, seed):
        self.size = size
        self.seed = seed
        self.edges, self.num_nodes = generate_dataset(
            self.dataset, size.social_scale)
        self.updates = generate_updates(self.edges, self.num_nodes,
                                        UPDATE_EVENTS, seed=seed)
        self.queries = None
        #: Every batch applied since seeding, in order (oracle replay).
        self.batches = []
        self.reads = 0

    def setup(self, directory):
        started = time.perf_counter()
        prefix = os.path.join(directory, "graph")
        GraphStorage.from_edges(self.edges, self.num_nodes,
                                path=prefix).close()
        storage = GraphStorage.open(prefix)
        built = time.perf_counter()
        service = CoreService.from_storage(
            storage, engine="numpy",
            data_dir=os.path.join(directory, "service"))
        seeded = time.perf_counter()
        return ServeState(prefix, storage, service), {
            "build": built - started, "seed": seeded - built}

    def close(self, state):
        state.service.close()
        state.storage.close()

    def io_stats(self, state):
        return state.service.io_stats

    def gauges(self, state):
        """Service counters sampled around a window (plus journal size)."""
        stats = state.service.cache_stats
        gauges = {"cache." + field: getattr(stats, field)
                  for field in CACHE_FIELDS}
        journal = state.service.journal
        gauges["journal.fsyncs"] = journal.fsyncs
        gauges["journal.disk_bytes"] = journal.stats()["disk_bytes"]
        return gauges

    def warmup_ops(self):
        return 1

    def prepare(self, state):
        self.queries = QueryStream(
            self.num_nodes, state.service.degeneracy(), self.seed,
            self.mix, self.max_depth)

    def read(self, service, window, traced):
        """One timed read; returns ``(query, answer, seconds)``, or None
        if it raised."""
        query = self.queries.next()
        kind = query[0]
        started = time.perf_counter()
        try:
            if traced:
                with span("read." + kind):
                    value = execute_query(service, query)
            else:
                value = execute_query(service, query)
        except Exception:  # noqa: BLE001 - counted, loop continues
            window.crashed("read " + kind)
            return None
        latency = time.perf_counter() - started
        window.kind_latencies[kind].append(latency)
        window.attempted += 1
        self.reads += 1
        return query, value, latency

    def apply(self, service, batch, window, traced):
        """One timed batch; returns its latency or None if it raised."""
        started = time.perf_counter()
        try:
            if traced:
                with span("op.apply"):
                    summary = service.apply(batch)
            else:
                summary = service.apply(batch)
        except Exception:  # noqa: BLE001 - counted, loop continues
            window.crashed("apply")
            return None
        latency = time.perf_counter() - started
        self.batches.append(batch)
        window.apply_latencies.append(latency)
        window.attempted += 1
        window.counters.update({
            "maintenance.inserts": summary["inserts"],
            "maintenance.deletes": summary["deletes"],
            "maintenance.node_computations": summary["node_computations"],
            "maintenance.changed_nodes": len(summary["changed_nodes"]),
        })
        return latency

    def next_events(self, count, window):
        start = sum(len(batch) for batch in self.batches)
        events = self.updates[start:start + count]
        if len(events) < count:
            window.ended_early = "update stream exhausted"
            return None
        return events


class ServeRead(_Serve):
    """Zipfian reads at full threshold depth, one single-edge write per
    ``reads_per_apply`` reads; every write invalidates deep thresholds."""

    name = "serve-read"
    mix = SERVE_READ_MIX
    max_depth = None

    def __init__(self, size, seed):
        super().__init__(size, seed)
        self.records = []

    def warmup_ops(self):
        return self.size.reads_per_apply

    def window(self, state, budget, window, traced):
        service = state.service
        started = time.perf_counter()
        generated = self.queries.seconds
        done = 0
        while budget.more(done) and window.ended_early is None:
            done += 1
            outcome = self.read(service, window, traced)
            if outcome is None:
                continue
            query, value, latency = outcome
            window.latencies.append(latency)
            if self.reads % SAMPLE_EVERY == 0:
                self.records.append({"query": query, "epoch": service.epoch,
                                     "value": _digest(value)})
            if self.reads % self.size.reads_per_apply == 0:
                events = self.next_events(1, window)
                if events is not None:
                    self.apply(service, events, window, traced)
        window.wall += time.perf_counter() - started - \
            (self.queries.seconds - generated)

    def check(self, state):
        """Replay every sampled read on a freshly seeded service."""
        opened = []

        def fresh_service():
            storage = GraphStorage.open(state.prefix)
            opened.append(storage)
            return _DigestingService(
                CoreService.from_storage(storage, engine="numpy"))

        try:
            mismatches = verify_epoch_coherence(
                fresh_service, self.batches, self.records)
        finally:
            for storage in opened:
                storage.close()
        return ["read %r at epoch %d: %s"
                % (m["query"], m["epoch"], m["reason"])
                for m in mismatches]


class ServeWrite(_Serve):
    """Batches of 8 edge events, each followed by point-heavy reads."""

    name = "serve-write"
    mix = DEFAULT_MIX
    max_depth = 8

    def window(self, state, budget, window, traced):
        service = state.service
        started = time.perf_counter()
        generated = self.queries.seconds
        done = 0
        while budget.more(done):
            done += 1
            events = self.next_events(WRITE_BATCH, window)
            if events is None:
                break
            latency = self.apply(service, events, window, traced)
            if latency is not None:
                window.latencies.append(latency)
            for _ in range(self.size.reads_per_batch):
                self.read(service, window, traced)
        window.wall += time.perf_counter() - started - \
            (self.queries.seconds - generated)

    def check(self, state):
        """Certify the final cores; every batch applied, none quarantined."""
        service = state.service
        issues = validate_cores(service.graph, service.maintainer.cores)
        if service.epoch != len(self.batches):
            issues.append("epoch %d after %d applied batches"
                          % (service.epoch, len(self.batches)))
        if service.quarantined_batches:
            issues.append("quarantined batches %r"
                          % service.quarantined_batches)
        return issues


WORKLOADS = {cls.name: cls
             for cls in (DecomposeWeb, ShardedWeb, ServeRead, ServeWrite)}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def run_workload(name, seed, *, seconds=None, trace=False, quick=False,
                 workdir):
    """Run one workload in this process; returns the result dict.

    ``seconds`` is the measured time (split evenly between the untraced
    and the traced window when ``trace``); ``quick`` swaps in the tiny
    :data:`QUICK` sizes with fixed operation budgets instead.
    """
    size = QUICK if quick else FULL
    workload = WORKLOADS[name](size, seed)
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(workload, size, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _budget(size, name, seconds, trace):
    if size.quick_ops is not None:
        return lambda: Budget(ops=size.quick_ops[name])
    share = seconds / 2 if trace else seconds
    return lambda: Budget(seconds=share)


def _run(workload, size, seconds, trace, workdir):
    budget = _budget(size, workload.name, seconds, trace)
    setups = []
    state = None
    for rep in range(size.setup_reps):
        if state is not None:
            workload.close(state)
        directory = os.path.join(workdir, "setup%d" % rep)
        os.makedirs(directory)
        state, timing = workload.setup(directory)
        setups.append(timing)
    try:
        workload.prepare(state)
        workload.window(state, Budget(ops=workload.warmup_ops()), Window(),
                        traced=False)

        untraced = Window()
        io = workload.io_stats(state)
        io_before = io.snapshot()
        before = workload.gauges(state)
        workload.window(state, budget(), untraced, traced=False)
        io_delta = io.delta_since(io_before)
        after = workload.gauges(state)
        gauges = {key: after[key] - before[key] for key in after}

        traced = None
        totals = None
        if trace:
            traced = Window()
            with LayerTracing() as tracing:
                workload.window(state, budget(), traced, traced=True)
            totals = tracing.totals

        failures = untraced.failures + (traced.failures if traced else [])
        failures += workload.check(state)
        gauges["journal.disk_bytes"] = \
            workload.gauges(state).get("journal.disk_bytes", 0)
    finally:
        workload.close(state)

    attempted = untraced.attempted + (traced.attempted if traced else 0)
    metrics = _end_to_end(setups, untraced)
    metrics.update(_untraced_layers(setups, untraced, io_delta, gauges))
    if trace:
        metrics.update(_traced_layers(untraced, traced, totals))
    notes = [window.ended_early for window in (untraced, traced)
             if window is not None and window.ended_early]
    return {
        "workload": workload.name,
        "dataset": workload.dataset,
        "scale": (size.web_scale if workload.dataset == "webbase"
                  else size.social_scale),
        "seed": workload.seed,
        "quick": size.quick_ops is not None,
        "trace": bool(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "notes": notes,
        "metrics": metrics,
    }


def _end_to_end(setups, window):
    return {
        "setup_s": _median([sum(timing.values()) for timing in setups]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": _median(window.latencies) * 1e3,
        "ops_per_s": _per(window.ops, window.wall),
    }


def _untraced_layers(setups, window, io_delta, gauges):
    ops = window.ops
    batches = len(window.apply_latencies)
    reads = sum(len(v) for v in window.kind_latencies.values())
    counters = window.counters
    metrics = {
        "setup.build_s": _median([t["build"] for t in setups]),
        "setup.seed_s": _median([t.get("seed", 0.0) for t in setups]),
        "storage.read_ios": _per(io_delta.read_ios, ops),
        "storage.bytes_read": _per(io_delta.bytes_read, ops),
        "storage.write_ios": _per(io_delta.write_ios, ops),
        "storage.bytes_written": _per(io_delta.bytes_written, ops),
        "engines.passes": _per(counters["engines.passes"], ops),
        "engines.node_computations":
            _per(counters["engines.node_computations"], ops),
        "engines.model_memory_bytes":
            _per(counters["engines.model_memory_bytes"], ops),
        "sharded.rounds": _per(counters["sharded.rounds"], ops),
        "sharded.halo_bytes": _per(counters["sharded.halo_bytes"], ops),
        "sharded.arc_skew": _per(counters["sharded.arc_skew"], ops),
        "sharded.pool_forks": _per(counters["sharded.pool_forks"], ops),
        "sharded.worker_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "maintenance.inserts": _per(counters["maintenance.inserts"], batches),
        "maintenance.deletes": _per(counters["maintenance.deletes"], batches),
        "maintenance.node_computations":
            _per(counters["maintenance.node_computations"], batches),
        "maintenance.changed_nodes":
            _per(counters["maintenance.changed_nodes"], batches),
        "journal.fsyncs": _per(gauges.get("journal.fsyncs", 0), batches),
        "journal.disk_bytes": gauges["journal.disk_bytes"],
        "apply.count": batches,
        "apply.p50_ms": _median(window.apply_latencies) * 1e3,
        "apply.p90_ms": _percentile(window.apply_latencies, 0.90) * 1e3,
    }
    for field in CACHE_FIELDS:
        metrics["cache." + field] = _per(gauges.get("cache." + field, 0),
                                         reads)
    metrics["cache.hit_rate"] = _per(
        gauges.get("cache.hits", 0),
        gauges.get("cache.hits", 0) + gauges.get("cache.misses", 0))
    every_read = [x for v in window.kind_latencies.values() for x in v]
    metrics["read.all.p50_us"] = _median(every_read) * 1e6
    metrics["read.all.p99_us"] = _percentile(every_read, 0.99) * 1e6
    metrics["read.all.p999_us"] = _percentile(every_read, 0.999) * 1e6
    for kind in READ_KINDS:
        samples = window.kind_latencies.get(kind, [])
        metrics["read.%s.count" % kind] = len(samples)
        metrics["read.%s.p50_us" % kind] = _median(samples) * 1e6
        metrics["read.%s.p99_us" % kind] = _percentile(samples, 0.99) * 1e6
        metrics["read.%s.us_per_read" % kind] = \
            _per(sum(samples), reads) * 1e6
    return metrics


def _traced_layers(untraced, traced, totals):
    ops = traced.ops
    batches = len(traced.apply_latencies)
    count = totals.count
    metrics = {row: _per(seconds, ops)
               for row, seconds in totals.rows().items()}
    metrics.update({
        "storage.read_calls": _per(count.get("storage.read_at", 0), ops),
        "storage.write_calls": _per(count.get("storage.write_at", 0), ops),
        "storage.point_reads": _per(count.get("storage.neighbors", 0), ops),
        "csr.build_calls": _per(count.get("csr.build", 0), ops),
        "maintenance.apply_batch_s":
            _per(totals.total.get("maintenance.apply_batch", 0.0), batches),
        "journal.checkpoints":
            _per(count.get("service.checkpoint", 0), batches),
        "trace.wall_s": _per(traced.wall, ops),
        "trace.overhead_s": _per(totals.overhead_seconds, ops),
        "trace.unattributed_s":
            _per(traced.wall - totals.root_seconds, ops),
        "trace.spans": _per(totals.spans, ops),
        "trace.overhead_ratio": _per(_per(traced.wall, ops),
                                     _per(untraced.wall, untraced.ops)),
    })
    return metrics


#: Traced time no layer row owns: the cost of the spans themselves, and
#: time outside every span.
RESIDUALS = ("trace.overhead_s", "trace.unattributed_s")


def layer_sum_error(metrics):
    """``|rows + residuals - wall| / wall`` of a traced result."""
    wall = metrics["trace.wall_s"]
    total = sum(metrics[row] for row in ROWS + RESIDUALS)
    return abs(total - wall) / wall if wall else 0.0
