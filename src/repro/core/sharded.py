"""Sharded SemiCore*: per-shard sweeps with boundary-estimate exchange.

:func:`sharded_semi_core_star` decomposes a graph whose ``core[]`` array
is not allowed to be resident all at once.  It splits the node id space
into contiguous range shards (:class:`~repro.storage.shards.\
ShardedGraphStorage`), keeps every core estimate in per-shard *estimate
tables* on counting block devices, and iterates rounds of per-shard
SemiCore* passes until the global fixpoint:

1. **Gather** -- resolve every shard's halo rows' estimates from the
   owning shards' estimate tables (the boundary-estimate exchange; all
   reads use round-start values, so rounds are Jacobi *across* shards
   and Gauss-Seidel *within* one).  Round 1 gathers every halo entry;
   later rounds re-read only the entries whose owner changed them in
   the previous scatter, and a shard with no such entry is not run at
   all: its owned rows are already the fixpoint for its halo, so a
   pass could not move them.
2. **Pass** -- run a SemiCore* sweep per dispatched shard with the halo
   estimates frozen, through a pluggable shard executor (``serial`` or
   ``persistent``) and any registered engine's ``"shard-pass"`` kernel
   (``python`` and ``numpy`` ship).  Pass 1 is one sequential scan of
   the owned rows that recomputes only the rows violating Eq. 2; later
   passes recompute only the rows that changed.
3. **Scatter** -- write each dispatched shard's new owned estimates back
   to its estimate table and record the global ids that changed; stop
   once no estimate moved anywhere.

Each pass lands on the greatest fixpoint at or below its round-start
state, whichever rows it recomputes in whichever order, so skipping
unchanged shards and unchanged halo entries leaves the rounds and the
per-round change trace exactly as a full re-gather and re-run would.
This is Montresor et al.'s rule that a node recomputes only after a
neighbour's estimate dropped, applied to whole shards.

Correctness follows the locality property (Theorem 4.1) exactly as in
Montresor et al.'s message-passing formulation (``core/distributed.py``):
estimates start at the degrees, every LocalCore application is monotone
and keeps each estimate an upper bound on the true core number, and the
only fixpoint reachable from above is the core numbers themselves -- so
the result is bit-identical to :func:`~repro.core.semicore_star.\
semi_core_star` however the graph is sharded.  The round structure with
bounded per-shard state follows Gao et al. ("K-Core Decomposition on
Super Large Graphs with Limited Resources", PAPERS.md).

Memory model
------------
A pass touches one shard: its ``core``/``cnt`` arrays, gathered halo
estimates and adjacency buffer.  ``model_memory_bytes`` of the returned
result is the *largest per-shard working set* -- ``O(max shard)``, not
``O(n)`` -- because the full estimate vector only ever lives in the
estimate tables (external storage in the I/O model) and the final cores
array is assembled by streaming those tables into the result object.

Executor contract
-----------------
``executor.run(fn, tasks)`` evaluates ``fn`` over ``tasks`` and returns
the results *in task order*.  A shard-pass task must observe three rules
so executors are interchangeable: it reads only its own shard's devices,
it starts from dropped device caches, and it charges its I/O to a
scratch counter that the driver folds into the shared ``IOStats``
afterwards.  Those rules make cores *and* I/O figures identical between
``serial`` and ``persistent`` -- asserted by ``tests/test_sharded.py``.

Round transport
---------------
Every decomposition backs its estimate tables with one
``multiprocessing.shared_memory`` segment, the *round plan*
(:mod:`repro.storage.shm`), and ships only ``(shard, engine)`` task
descriptors per round: the estimate, halo and result payloads travel
through the segment, whether the pass runs in the driving process
(``serial``) or in a worker the ``persistent`` executor forks once per
decomposition.  Each shard's halo slot persists across rounds: round 1
fills it and later rounds patch only the re-gathered entries.  Charged
I/O is the same under every executor: the driver performs the
gather/scatter reads and writes against the counting devices, and the
raw segment traffic is transport, which the I/O model never counts.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import time
from array import array

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, engine_implementation
from repro.core.locality import compute_cnt, local_core
from repro.core.relabel import (
    PermutedGraphView,
    inverse_map_cores,
    locality_permutation,
)
from repro.core.result import DecompositionResult
from repro.core.semicore_star import converge_star
from repro.errors import ExecutorError, GraphError, ReproError
from repro.obs.trace import span
from repro.storage.blockio import DEFAULT_BLOCK_SIZE, IOStats
from repro.storage.shards import ShardedGraphStorage
from repro.storage.shm import SharedMemoryBlockDevice, SharedMemorySegment

#: ``cnt`` sentinel that keeps halo rows permanently satisfied: a frozen
#: row can lose at most one support per adjacency entry of its shard, so
#: any value far above ``num_arcs`` can never drop below its estimate.
_FROZEN_SENTINEL = 1 << 40

ESTIMATE_ENTRY_SIZE = 4
_ESTIMATE_TYPECODE = "i"


# ----------------------------------------------------------------------
# shard-pass kernels (registered as "shard-pass" in the engine registry)
# ----------------------------------------------------------------------

def shard_pass_python(graph, *, initial_cores, frozen_from):
    """Reference per-shard SemiCore* sweep with frozen halo rows.

    ``graph`` is one shard's local table (owned rows first, then halo
    rows), ``initial_cores`` the current estimates for every local row.
    Rows at local id >= ``frozen_from`` are boundary estimates: they are
    read like any neighbour but never recomputed.  Pass 1 is one
    sequential scan of the owned rows (``iter_adjacency(0,
    frozen_from)``, so halo node entries are never read) that counts
    every row's Eq. 2 support exactly as it goes and runs LocalCore only
    on the rows that violate it; the rows it leaves violated seed the
    later passes of :func:`~repro.core.semicore_star.converge_star`.
    Every pass therefore computes exactly the rows that change.  Returns
    ``(cores, node_computations, sweep_iterations, model_memory_bytes)``
    with ``cores`` covering every local row (the halo suffix unchanged).
    """
    n = graph.num_nodes
    if len(initial_cores) != n:
        raise GraphError(
            "initial_cores has %d entries, expected %d"
            % (len(initial_cores), n)
        )
    if not 0 <= frozen_from <= n:
        raise GraphError(
            "frozen_from %d out of range [0, %d]" % (frozen_from, n)
        )
    core = array(_ESTIMATE_TYPECODE, initial_cores)
    cnt = array("q", bytes(8 * n))
    for v in range(frozen_from, n):
        cnt[v] = _FROZEN_SENTINEL
    computations = 0
    max_degree = 0
    upcoming = []
    for v, nbrs in graph.iter_adjacency(0, frozen_from):
        if len(nbrs) > max_degree:
            max_degree = len(nbrs)
        cold = core[v]
        support = compute_cnt(core, nbrs, cold)
        if support >= cold:
            cnt[v] = support
            continue
        computations += 1
        cnew = local_core(core, nbrs, cold)
        core[v] = cnew
        cnt[v] = compute_cnt(core, nbrs, cnew)
        # Rows past v are counted afresh when the scan reaches them;
        # rows before it that fall short wait for the next pass.
        for u in nbrs:
            if u < v and cnew < core[u] <= cold:
                cnt[u] -= 1
                if cnt[u] < core[u]:
                    upcoming.append(u)
    stats = converge_star(graph, core, cnt, upcoming)
    # core ('i') + cnt ('q') arrays plus the adjacency buffer (the scan
    # saw every owned row, so its widest row bounds the later passes).
    model_memory = 12 * n + 8 * max_degree
    return (core, computations + stats.computations, 1 + stats.iterations,
            model_memory)


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------

class SerialShardExecutor:
    """Run shard passes one after another in the driving process."""

    name = "serial"

    def run(self, fn, tasks):
        return [fn(task) for task in tasks]

    def close(self):
        pass


def _persistent_worker(task_queue, result_queue):
    """Loop of one persistent worker process.

    Fetches ``(seq, index, fn, task)`` messages until a ``None`` retire
    token (or a closed queue) arrives.  Results and worker exceptions
    travel back tagged with the round sequence number so the driver can
    discard stale replies after a round retry.
    """
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if message is None:
            return
        seq, index, fn, task = message
        try:
            result = fn(task)
        except Exception as exc:
            try:
                result_queue.put((seq, index, False, exc))
            except Exception as transport_exc:
                # pragma: no cover - unpicklable worker error
                result_queue.put((seq, index, False, RuntimeError(
                    "%r (error transport failed: %r)"
                    % (exc, transport_exc))))
        else:
            result_queue.put((seq, index, True, result))


class PersistentShardExecutor:
    """A fork-once worker pool driven by task queues over shared memory.

    Workers are forked lazily on the first round -- after the driver has
    published the active shards and the shared round plan -- and then
    reused for *every* subsequent round: rounds are plain queue messages,
    two tiny pickles per shard.  ``pool_forks`` counts full pool spawns
    (exactly 1 per decomposition on the healthy path; asserted by the
    bench smoke run) and ``shm_bytes`` the bytes of the currently
    attached shared segment.

    A dead worker is *detected*, not waited on: while a round is
    outstanding, ``run`` polls the result queue and the workers'
    liveness.  A dead worker is replaced *in place* (``respawns``
    increments, ``pool_forks`` does not) and the round is retried on the
    surviving pool after an exponential backoff (``retry_backoff *
    2**attempt``).  Only a hung round (``task_timeout`` with every
    worker alive) tears the whole pool down.  After ``max_retries``
    failed rounds the typed :class:`~repro.errors.ExecutorError`
    propagates.  Retried rounds are safe and bit-identical because shard
    passes are pure functions of the round-start estimate tables, which
    the driver only rewrites after ``run`` returns: duplicate executions
    rewrite the same bytes into the result slots, and stale replies are
    discarded by their sequence tag.
    """

    name = "persistent"

    #: seconds between dead-worker polls while waiting on a round.
    _POLL_INTERVAL = 0.05

    def __init__(self, processes=None, *, task_timeout=120.0,
                 max_retries=2, retry_backoff=0.05):
        if processes is not None and processes < 1:
            raise ReproError(
                "processes must be >= 1, got %d" % processes
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError(
                "task_timeout must be positive, got %r" % (task_timeout,)
            )
        if max_retries < 0:
            raise ReproError(
                "max_retries must be >= 0, got %d" % max_retries
            )
        if retry_backoff < 0:
            raise ReproError(
                "retry_backoff must be >= 0, got %r" % (retry_backoff,)
            )
        self.processes = processes
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.respawns = 0
        self.pool_forks = 0
        self.shm_bytes = 0
        self._workers = []
        self._context = None
        self._task_queue = None
        self._result_queue = None
        self._seq = 0

    def attach_plan(self, plan):
        """Adopt the driver's shared round plan before its first round.

        Workers receive the plan and the active shards through fork
        inheritance of the module globals, not through this call.  A
        pool forked before the driver published them (one left running
        by :func:`~repro.core.emcore.em_core` on a caller-owned
        executor, say) would never see them, so it is retired here and
        the first round forks afresh.
        """
        self.close()
        self.shm_bytes = plan.total_bytes

    def run(self, fn, tasks):
        if not tasks:
            return []
        attempt = 0
        while True:
            self._ensure_pool(len(tasks))
            try:
                return self._run_once(fn, tasks)
            except ExecutorError:
                if attempt >= self.max_retries:
                    self.close()
                    raise
                time.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1

    def _ensure_pool(self, num_tasks):
        if self._workers:
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise ReproError(
                "the persistent executor needs the fork start method; "
                "use executor='serial' on this platform"
            ) from None
        processes = self.processes or (os.cpu_count() or 1)
        self._context = context
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._workers = [
            self._spawn() for _ in range(max(1, min(processes, num_tasks)))
        ]
        self.pool_forks += 1

    def _spawn(self):
        worker = self._context.Process(
            target=_persistent_worker,
            args=(self._task_queue, self._result_queue),
            daemon=True,
        )
        worker.start()
        return worker

    def _run_once(self, fn, tasks):
        self._seq += 1
        seq = self._seq
        for index, task in enumerate(tasks):
            self._task_queue.put((seq, index, fn, task))
        results = [None] * len(tasks)
        received = 0
        deadline = (time.monotonic() + self.task_timeout
                    if self.task_timeout is not None else None)
        while received < len(tasks):
            try:
                message = self._result_queue.get(
                    timeout=self._POLL_INTERVAL)
            except _queue.Empty:
                message = None
            if message is not None:
                mseq, index, ok, payload = message
                if mseq != seq:
                    continue  # stale reply from a retried round
                if not ok:
                    raise payload
                if results[index] is None:
                    results[index] = payload
                    received += 1
                continue
            lost = self._respawn_dead()
            if lost:
                raise ExecutorError(
                    "persistent shard-pass worker died mid-round (lost "
                    "pid%s %s); respawned in place, round retried"
                    % ("s" if len(lost) != 1 else "",
                       ", ".join(map(str, lost))))
            if deadline is not None and time.monotonic() > deadline:
                self.close()
                raise ExecutorError(
                    "persistent shard-pass round exceeded "
                    "task_timeout=%.1fs with %d task%s outstanding; "
                    "pool torn down"
                    % (self.task_timeout, len(tasks) - received,
                       "s" if len(tasks) - received != 1 else ""))
        return results

    def _respawn_dead(self):
        """Replace dead workers in place; returns the lost pids."""
        lost = []
        for k, worker in enumerate(self._workers):
            if worker.is_alive():
                continue
            lost.append(worker.pid)
            worker.join()
            self._workers[k] = self._spawn()
            self.respawns += 1
        return lost

    def close(self):
        """Retire the pool and drop the queues (reuse re-forks)."""
        for worker in self._workers:
            worker.terminate()
        for worker in self._workers:
            worker.join()
        self._workers = []
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._task_queue = None
        self._result_queue = None
        self._context = None
        self.shm_bytes = 0


EXECUTORS = {
    SerialShardExecutor.name: SerialShardExecutor,
    PersistentShardExecutor.name: PersistentShardExecutor,
}


def executor_names():
    """All built-in executor names, sorted."""
    return sorted(EXECUTORS)


def register_executor_metrics(executor, registry):
    """Pull-mode views of an executor's counters on ``registry``.

    Works for any resolved executor object; executors without a
    ``respawns`` counter (e.g. serial) report 0.  Returns ``registry``.
    """
    registry.counter(
        "repro_executor_respawns",
        "Dead workers replaced in place (full pool re-forks are "
        "counted by repro_executor_pool_forks)."
    ).set_function(lambda: getattr(executor, "respawns", 0))
    registry.gauge(
        "repro_executor_processes",
        "Configured worker processes (0 = in-process serial)."
    ).set_function(lambda: getattr(executor, "processes", None) or 0)
    registry.counter(
        "repro_executor_pool_forks",
        "Full worker-pool spawns (the persistent executor forks exactly "
        "once per decomposition)."
    ).set_function(lambda: getattr(executor, "pool_forks", 0))
    registry.gauge(
        "repro_shm_bytes",
        "Bytes of the shared-memory round plan currently attached "
        "(0 outside a persistent-executor decomposition)."
    ).set_function(lambda: getattr(executor, "shm_bytes", 0))
    return registry


def get_executor(executor):
    """Resolve an executor spec: None, a built-in name, or an object.

    Anything exposing ``run(fn, tasks)`` is accepted as-is, so callers
    can plug in their own in-process executors (thread pools,
    instrumented wrappers, ...).
    """
    if executor is None:
        executor = SerialShardExecutor.name
    if isinstance(executor, str):
        try:
            return EXECUTORS[executor.lower()]()
        except KeyError:
            raise ReproError(
                "unknown executor %r (choices: %s)"
                % (executor, ", ".join(executor_names()))
            ) from None
    if hasattr(executor, "run"):
        return executor
    raise ReproError(
        "executor must be one of %s or expose run(fn, tasks); got %r"
        % (", ".join(executor_names()), executor)
    )


# ----------------------------------------------------------------------
# the shared round plan (estimate tables in one shm segment)
# ----------------------------------------------------------------------

class _SharedRoundPlan:
    """Shared-memory layout of one decomposition's exchange state.

    One segment holds, per shard, three consecutive regions: the
    *estimate table* (backing a counting :class:`~repro.storage.shm.
    SharedMemoryBlockDevice`, so the driver's gather/scatter is charged
    exactly as on a :class:`~repro.storage.blockio.MemoryBlockDevice`),
    a *halo slot* the driver fills raw with the gathered boundary
    estimates in round 1 and patches in place afterwards, and an
    *output slot* the pass fills raw with its owned cores.  Raw slot
    traffic is transport, not modelled I/O, and it is the same whichever
    executor runs the pass -- that is what keeps the counters
    bit-identical across executors.

    The driver owns the plan: it is created before the first round,
    read in-process by serial passes and through fork inheritance by
    persistent workers, and closed (detached *and* unlinked) in the
    driver's ``finally`` whether the decomposition succeeds or dies --
    no ``/dev/shm`` entry outlives the call.
    """

    def __init__(self, sharded, block_size, stats):
        offsets = []
        cursor = 0
        for shard in sharded.shards:
            owned_bytes = shard.num_owned * ESTIMATE_ENTRY_SIZE
            halo_bytes = shard.num_boundary * ESTIMATE_ENTRY_SIZE
            offsets.append((cursor, cursor + owned_bytes,
                            cursor + owned_bytes + halo_bytes))
            cursor += 2 * owned_bytes + halo_bytes
        self.total_bytes = max(1, cursor)
        self.segment = SharedMemorySegment(self.total_bytes)
        self._regions = offsets
        self.devices = [
            SharedMemoryBlockDevice(
                self.segment, offsets[i][0],
                shard.num_owned * ESTIMATE_ENTRY_SIZE,
                block_size=block_size, stats=stats,
            )
            for i, shard in enumerate(sharded.shards)
        ]

    # -- driver side ---------------------------------------------------
    def write_halo_at(self, index, positions, values):
        """Patch a shard's halo slot at ``positions`` (raw transport).

        The slot persists across rounds, so the driver rewrites only
        the entries whose estimates moved since the previous round.
        """
        start, stop = self._regions[index][1:]
        halo = np.frombuffer(self.segment.buf[start:stop], dtype=np.int32)
        halo[positions] = np.frombuffer(values, dtype=np.int32)

    def read_cores(self, index, count):
        """Collect a shard's pass result from its output slot."""
        start = self._regions[index][2]
        size = count * ESTIMATE_ENTRY_SIZE
        cores = array(_ESTIMATE_TYPECODE)
        cores.frombytes(bytes(self.segment.buf[start:start + size]))
        return cores

    # -- pass side -----------------------------------------------------
    def read_initial(self, index, count):
        """A shard's round-start estimates, owned rows then halo rows.

        The estimate table and the halo slot are adjacent, so this is
        one raw read of ``count`` (= owned + halo) entries.
        """
        start = self._regions[index][0]
        size = count * ESTIMATE_ENTRY_SIZE
        return bytes(self.segment.buf[start:start + size])

    def write_cores(self, index, cores):
        """Store a pass's owned cores into the output slot."""
        data = cores.tobytes()
        start = self._regions[index][2]
        self.segment.buf[start:start + len(data)] = data

    def close(self):
        for device in self.devices:
            device.close()
        self.segment.close()


# ----------------------------------------------------------------------
# the per-shard task (module level so it pickles into workers)
# ----------------------------------------------------------------------

#: Shards of the round being executed; set by the driver before
#: ``executor.run`` so forked workers inherit it.
_ACTIVE_SHARDS = None

#: Shared round plan of the running decomposition; published and
#: inherited the same way.
_ACTIVE_PLAN = None


def _run_shard_pass_shared(task):
    """Execute one shard pass; the unit of work executors schedule.

    ``task`` is just ``(shard_index, engine)``: the round-start
    estimates come raw from the round plan and the owned cores go back
    the same way, so only the counters travel in the result however
    large the shard is.  The pass follows the executor contract's three
    rules: it starts cold (device caches dropped), touches only the
    shard's own devices, and charges its I/O to a scratch counter so the
    driver can apply one combined delta whatever process ran it.
    Returns ``(computations, sweep_iterations, model_memory_bytes,
    io_counts)``.
    """
    index, engine = task
    shard = _ACTIVE_SHARDS[index]
    initial = array(_ESTIMATE_TYPECODE)
    initial.frombytes(_ACTIVE_PLAN.read_initial(index, shard.num_local))
    graph = shard.graph
    kernel = engine_implementation(engine, "shard-pass")
    scratch = IOStats()
    devices = (graph.node_device, graph.edge_device)
    saved = [dev.stats for dev in devices]
    for dev in devices:
        dev.stats = scratch
    graph.drop_caches()
    try:
        cores, computations, sweeps, memory = kernel(
            graph, initial_cores=initial, frozen_from=shard.num_owned
        )
    finally:
        for dev, stats in zip(devices, saved):
            dev.stats = stats
    _ACTIVE_PLAN.write_cores(
        index, array(_ESTIMATE_TYPECODE, cores[:shard.num_owned]))
    io_counts = (scratch.read_ios, scratch.write_ios,
                 scratch.bytes_read, scratch.bytes_written)
    return computations, sweeps, memory, io_counts


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def sharded_semi_core_star(graph, num_shards, *, engine=None,
                           executor=None, path=None, trace_changes=False,
                           balance="node", relabel=False):
    """Decompose ``graph`` with ``num_shards`` node-range shards.

    ``engine`` selects the per-shard pass kernel through the engine
    registry (``"shard-pass"``; default the reference python kernel),
    ``executor`` how the passes run (``"serial"`` default,
    ``"persistent"``, or any object with ``run(fn, tasks)``).  ``path`` makes the shard tables
    file-backed.  ``balance`` picks the fencepost rule (``"node"`` or
    ``"arc"``, see :class:`~repro.storage.shards.ShardedGraphStorage`)
    and ``relabel`` enables the locality relabeling pre-pass
    (``True``/``"bfs"`` or ``"degeneracy"``, see
    :mod:`repro.core.relabel`); cores are inverse-mapped on the way out,
    so every combination returns bit-identical core numbers.

    Returns a :class:`DecompositionResult` whose cores are bit-identical
    to :func:`~repro.core.semicore_star.semi_core_star`, whose
    ``iterations`` counts exchange rounds (including the final round
    that confirms the fixpoint), and whose ``model_memory_bytes`` is the
    largest per-shard working set (plus the O(n) permutation when
    relabeling).  Extra attributes: ``num_shards``, ``executor`` (the
    resolved name), ``max_shard_nodes``, ``num_boundary``, ``balance``,
    ``relabel``, ``arc_skew``, ``max_owned_arcs``, ``halo_bytes``,
    ``boundary_fraction`` and ``shard_passes`` (the shard passes
    dispatched over all rounds; shards with an unchanged halo are not
    rerun).
    """
    global _ACTIVE_SHARDS, _ACTIVE_PLAN
    started = time.perf_counter()
    engine_name = (engine or DEFAULT_ENGINE).lower()
    # Resolve early so unknown engines/kernels fail before any build I/O.
    engine_implementation(engine_name, "shard-pass")
    exec_obj = get_executor(executor)

    shared = getattr(graph, "io_stats", None)
    stats = shared if shared is not None else IOStats()
    snapshot = stats.snapshot()
    block_size = getattr(graph, "block_size", DEFAULT_BLOCK_SIZE)

    relabel_method = None
    rank = None
    source = graph
    if relabel:
        relabel_method = "bfs" if relabel is True else relabel
        order, rank = locality_permutation(graph, relabel_method)
        source = PermutedGraphView(graph, order, rank)

    sharded = ShardedGraphStorage.from_storage(
        source, num_shards, path=path, stats=stats, balance=balance
    )
    plan = None
    rounds = 0
    computations = 0
    shard_passes = 0
    peak_memory = 0
    changes = [] if trace_changes else None
    try:
        plan = _SharedRoundPlan(sharded, block_size, stats)
        attach = getattr(exec_obj, "attach_plan", None)
        if attach is not None:
            attach(plan)
        estimates = plan.devices
        # Round 0: the degree upper bounds, streamed shard by shard.
        for shard, device in zip(sharded.shards, estimates):
            degrees = shard.graph.read_degrees()[:shard.num_owned]
            device.write_at(0, degrees.tobytes())

        boundary_cache = [np.frombuffer(shard.boundary_ids(),
                                        dtype=np.uint32).astype(np.int64)
                          for shard in sharded.shards]
        _ACTIVE_SHARDS = sharded.shards
        _ACTIVE_PLAN = plan
        moved = None  # global ids the last scatter changed (None: all)
        while True:
            rounds += 1
            with span("sharded.round", io=stats, round=rounds,
                      shards=len(sharded.shards)) as round_span:
                dispatched = []
                round_start = []
                halo_changed = 0
                with span("sharded.gather", io=stats, round=rounds):
                    for shard, device, boundary in zip(
                            sharded.shards, estimates, boundary_cache):
                        if moved is None:
                            positions = np.arange(len(boundary))
                        else:
                            positions = np.flatnonzero(np.isin(
                                boundary, moved, assume_unique=True))
                            if not positions.size:
                                # Owned rows and halo are where the
                                # shard's last pass left them: a fixpoint.
                                continue
                        dispatched.append(shard)
                        round_start.append(
                            _read_estimates(device, shard.num_owned))
                        halo_changed += int(positions.size)
                        plan.write_halo_at(
                            shard.index, positions, _gather_boundary(
                                boundary[positions], sharded.bounds,
                                estimates))
                results = exec_obj.run(
                    _run_shard_pass_shared,
                    [(shard.index, engine_name) for shard in dispatched])
                shard_passes += len(dispatched)
                moved_parts = []
                with span("sharded.scatter", io=stats, round=rounds):
                    for shard, owned, outcome in zip(
                            dispatched, round_start, results):
                        comps, _, memory, io_counts = outcome
                        cores = plan.read_cores(shard.index,
                                                shard.num_owned)
                        _apply_io(stats, io_counts)
                        computations += comps
                        local_state = memory + \
                            12 * shard.num_local + 4 * shard.num_owned
                        if local_state > peak_memory:
                            peak_memory = local_state
                        if cores != owned:
                            moved_parts.append(shard.start + np.flatnonzero(
                                np.frombuffer(cores, dtype=np.int32)
                                != np.frombuffer(owned, dtype=np.int32)))
                            estimates[shard.index].write_at(
                                0, cores.tobytes())
                moved = (np.concatenate(moved_parts) if moved_parts
                         else np.zeros(0, dtype=np.int64))
                changed = int(moved.size)
                round_span.annotate(changed=changed,
                                    dispatched=len(dispatched),
                                    halo_changed=halo_changed)
            if trace_changes:
                changes.append(changed)
            if not changed:
                break

        cores = array(_ESTIMATE_TYPECODE)
        for shard, device in zip(sharded.shards, estimates):
            cores.extend(_read_estimates(device, shard.num_owned))
        if rank is not None:
            cores = inverse_map_cores(cores, rank)
    finally:
        _ACTIVE_SHARDS = None
        _ACTIVE_PLAN = None
        closer = getattr(exec_obj, "close", None)
        if closer is not None:
            closer()
        if plan is not None:
            plan.close()
        sharded.close()

    elapsed = time.perf_counter() - started
    # The permutation and its inverse are O(n) resident ids on top of
    # the per-shard working set.
    relabel_overhead = 8 * graph.num_nodes if rank is not None else 0
    result = DecompositionResult(
        algorithm="ShardedSemiCore*",
        cores=cores,
        iterations=rounds,
        node_computations=computations,
        io=stats.delta_since(snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=peak_memory + relabel_overhead,
        per_iteration_changes=changes,
        engine=engine_name,
    )
    result.num_shards = sharded.num_shards
    result.executor = getattr(exec_obj, "name", type(exec_obj).__name__)
    result.max_shard_nodes = sharded.max_shard_nodes
    result.num_boundary = sharded.num_boundary
    result.balance = sharded.balance
    result.relabel = relabel_method
    result.arc_skew = sharded.arc_skew
    result.max_owned_arcs = sharded.max_owned_arcs
    result.halo_bytes = sharded.halo_bytes
    result.boundary_fraction = sharded.boundary_fraction
    result.pool_forks = getattr(exec_obj, "pool_forks", None)
    result.shard_passes = shard_passes
    return result


# ----------------------------------------------------------------------
# estimate-table plumbing
# ----------------------------------------------------------------------

def _read_estimates(device, count):
    """One shard's owned estimates as an array (sequential read)."""
    values = array(_ESTIMATE_TYPECODE)
    if count:
        values.frombytes(device.read_at(0, count * ESTIMATE_ENTRY_SIZE))
    return values


def _gather_boundary(boundary_ids, bounds, estimates):
    """Resolve halo estimates from the owning shards' estimate tables.

    ``boundary_ids`` is sorted.  Inside one owner, every maximal group
    of ids whose entries sit in the same or adjacent blocks becomes a
    single ranged ``read_at`` that the ids are then picked from.  The
    block charges equal those of one point read per id by construction:
    the ranged read touches exactly the union of the blocks the point
    reads touch -- a contiguous block range, charged once each, where
    the ascending point reads charge each once too thanks to the
    one-block cache -- and a group never spans a block the point reads
    skip.  ``tests/test_sharded.py`` asserts the counter parity against
    the point-read reference.
    """
    values = array(_ESTIMATE_TYPECODE)
    ids = np.asarray(boundary_ids, dtype=np.int64)
    if not ids.size:
        return values
    owners = np.searchsorted(bounds, ids, side="right") - 1
    offsets = (ids - np.asarray(bounds)[owners]) * ESTIMATE_ENTRY_SIZE
    block_size = estimates[0].block_size  # one plan, one block size
    first_block = offsets // block_size
    last_block = (offsets + ESTIMATE_ENTRY_SIZE - 1) // block_size
    cuts = np.flatnonzero((np.diff(owners) != 0)
                          | (first_block[1:] > last_block[:-1] + 1)) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    stops = np.concatenate((cuts, [ids.size])).tolist()
    for i, j in zip(starts, stops):
        base = int(offsets[i])
        data = estimates[int(owners[i])].read_at(
            base, int(offsets[j - 1]) + ESTIMATE_ENTRY_SIZE - base)
        picked = np.frombuffer(data, dtype=np.int32)[
            (offsets[i:j] - base) // ESTIMATE_ENTRY_SIZE]
        values.frombytes(picked.tobytes())
    return values


def _apply_io(stats, io_counts):
    """Fold a pass's scratch I/O counters into the shared stats."""
    read_ios, write_ios, bytes_read, bytes_written = io_counts
    stats.read_ios += read_ios
    stats.write_ios += write_ios
    stats.bytes_read += bytes_read
    stats.bytes_written += bytes_written
