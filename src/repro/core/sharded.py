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
2. **Pass** -- run a SemiCore* pass per dispatched shard with the halo
   estimates frozen, through a pluggable shard executor (``serial`` or
   ``persistent``) and any registered engine's ``"shard-pass"`` kernel
   (``python`` and ``numpy`` ship).  A shard's first pass is one
   sequential scan of its owned rows that counts every row's Eq. 2
   support and recomputes only the violators.  Every later pass starts
   from the counts the shard's last pass left (:func:`_carry_counts`):
   it reads them, reads the reverse boundary rows of the halo entries
   the gather just patched, takes one unit off each owned neighbour the
   halo drop crossed, and converges from the rows that now violate
   Eq. 2, point-reading only the rows it recomputes.  No pass after the
   first scans its shard or recounts it.
3. **Scatter** -- write each dispatched shard's new owned estimates and
   Eq. 2 counts back to its estimate and counts tables and record the
   global ids that changed; stop once no estimate moved anywhere.

Each pass lands on the greatest fixpoint at or below its round-start
state, whichever rows it recomputes in whichever order, so skipping
unchanged shards and unchanged halo entries leaves the rounds and the
per-round change trace exactly as a full re-gather and re-run would.
This is Montresor et al.'s rule that a node recomputes only after a
neighbour's estimate dropped, applied to whole shards and, through the
carried counts, to the rows inside one.

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
estimates, the reverse rows of the changed halo entries and its
adjacency buffer.  ``model_memory_bytes`` of the returned result is the
*largest per-shard working set* -- ``O(max shard)``, not ``O(n)`` --
because the full estimate vector and every shard's Eq. 2 counts only
ever live in the estimate and counts tables (external storage in the
I/O model) and the final cores array is assembled by streaming the
estimate tables into the result object.

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
Every decomposition backs its estimate and counts tables with one
``multiprocessing.shared_memory`` segment, the *round plan*
(:class:`_SharedRoundPlan`, :mod:`repro.storage.shm`), and ships only
``(shard, engine)`` task descriptors per round: the estimate, halo,
halo-delta and result payloads travel through the segment, whether the
pass runs in the driving process (``serial``) or in a worker the
``persistent`` executor forks once per decomposition.  Each shard's
halo slot persists across rounds: round 1 fills it and later rounds
patch only the re-gathered entries, recording their positions and
pre-patch values in the shard's delta slot for the pass.  Charged I/O
is the same under every executor: the driver performs the
gather/scatter reads and writes against the counting devices, a pass
charges its reads of the counts table, the reverse table and its rows
to its scratch counter, and the raw segment traffic is transport,
which the I/O model never counts.
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
from repro.core.result import DecompositionResult
from repro.core.semicore_star import converge_star
from repro.errors import ExecutorError, GraphError, ReproError
from repro.obs.trace import span
from repro.storage.blockio import DEFAULT_BLOCK_SIZE, IOStats, read_spans
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

def shard_pass_python(graph, *, initial_cores, frozen_from, cnt=None):
    """Reference per-shard SemiCore* pass with frozen halo rows.

    ``graph`` is one shard's local table (owned rows first, then halo
    rows), ``initial_cores`` the current estimates for every local row.
    Rows at local id >= ``frozen_from`` are boundary estimates: they are
    read like any neighbour but never recomputed.

    Without ``cnt`` this is the shard's first pass: one sequential scan
    of the owned rows (``iter_adjacency(0, frozen_from)``, so halo node
    entries are never read) counts every row's Eq. 2 support exactly as
    it goes and runs LocalCore only on the rows that violate it; the
    rows it leaves violated seed
    :func:`~repro.core.semicore_star.converge_star`.  With ``cnt`` --
    the exact Eq. 2 counts of every local row against ``initial_cores``
    (halo rows at a frozen sentinel), carried over from the shard's last
    pass by :func:`_carry_counts` -- nothing is scanned: ``converge_star``
    starts from the owned rows violating Eq. 2 under ``cnt`` and
    point-reads only the rows it recomputes.  Every row computed
    changes.  Returns ``(cores, node_computations, rows_read,
    model_memory_bytes, counts)``: ``cores`` covers every local row (the
    halo suffix unchanged), ``rows_read`` counts the point-read rows
    (those recomputed after the scan) and ``counts`` holds the owned
    rows' Eq. 2 counts at ``cores``, the next pass's ``cnt``.
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
    if cnt is not None:
        cnt = np.asarray(cnt, dtype=np.int64)
        seeds = np.flatnonzero(cnt[:frozen_from] < np.frombuffer(
            core, dtype=np.int32)[:frozen_from])
        counts = array("q", cnt.tobytes())
        stats = converge_star(graph, core, counts, seeds.tolist())
        return (core, stats.computations, stats.computations,
                12 * n + 8 * stats.max_degree_seen, counts[:frozen_from])
    counts = array("q", bytes(8 * n))
    for v in range(frozen_from, n):
        counts[v] = _FROZEN_SENTINEL
    computations = 0
    max_degree = 0
    upcoming = []
    for v, nbrs in graph.iter_adjacency(0, frozen_from):
        if len(nbrs) > max_degree:
            max_degree = len(nbrs)
        cold = core[v]
        support = compute_cnt(core, nbrs, cold)
        if support >= cold:
            counts[v] = support
            continue
        computations += 1
        cnew = local_core(core, nbrs, cold)
        core[v] = cnew
        counts[v] = compute_cnt(core, nbrs, cnew)
        # Rows past v are counted afresh when the scan reaches them;
        # rows before it that fall short wait for the next pass.
        for u in nbrs:
            if u < v and cnew < core[u] <= cold:
                counts[u] -= 1
                if counts[u] < core[u]:
                    upcoming.append(u)
    stats = converge_star(graph, core, counts, upcoming)
    # core ('i') + cnt ('q') arrays plus the adjacency buffer (the scan
    # saw every owned row, so its widest row bounds the later passes).
    model_memory = 12 * n + 8 * max_degree
    return (core, computations + stats.computations, stats.computations,
            model_memory, counts[:frozen_from])


def _carry_counts(shard, counts_device, initial, positions, old):
    """Eq. 2 counts of a shard's round-2+ pass, for any kernel.

    The counts table holds the owned rows' exact counts at the end of
    the shard's last pass.  The owned values have not moved since; only
    the halo entries at ``positions`` (halo indices, ascending) have,
    from ``old`` to their values in ``initial``.  So the counts table
    is read once and, through the reverse boundary table, every owned
    row ``v`` adjacent to a changed halo row ``h`` loses one unit when
    the drop crossed it: ``new[h] < core[v] <= old[h]``.  Only those
    rows can now violate Eq. 2: the kernel seeds from them.  Returns
    ``(cnt, seeded)``: int64 counts of every local row (halo rows at the
    frozen sentinel) and how many owned rows violate Eq. 2 under them.
    """
    owned = shard.num_owned
    core = np.frombuffer(initial, dtype=np.int32)
    cnt = np.full(shard.num_local, _FROZEN_SENTINEL, dtype=np.int64)
    cnt[:owned] = np.frombuffer(
        counts_device.read_at(0, owned * ESTIMATE_ENTRY_SIZE),
        dtype=np.int32)
    # A drop ending at or above every owned value crosses no owned row,
    # so its reverse row is not read.
    crossing = core[owned + positions] < core[:owned].max(initial=0)
    positions, old = positions[crossing], old[crossing]
    ids, lengths = shard.reverse_rows(positions)
    value = core[ids]
    losses = np.bincount(
        ids[(np.repeat(core[owned + positions], lengths) < value)
            & (value <= np.repeat(old, lengths))], minlength=owned)
    cnt[:owned] -= losses
    touched = np.flatnonzero(losses)
    return cnt, int(np.count_nonzero(cnt[touched] < core[touched]))


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
        by a bare :meth:`run` on a caller-owned executor, say) would
        never see them, so it is retired here and the first round forks
        afresh.
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

    One segment holds, per shard, five consecutive regions of int32
    entries:

    * the *estimate table* (``num_owned``) and the *halo slot*
      (``num_boundary``), adjacent so a pass reads its round-start
      values in one go;
    * the *counts table* (``num_owned``): the owned rows' Eq. 2 counts
      at the end of the shard's last pass;
    * the *output slot* (``2 * num_owned``): a pass's owned cores, then
      its counts;
    * the *delta slot* (``1 + 2 * num_boundary``): how many halo entries
      the last gather patched, their positions and their values before
      the patch (a count of -1 marks the round-1 fill).

    The estimate and counts tables back counting
    :class:`~repro.storage.shm.SharedMemoryBlockDevice` instances, so
    their traffic is charged exactly as on a
    :class:`~repro.storage.blockio.MemoryBlockDevice`; the slots are
    raw transport, not modelled I/O, and the same whichever executor
    runs the pass -- that is what keeps the counters bit-identical
    across executors.  A pass only reads the tables and writes its
    output slot; the driver writes both tables after ``run`` returns,
    so a retried pass sees the same inputs.

    The driver owns the plan: it is created before the first round,
    read in-process by serial passes and through fork inheritance by
    persistent workers, and closed (detached *and* unlinked) in the
    driver's ``finally`` whether the decomposition succeeds or dies --
    no ``/dev/shm`` entry outlives the call.
    """

    def __init__(self, sharded, block_size, stats):
        self._regions = []
        cursor = 0
        for shard in sharded.shards:
            owned, halo = shard.num_owned, shard.num_boundary
            region = [cursor]
            for entries in (owned, halo, owned, 2 * owned, 1 + 2 * halo):
                cursor += entries * ESTIMATE_ENTRY_SIZE
                region.append(cursor)
            self._regions.append(region)
        self.total_bytes = max(1, cursor)
        self.segment = SharedMemorySegment(self.total_bytes)
        self.devices = []
        self.count_devices = []
        for region in self._regions:
            estimates, halo, counts, _, _, _ = region
            self.devices.append(SharedMemoryBlockDevice(
                self.segment, estimates, halo - estimates,
                block_size=block_size, stats=stats))
            # Written by the driver after the workers fork and read by
            # them, so it starts at its full (zero-filled) size.
            self.count_devices.append(SharedMemoryBlockDevice(
                self.segment, counts, region[3] - counts,
                block_size=block_size, stats=stats,
                size=region[3] - counts))

    def _slot(self, index, which):
        region = self._regions[index]
        return np.frombuffer(self.segment.buf[region[which]:
                                              region[which + 1]],
                             dtype=np.int32)

    # -- driver side ---------------------------------------------------
    def fill_halo(self, index, values):
        """Fill a shard's whole halo slot (round 1; raw transport)."""
        self._slot(index, 1)[:] = values
        self._slot(index, 4)[0] = -1

    def patch_halo(self, index, positions, values):
        """Patch a shard's halo slot at ``positions`` (raw transport).

        The slot persists across rounds, so the driver rewrites only the
        entries whose estimates moved since the previous round; the
        delta slot keeps their positions and pre-patch values for the
        pass's count prologue.
        """
        halo = self._slot(index, 1)
        delta = self._slot(index, 4)
        k = len(positions)
        delta[0] = k
        delta[1:1 + k] = positions
        delta[1 + k:1 + 2 * k] = halo[positions]
        halo[positions] = values

    def read_output(self, index):
        """A shard's pass result: ``(cores, counts)`` as int32 bytes."""
        output = self._slot(index, 3)
        owned = output.size // 2
        return output[:owned].tobytes(), output[owned:].tobytes()

    # -- pass side -----------------------------------------------------
    def read_initial(self, index, count):
        """A shard's round-start estimates, owned rows then halo rows.

        The estimate table and the halo slot are adjacent, so this is
        one raw read of ``count`` (= owned + halo) entries.
        """
        start = self._regions[index][0]
        size = count * ESTIMATE_ENTRY_SIZE
        return bytes(self.segment.buf[start:start + size])

    def read_delta(self, index):
        """``(positions, old)`` of the last halo patch, None after the
        round-1 fill."""
        delta = self._slot(index, 4)
        k = int(delta[0])
        if k < 0:
            return None
        return (delta[1:1 + k].astype(np.int64),
                delta[1 + k:1 + 2 * k].copy())

    def write_output(self, index, cores, counts):
        """Store a pass's owned cores and counts into the output slot."""
        output = self._slot(index, 3)
        owned = output.size // 2
        output[:owned] = np.frombuffer(cores, dtype=np.int32)
        output[owned:] = np.asarray(counts, dtype=np.int32)

    def close(self):
        for device in self.devices + self.count_devices:
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
    estimates and the halo delta come raw from the round plan and the
    owned cores and counts go back the same way, so only the counters
    travel in the result however large the shard is.  A shard's first
    pass runs the kernel's scan; every later one runs
    :func:`_carry_counts` first and hands the kernel its counts.  The
    pass follows the executor contract's three rules: it
    starts cold (device caches dropped), touches only the shard's own
    devices, and charges its I/O to a scratch counter so the driver can
    apply one combined delta whatever process ran it.  Returns
    ``(computations, rows_read, seeded, model_memory_bytes,
    io_counts)``.
    """
    index, engine = task
    shard = _ACTIVE_SHARDS[index]
    plan = _ACTIVE_PLAN
    owned = shard.num_owned
    initial = array(_ESTIMATE_TYPECODE)
    initial.frombytes(plan.read_initial(index, shard.num_local))
    graph = shard.graph
    kernel = engine_implementation(engine, "shard-pass")
    scratch = IOStats()
    devices = (graph.node_device, graph.edge_device, shard.reverse_device,
               plan.count_devices[index])
    saved = [dev.stats for dev in devices]
    for dev in devices:
        dev.stats = scratch
        dev.drop_cache()
    seeded = 0
    try:
        delta = plan.read_delta(index)
        if delta is None:
            outcome = kernel(graph, initial_cores=initial,
                             frozen_from=owned)
        else:
            cnt, seeded = _carry_counts(shard, plan.count_devices[index],
                                        initial, *delta)
            outcome = kernel(graph, initial_cores=initial,
                             frozen_from=owned, cnt=cnt)
    finally:
        for dev, stats in zip(devices, saved):
            dev.stats = stats
    cores, computations, rows_read, memory, counts = outcome
    plan.write_output(index, array(_ESTIMATE_TYPECODE, cores[:owned]),
                      counts[:owned])
    io_counts = (scratch.read_ios, scratch.write_ios,
                 scratch.bytes_read, scratch.bytes_written)
    return computations, rows_read, seeded, memory, io_counts


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def sharded_semi_core_star(graph, num_shards, *, engine=None,
                           executor=None, path=None, trace_changes=False,
                           balance="node"):
    """Decompose ``graph`` with ``num_shards`` node-range shards.

    ``engine`` selects the per-shard pass kernel through the engine
    registry (``"shard-pass"``; default the reference python kernel),
    ``executor`` how the passes run (``"serial"`` default,
    ``"persistent"``, or any object with ``run(fn, tasks)``).  ``path``
    makes the shard tables file-backed.  ``balance`` picks the fencepost
    rule (``"node"`` or ``"arc"``, see
    :class:`~repro.storage.shards.ShardedGraphStorage`); either returns
    bit-identical core numbers.

    Returns a :class:`DecompositionResult` whose cores are bit-identical
    to :func:`~repro.core.semicore_star.semi_core_star`, whose
    ``iterations`` counts exchange rounds (including the final round
    that confirms the fixpoint), and whose ``model_memory_bytes`` is the
    largest per-shard working set.  Extra attributes: ``num_shards``,
    ``executor`` (the resolved name), ``max_shard_nodes``,
    ``num_boundary``, ``balance``, ``arc_skew``, ``max_owned_arcs``,
    ``halo_bytes``, ``boundary_fraction`` and ``shard_passes`` (the
    shard passes dispatched over all rounds; shards with an unchanged
    halo are not rerun).
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

    sharded = ShardedGraphStorage.from_storage(
        graph, num_shards, path=path, stats=stats, balance=balance
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
                            positions = None
                            halo_changed += len(boundary)
                        else:
                            # Both sorted: look the moved ids up among
                            # the halo's.
                            positions = np.searchsorted(boundary, moved)
                            positions = positions[
                                boundary.take(positions, mode="clip")
                                == moved] if boundary.size else positions[:0]
                            if not positions.size:
                                # Owned rows and halo are where the
                                # shard's last pass left them: a fixpoint.
                                continue
                            halo_changed += int(positions.size)
                        dispatched.append(shard)
                        round_start.append(
                            _read_estimates(device, shard.num_owned))
                        if positions is None:
                            plan.fill_halo(shard.index, _gather_boundary(
                                boundary, sharded.bounds, estimates))
                        else:
                            plan.patch_halo(
                                shard.index, positions, _gather_boundary(
                                    boundary[positions], sharded.bounds,
                                    estimates))
                results = exec_obj.run(
                    _run_shard_pass_shared,
                    [(shard.index, engine_name) for shard in dispatched])
                shard_passes += len(dispatched)
                moved_parts = []
                seeded = rows_read = 0
                with span("sharded.scatter", io=stats, round=rounds):
                    for shard, owned, outcome in zip(
                            dispatched, round_start, results):
                        comps, rows, seeds, memory, io_counts = outcome
                        cores, counts = plan.read_output(shard.index)
                        _apply_io(stats, io_counts)
                        computations += comps
                        rows_read += rows
                        seeded += seeds
                        local_state = memory + \
                            12 * shard.num_local + 4 * shard.num_owned
                        if local_state > peak_memory:
                            peak_memory = local_state
                        plan.count_devices[shard.index].write_at(0, counts)
                        drops = np.flatnonzero(
                            np.frombuffer(cores, dtype=np.int32)
                            != np.frombuffer(owned, dtype=np.int32))
                        if drops.size:
                            moved_parts.append(shard.start + drops)
                            estimates[shard.index].write_at(0, cores)
                moved = (np.concatenate(moved_parts) if moved_parts
                         else np.zeros(0, dtype=np.int64))
                changed = int(moved.size)
                round_span.annotate(changed=changed,
                                    dispatched=len(dispatched),
                                    halo_changed=halo_changed,
                                    seeded=seeded, rows_read=rows_read)
            if trace_changes:
                changes.append(changed)
            if not changed:
                break

        cores = array(_ESTIMATE_TYPECODE)
        for shard, device in zip(sharded.shards, estimates):
            cores.extend(_read_estimates(device, shard.num_owned))
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
    result = DecompositionResult(
        algorithm="ShardedSemiCore*",
        cores=cores,
        iterations=rounds,
        node_computations=computations,
        io=stats.delta_since(snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=peak_memory,
        per_iteration_changes=changes,
        engine=engine_name,
    )
    result.num_shards = sharded.num_shards
    result.executor = getattr(exec_obj, "name", type(exec_obj).__name__)
    result.max_shard_nodes = sharded.max_shard_nodes
    result.num_boundary = sharded.num_boundary
    result.balance = sharded.balance
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

    ``boundary_ids`` is sorted, so the owners' ids come one owner after
    another, ascending, and one :func:`~repro.storage.blockio.read_spans`
    reads them with the charges of one point read per id.
    ``tests/test_sharded.py`` asserts the counter parity against the
    point-read reference.  Returns an int32 array.
    """
    ids = np.asarray(boundary_ids, dtype=np.int64)
    owners = np.searchsorted(bounds, ids, side="right") - 1
    return read_spans(
        estimates, owners,
        (ids - np.asarray(bounds)[owners]) * ESTIMATE_ENTRY_SIZE,
        np.ones(ids.size, dtype=np.int64), np.int32)


def _apply_io(stats, io_counts):
    """Fold a pass's scratch I/O counters into the shared stats."""
    read_ios, write_ios, bytes_read, bytes_written = io_counts
    stats.read_ios += read_ios
    stats.write_ios += write_ios
    stats.bytes_read += bytes_read
    stats.bytes_written += bytes_written
