"""The core-index serving subsystem.

:class:`CoreService` is the long-lived object the ROADMAP's north star
asks for: it owns a :class:`~repro.storage.dynamic.DynamicGraph` plus a
maintained ``core[]``/``cnt[]`` index and serves read queries while
absorbing an edge-update stream.  The three moving parts:

* **read path** -- every answer is a function of the *published*
  :class:`~repro.service.snapshot.EpochSnapshot` (a frozen ``core[]``
  copy, its coreness-sorted layout and frozen adjacency rows), read
  from the snapshot the query pinned and from nothing else.  Reads
  never touch the mutable maintainer state, so any number of threads
  can query while a batch applies; :meth:`read_view` pins one epoch
  across a whole sequence of reads.  Results are byte-identical across
  execution engines.
* **write path** -- :meth:`apply` journals a batch of ``("+"|"-", u, v)``
  events (write-ahead), routes it through the maintenance algorithms of
  Section V against the *private* next-epoch state, builds the next
  snapshot (sharing every untouched adjacency row), and publishes it
  with a single atomic epoch-pointer swap -- only then is the epoch
  visible.  The superseded snapshot retires once its last in-flight
  reader releases it.
* **durability** -- every ``checkpoint_interval`` batches the service
  checkpoints the ``core``/``cnt`` arrays
  (:mod:`repro.storage.state`) *plus* the net edge delta
  of the graph against its seed tables, rotates the segmented journal
  (:mod:`repro.service.journal`) and writes a manifest recording the
  event watermark the pair is valid at; sealed journal segments fully
  covered by the watermark are then compacted away.  :meth:`open`
  restarts bounded: it rebuilds the graph from the seed tables plus
  the checkpointed delta (no event replay), installs the checkpointed
  index, and streams only the journal *tail* past the watermark
  through the maintenance algorithms -- reproducing the
  straight-through state exactly (``tests/test_service_recovery.py``
  kills a service mid-batch, and mid-checkpoint, to prove it).  Every
  file of the directory carries a checksum, the manifest's included;
  a directory in any other layout is refused, untouched.
"""

from __future__ import annotations

import json
import operator
import os
import re
import struct
import threading
import time
import zlib
from array import array

from repro.bench.harness import run_decomposition
from repro.storage.state import load_checkpoint, save_checkpoint
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.errors import (
    BatchQuarantinedError,
    CorruptStorageError,
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    ReproError,
    ServiceDegradedError,
    StorageError,
)
from repro.obs.trace import span
from repro.service.journal import (
    DEFAULT_SEGMENT_EVENTS,
    EventJournal,
    fsync_path as _fsync_path,
)
from repro.service.snapshot import CacheStats, EpochSnapshot, SnapshotView
from repro.storage.dynamic import DEFAULT_BUFFER_CAPACITY, DynamicGraph
from repro.storage.graphstore import GraphStorage

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2

#: Batches applied between automatic checkpoints (None disables them).
DEFAULT_CHECKPOINT_INTERVAL = 16

#: Attempts per batch (1 + retries) before it is quarantined, and the
#: base of the exponential backoff slept between attempts.
DEFAULT_APPLY_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.01

#: Epoch-stamped duplicates of the manifest pointer, written next to it
#: so ``repro scrub`` can restore a damaged ``manifest.json``.
MANIFEST_COPY_RE = re.compile(r"^manifest\.(\d+)\.json$")

#: Net edge-delta file: magic, version, pair count; then one
#: ``(kind, u, v)`` record per edge differing from the seed tables,
#: sorted, followed by a CRC32 of the record bytes.
_DELTA_MAGIC = b"RPRDELT1"
_DELTA_VERSION = 1
_DELTA_HEADER = struct.Struct("<8sIQ4x")
_DELTA_RECORD = struct.Struct("<BII")
_DELTA_CRC = struct.Struct("<I")
_DELTA_OPS = {"+": 0, "-": 1}
_DELTA_KINDS = {0: "+", 1: "-"}


def _checkpoint_file(epoch):
    """Checkpoint file name of ``epoch`` (the manifest points at one)."""
    return "state.%d.ckpt" % epoch


def _delta_file(epoch):
    """Edge-delta file name of ``epoch``."""
    return "graph.%d.delta" % epoch


def _manifest_copy_file(epoch):
    """Name of the manifest duplicate stamped with ``epoch``."""
    return "manifest.%d.json" % epoch


def _manifest_body(manifest):
    """Canonical serialization the manifest checksum covers: every
    field but ``crc32`` itself."""
    data = {key: value for key, value in manifest.items()
            if key != "crc32"}
    return json.dumps(data, indent=2, sort_keys=True)


#: Manifest fields ``open()`` reads, with their JSON types.
_FIELDS = {"epoch": int, "events_applied": int, "checkpoint": str,
           "delta": str, "graph_path": (str, type(None)),
           "seed_algorithm": (str, type(None)), "quarantined_batches": list}


def load_manifest(path):
    """Read and verify a service manifest.

    Shared between :meth:`CoreService.open` and ``repro scrub``.
    Propagates :class:`FileNotFoundError`; anything unparsable, of
    another version, failing or lacking its ``crc32``, or missing or
    mistyping a field ``open()`` reads raises
    :class:`~repro.errors.CorruptStorageError` carrying ``path``.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
        manifest = json.loads(text)
    except FileNotFoundError:
        raise
    # UnicodeDecodeError (a bit flipped into the high half) is a
    # ValueError too; both mean the same thing here: damaged manifest.
    except ValueError as exc:
        raise CorruptStorageError(
            "service manifest %s is unreadable: %s" % (path, exc),
            path=path) from None
    if not isinstance(manifest, dict):
        raise CorruptStorageError(
            "service manifest %s is not a JSON object" % path,
            path=path)
    version = manifest.get("version")
    if isinstance(version, bool) or version != MANIFEST_VERSION:
        raise CorruptStorageError(
            "service manifest %s has unsupported version %r (expected %d)"
            % (path, version, MANIFEST_VERSION),
            path=path)
    body = _manifest_body(manifest).encode("ascii")
    if manifest.get("crc32") != zlib.crc32(body) & 0xFFFFFFFF:
        raise CorruptStorageError(
            "service manifest %s fails its checksum" % path,
            path=path)
    for key, kind in _FIELDS.items():
        value = manifest.get(key)
        if key not in manifest or isinstance(value, bool) or \
                not isinstance(value, kind) or (kind is int and value < 0):
            raise CorruptStorageError(
                "service manifest %s has no valid %r field" % (path, key),
                path=path)
    return manifest


def check_watermark(manifest_path, manifest, num_events,
                    first_retained_event):
    """Refuse a checkpoint the journal cannot resume from.

    ``num_events`` and ``first_retained_event`` describe the journal
    (as :class:`EventJournal` reports them).  The checkpoint watermark
    may not cover more events than the journal holds, and the journal
    must not have been compacted past it.  Shared between
    :meth:`CoreService.open` and ``repro scrub``; raises
    :class:`~repro.errors.CorruptStorageError` naming the manifest and
    returns the watermark.
    """
    applied = int(manifest["events_applied"])
    if applied > num_events:
        raise CorruptStorageError(
            "journal holds %d events but the checkpoint covers %d"
            % (num_events, applied),
            path=manifest_path)
    if applied < first_retained_event:
        raise CorruptStorageError(
            "journal was compacted past the checkpoint: first retained "
            "event is %d but the checkpoint covers only %d"
            % (first_retained_event, applied),
            path=manifest_path)
    return applied


class CoreService:
    """Serve core-index queries over a dynamic graph.

    Build one with :meth:`from_storage` / :meth:`from_graph` (seeds the
    index with a decomposition run) or :meth:`open` (resumes from a
    checkpointed data directory).  The constructor itself only wires
    already-consistent parts together.
    """

    def __init__(self, maintainer, *, journal=None, data_dir=None,
                 checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
                 epoch=0, events_applied=0,
                 graph_path=None, seed_algorithm=None, edge_delta=None,
                 apply_retries=DEFAULT_APPLY_RETRIES,
                 retry_backoff=DEFAULT_RETRY_BACKOFF):
        self._maintainer = maintainer
        #: Probe counters of the per-snapshot ``subgraph`` memos.
        self._cache_stats = CacheStats()
        self._journal = journal
        self._data_dir = os.fspath(data_dir) if data_dir is not None else None
        self._checkpoint_interval = checkpoint_interval
        self._epoch = epoch
        self._events_applied = events_applied
        self._graph_path = graph_path
        self._seed_algorithm = seed_algorithm
        self._last_checkpoint_epoch = epoch
        self._queries_served = 0
        if apply_retries < 0:
            raise ReproError(
                "apply_retries must be >= 0, got %d" % apply_retries)
        if retry_backoff < 0:
            raise ReproError(
                "retry_backoff must be >= 0, got %r" % (retry_backoff,))
        self._apply_retries = apply_retries
        self._retry_backoff = retry_backoff
        #: Why the last write attempt failed (None while healthy); set
        #: by a quarantine or a failed rollback, cleared by the next
        #: successful batch.  Surfaced via :meth:`stats` and the CLI.
        self._degraded = None
        #: A rollback failure leaves live state unknown: the write
        #: plane refuses everything until the directory is scrubbed
        #: and reopened.  Reads keep serving the published snapshot.
        self._poisoned = False
        #: Batch ids quarantined in this run or recorded by the
        #: manifest / journal markers, and the event count they cover.
        self._quarantined = set()
        self._events_quarantined = 0
        #: Net difference of the graph's edge set against its *seed*
        #: tables: ``(u, v) -> "+"/"-"`` with ``u < v``.  Checkpointed
        #: next to ``core``/``cnt`` so restarts rebuild the graph
        #: without replaying the (compacted) journal prefix.  Bounded
        #: by the real state divergence, not by traffic: an insert and
        #: its later deletion cancel.
        self._edge_delta = dict(edge_delta) if edge_delta else {}
        #: Storage this service opened itself (via a manifest graph
        #: path) and therefore must close; caller-provided storage
        #: stays the caller's.
        self._owned_storage = None
        #: The swap lock serializes "read the snapshot pointer and pin
        #: it" against "replace the snapshot pointer"; it is held for a
        #: few instructions only, never across a query or a batch.
        self._swap_lock = threading.Lock()
        #: Serving counters shared between reader threads.
        self._counter_lock = threading.Lock()
        self._snapshots_retired = 0
        #: Push-mode metrics, created by :meth:`register_metrics`; the
        #: hot paths check for None so an unregistered service pays
        #: nothing.
        self._m_apply_seconds = None
        self._m_apply_outcomes = None
        self._m_apply_retry_count = 0
        #: The published read plane: one sequential scan seeds it (the
        #: same figure any full pass pays); each applied batch advances
        #: it incrementally and swaps the pointer.
        self._snapshot = EpochSnapshot.build(
            maintainer.graph, maintainer.cores,
            epoch=epoch, events_applied=events_applied)
        #: Test-only crash-injection points: after the journal append
        #: but before the batch touches the index; after the next-epoch
        #: state and snapshot are built but before the pointer swap
        #: publishes them; after the checkpoint rotated the journal but
        #: before the manifest is written; and after the manifest is
        #: written but before compaction unlinks covered segments.
        self._crash_after_journal = None
        self._crash_before_publish = None
        self._crash_after_rotate = None
        self._crash_before_compact = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, *, algorithm="semicore*", engine=None,
                     data_dir=None, buffer_capacity=DEFAULT_BUFFER_CAPACITY,
                     path_factory=None,
                     checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
                     segment_events=DEFAULT_SEGMENT_EVENTS,
                     apply_retries=DEFAULT_APPLY_RETRIES,
                     retry_backoff=DEFAULT_RETRY_BACKOFF):
        """Seed a service over on-disk (or in-memory) graph tables.

        ``algorithm`` picks any decomposition algorithm for the seeding
        run and ``engine`` any execution engine for it -- both maintained
        arrays are bit-identical across those choices.  With
        ``data_dir`` the service journals updates and checkpoints there,
        making :meth:`open` restarts possible.
        """
        graph = DynamicGraph(storage, buffer_capacity=buffer_capacity,
                             path_factory=path_factory)
        return cls.from_graph(
            graph, algorithm=algorithm, engine=engine,
            data_dir=data_dir, checkpoint_interval=checkpoint_interval,
            segment_events=segment_events,
            graph_path=getattr(storage, "path", None),
            apply_retries=apply_retries, retry_backoff=retry_backoff,
        )

    @classmethod
    def from_graph(cls, graph, *, algorithm="semicore*", engine=None,
                   data_dir=None,
                   checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
                   graph_path=None,
                   segment_events=DEFAULT_SEGMENT_EVENTS,
                   apply_retries=DEFAULT_APPLY_RETRIES,
                   retry_backoff=DEFAULT_RETRY_BACKOFF):
        """Seed a service over any mutable graph with the read protocol."""
        result = run_decomposition(algorithm, graph, engine=engine)
        cores = array("i", result.cores)
        if result.cnt is not None:
            cnt = array("i", result.cnt)
        else:
            cnt = _compute_cnt_scan(graph, cores)
        maintainer = CoreMaintainer(graph, cores, cnt)
        journal = None
        if data_dir is not None:
            data_dir = os.fspath(data_dir)
            if os.path.exists(os.path.join(data_dir, MANIFEST_NAME)):
                raise ReproError(
                    "data directory %s is already initialized; resume it "
                    "with CoreService.open instead of reseeding" % data_dir)
            os.makedirs(data_dir, exist_ok=True)
            journal = EventJournal(data_dir, segment_events=segment_events)
        service = cls(maintainer, journal=journal, data_dir=data_dir,
                      checkpoint_interval=checkpoint_interval,
                      graph_path=graph_path, seed_algorithm=algorithm,
                      apply_retries=apply_retries,
                      retry_backoff=retry_backoff)
        service.seed_result = result
        if data_dir is not None:
            service.checkpoint()
        return service

    @classmethod
    def open(cls, data_dir, storage=None, *,
             buffer_capacity=DEFAULT_BUFFER_CAPACITY, path_factory=None,
             checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
             segment_events=DEFAULT_SEGMENT_EVENTS,
             apply_retries=DEFAULT_APPLY_RETRIES,
             retry_backoff=DEFAULT_RETRY_BACKOFF):
        """Resume a service from its checkpointed data directory.

        ``storage`` must be the *seed* graph tables the service was
        created over (pristine -- the service never mutates them in
        place); when omitted, the path recorded in the manifest is
        reopened.  Restart is bounded: the graph is rebuilt from the
        seed tables plus the checkpointed net edge delta (no event
        replay), and only the journal *tail* past the checkpoint
        watermark is streamed through the maintenance algorithms -- so
        the resumed ``core``, ``cnt`` and epoch equal a
        straight-through run's, at a cost independent of how many
        events the service ever absorbed.  A damaged manifest or
        corrupted journal raises
        :class:`~repro.errors.CorruptStorageError` before any state is
        touched.  A restart loads the checkpointed arrays and runs no
        decomposition, so it takes no ``engine``.
        """
        data_dir = os.fspath(data_dir)
        manifest_path = os.path.join(data_dir, MANIFEST_NAME)
        try:
            manifest = load_manifest(manifest_path)
        except FileNotFoundError:
            raise ReproError(
                "no service manifest under %s (seed one with "
                "CoreService.from_storage(data_dir=...))" % data_dir
            ) from None
        graph_path = manifest["graph_path"]
        owned_storage = None
        if storage is None:
            if not graph_path:
                raise ReproError(
                    "manifest records no graph path; pass the seed "
                    "storage explicitly")
            storage = owned_storage = GraphStorage.open(graph_path)
        journal = None
        try:
            journal = EventJournal(data_dir,
                                   segment_events=segment_events)
            applied = check_watermark(manifest_path, manifest,
                                      journal.num_events,
                                      journal.first_retained_event)
            graph = DynamicGraph(storage, buffer_capacity=buffer_capacity,
                                 path_factory=path_factory)
            edge_delta = read_delta_file(
                os.path.join(data_dir, manifest["delta"]))
            # The delta is the *net* difference at the watermark;
            # applying it reproduces the exact observable graph of an
            # event-order replay (adjacency is merged sorted).
            for (u, v), op in sorted(edge_delta.items()):
                if op == "+":
                    graph.insert_edge(u, v, validate=False)
                else:
                    graph.delete_edge(u, v, validate=False)
            cores, cnt = load_checkpoint(
                os.path.join(data_dir, manifest["checkpoint"]), graph)
            maintainer = CoreMaintainer(graph, cores, cnt)
            service = cls(maintainer, journal=journal, data_dir=data_dir,
                          checkpoint_interval=checkpoint_interval,
                          epoch=int(manifest["epoch"]),
                          events_applied=applied, graph_path=graph_path,
                          seed_algorithm=manifest["seed_algorithm"],
                          edge_delta=edge_delta,
                          apply_retries=apply_retries,
                          retry_backoff=retry_backoff)
            service._quarantined.update(manifest["quarantined_batches"])
            # Stream the journal tail through the full maintenance
            # path, preserving the original batch boundaries (= epoch
            # sequence).  Only segments past the watermark are read; a
            # quarantined batch's events are skipped but still consume
            # their epoch, exactly as in the original run.
            for batch, ops, quarantined in journal.iter_batches(
                    applied, include_quarantined=True):
                if quarantined:
                    service._skip_quarantined(batch, ops)
                else:
                    service._apply_ops(ops, batch=batch)
        except BaseException:
            if journal is not None:
                journal.close()
            if owned_storage is not None:
                owned_storage.close()
            raise
        service._owned_storage = owned_storage
        return service

    def close(self):
        """Release the journal and any storage this service opened itself.

        Caller-provided storage stays the caller's to close; storage
        reopened from a manifest ``graph_path`` belongs to the service.
        Note a compaction may already have retired the original tables
        (``DynamicGraph`` closes them), in which case this is a no-op.
        """
        if self._journal is not None:
            self._journal.close()
        if self._owned_storage is not None:
            self._owned_storage.close()
            self._owned_storage = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The dynamic graph the service maintains."""
        return self._maintainer.graph

    @property
    def maintainer(self):
        """The underlying :class:`CoreMaintainer`."""
        return self._maintainer

    @property
    def journal(self):
        """The segmented write-ahead journal (None without a data dir)."""
        return self._journal

    @property
    def edge_delta(self):
        """Net edge difference against the seed tables (a copy)."""
        return dict(self._edge_delta)

    @property
    def cache_stats(self):
        """Counters of the per-snapshot ``subgraph`` memos."""
        return self._cache_stats

    @property
    def io_stats(self):
        """Block-I/O counters of the underlying graph."""
        return self.graph.io_stats

    @property
    def epoch(self):
        """Number of update batches applied to the index so far."""
        return self._epoch

    @property
    def events_applied(self):
        """Total edge events applied across all batches."""
        return self._events_applied

    @property
    def queries_served(self):
        """Number of read-API calls answered."""
        return self._queries_served

    @property
    def degraded(self):
        """Why the last write attempt failed; None while healthy."""
        return self._degraded

    @property
    def quarantined_batches(self):
        """Sorted ids of quarantined batches (journaled, never applied)."""
        return sorted(self._quarantined)

    @property
    def num_nodes(self):
        """Number of nodes of the served graph."""
        return self.graph.num_nodes

    def stats(self):
        """One dict of serving counters, for reports and debugging.

        The epoch / events / kmax triple comes from a single pinned
        snapshot, so it is coherent even when a batch applies
        concurrently.
        """
        io = self.io_stats
        snap = self._pin()
        try:
            stats = {
                "epoch": snap.epoch,
                "events_applied": snap.stats["events_applied"],
                "queries_served": self._queries_served,
                "kmax": snap.kmax,
                "cache": self._cache_stats.as_dict(),
                "read_ios": io.read_ios,
                "write_ios": io.write_ios,
                "snapshot": {
                    "epoch": snap.epoch,
                    # The stats call itself holds one pin; report the
                    # other in-flight readers.
                    "pins": snap.refcount - 1,
                    "retired": self._snapshots_retired,
                },
            }
        finally:
            snap.release()
        stats["degraded"] = self._degraded
        stats["quarantined"] = sorted(self._quarantined)
        stats["events_quarantined"] = self._events_quarantined
        if self._journal is not None:
            stats["journal"] = self._journal.stats()
        return stats

    def register_metrics(self, registry):
        """Re-home the serving counters onto a ``MetricsRegistry``.

        The existing exact counters (``stats()`` fields, ``CacheStats``,
        ``IOStats``, journal gauges) stay the single source of truth;
        the registry attaches pull-mode views that read them at
        collection time, so the hot paths pay nothing new and the old
        dict shapes are preserved verbatim.  The only push-mode metrics
        are the apply-latency histogram and per-outcome batch counter,
        observed once per :meth:`apply` call.  Idempotent (re-registering
        on the same registry refreshes the views); returns ``registry``.
        """
        gauge = registry.gauge
        counter = registry.counter
        gauge("repro_service_epoch",
              "Update batches applied (current epoch)."
              ).set_function(lambda: self._epoch)
        counter("repro_service_events_applied",
                "Edge events applied across all batches."
                ).set_function(lambda: self._events_applied)
        counter("repro_service_queries_served",
                "Read-API calls answered."
                ).set_function(lambda: self._queries_served)
        gauge("repro_service_degraded",
              "1 while the last write attempt failed, else 0."
              ).set_function(lambda: 1 if self._degraded else 0)
        gauge("repro_service_poisoned",
              "1 while the write plane refuses batches, else 0."
              ).set_function(lambda: 1 if self._poisoned else 0)
        gauge("repro_service_quarantined_batches",
              "Batches quarantined (journaled, never applied)."
              ).set_function(lambda: len(self._quarantined))
        counter("repro_service_events_quarantined",
                "Edge events inside quarantined batches."
                ).set_function(lambda: self._events_quarantined)
        cache_stats = self._cache_stats
        for field in ("hits", "misses", "carried", "patched", "evictions",
                      "invalidations", "stale"):
            counter("repro_cache_%s" % field,
                    "Subgraph memo %s." % field
                    ).set_function(lambda f=field: getattr(cache_stats, f))
        gauge("repro_cache_hit_rate",
              "Subgraph memo hit rate (0.0 before any lookup)."
              ).set_function(lambda: cache_stats.hit_rate)
        gauge("repro_cache_entries",
              "Subgraph answers memoized on the published snapshot."
              ).set_function(lambda: self._snapshot.memo_entries)
        gauge("repro_snapshot_epoch",
              "Epoch of the published read snapshot."
              ).set_function(lambda: self._snapshot.epoch)
        gauge("repro_snapshot_pins",
              "In-flight reader pins on the published snapshot."
              ).set_function(lambda: self._snapshot.refcount)
        counter("repro_snapshots_retired",
                "Superseded snapshots fully released and dropped."
                ).set_function(lambda: self._snapshots_retired)
        for field, help_text in (
                ("read_ios", "Block read I/Os of the served graph."),
                ("write_ios", "Block write I/Os of the served graph."),
                ("bytes_read", "Bytes read from the block devices."),
                ("bytes_written", "Bytes written to the block devices.")):
            counter("repro_io_%s" % field, help_text
                    ).set_function(
                lambda f=field: getattr(self.io_stats, f))
        if self._journal is not None:
            journal = self._journal
            counter("repro_journal_fsyncs",
                    "Journal data-file fsyncs issued."
                    ).set_function(lambda: journal.fsyncs)
            counter("repro_journal_events",
                    "Events held by the journal (global offset)."
                    ).set_function(lambda: journal.num_events)
            gauge("repro_journal_segments",
                  "Live journal segment files."
                  ).set_function(lambda: len(journal.segments()))
            gauge("repro_journal_disk_bytes",
                  "Bytes of journal segments on disk."
                  ).set_function(lambda: journal.stats()["disk_bytes"])
        self._m_apply_seconds = registry.histogram(
            "repro_apply_seconds",
            "Wall-clock seconds per apply() batch.")
        self._m_apply_outcomes = registry.counter(
            "repro_apply_total",
            "apply() batches by outcome.", labelnames=("outcome",))
        counter("repro_apply_retries",
                "Batch attempts retried after a storage failure."
                ).set_function(lambda: self._m_apply_retry_count)
        return registry

    def verify(self):
        """Recompute the decomposition from scratch and compare (debug)."""
        return self._maintainer.verify()

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    # Every public read pins the published snapshot for exactly one
    # query; :meth:`read_view` hands the pin to the caller instead, so a
    # sequence of reads observes one coherent epoch however many swaps
    # happen meanwhile.  The ``_``-prefixed twins hold the actual query
    # logic against an explicit snapshot; nothing in them ever touches
    # the mutable maintainer state.

    def read_view(self):
        """Pin the current epoch; returns a :class:`SnapshotView`.

        Use as a context manager: every query through the view -- and
        its ``epoch`` / ``stats`` -- answers from the same snapshot.
        The pinned snapshot retires only after the view closes (and any
        other in-flight readers release), so holding a view across
        :meth:`apply` swaps is safe and coherent by construction.
        """
        return SnapshotView(self, self._pin())

    def _pin(self):
        with self._swap_lock:
            return self._snapshot.acquire()

    def coreness(self, v):
        """Core number of node ``v``.

        Validation precedes accounting throughout the read API: a
        rejected query is never counted as served.
        """
        snap = self._pin()
        try:
            return self._coreness(snap, v)
        finally:
            snap.release()

    def coreness_many(self, nodes):
        """Core numbers for a batch of nodes, from one pinned epoch.

        The whole batch is validated up front (a rejected batch counts
        nothing), then each node is one served query -- the counter
        moves exactly as if the caller had issued :meth:`coreness` per
        node.  Unlike per-node calls, the batch pins a single snapshot,
        so its values can never straddle an ``apply()`` swap.
        """
        snap = self._pin()
        try:
            return self._coreness_many(snap, nodes)
        finally:
            snap.release()

    def kcore_members(self, k):
        """Node ids of the k-core (``core(v) >= k``)."""
        snap = self._pin()
        try:
            return self._kcore_members(snap, k)
        finally:
            snap.release()

    def kcore_subgraph(self, k):
        """Edges of the k-core subgraph, from the epoch snapshot.

        Member adjacencies are filtered against the threshold in one
        vectorized pass over the snapshot's rows, memoized on the
        snapshot and patched forward by every batch; the result is the
        sorted ``(u, v)`` edge list with ``u < v``.
        """
        snap = self._pin()
        try:
            return self._kcore_subgraph(snap, k)
        finally:
            snap.release()

    def core_histogram(self):
        """Mapping ``k -> number of nodes with core number exactly k``."""
        snap = self._pin()
        try:
            return self._core_histogram(snap)
        finally:
            snap.release()

    def top_k(self, k):
        """The ``k`` highest-coreness ``(node, core)`` pairs.

        Deterministic order: descending core number, ascending node id.
        """
        snap = self._pin()
        try:
            return self._top_k(snap, k)
        finally:
            snap.release()

    def degeneracy(self):
        """The largest core number currently present."""
        snap = self._pin()
        try:
            return self._degeneracy(snap)
        finally:
            snap.release()

    # -- query logic against an explicit snapshot -----------------------
    def _coreness(self, snap, v):
        v = self._check_node(v, snap.num_nodes)
        self._count_queries(1)
        return int(snap.cores[v])

    def _coreness_many(self, snap, nodes):
        # Validation is hoisted ahead of the lookup: no counter moves
        # unless the whole batch is in range.
        nodes = [self._check_node(v, snap.num_nodes) for v in nodes]
        self._count_queries(len(nodes))
        return snap.cores[nodes].tolist()

    def _kcore_members(self, snap, k):
        k = self._check_k(k)
        self._count_queries(1)
        return snap.members(k)

    def _kcore_subgraph(self, snap, k):
        k = self._check_k(k)
        edges, hit = snap.subgraph(k)
        with self._counter_lock:
            self._queries_served += 1
            if hit:
                self._cache_stats.hits += 1
            else:
                self._cache_stats.misses += 1
        return list(edges)

    def _core_histogram(self, snap):
        self._count_queries(1)
        return snap.histogram()

    def _top_k(self, snap, k):
        k = self._check_k(k)
        self._count_queries(1)
        return snap.top(k)

    def _degeneracy(self, snap):
        self._count_queries(1)
        return snap.kmax

    def _count_queries(self, n):
        with self._counter_lock:
            self._queries_served += n

    # ------------------------------------------------------------------
    # write API
    # ------------------------------------------------------------------
    def apply(self, events):
        """Apply a batch of ``("+"|"-", u, v)`` events to graph and index.

        The batch is validated against the current graph, journaled
        (when the service has a data directory), routed through the
        maintenance algorithms in order, and finally the epoch is bumped
        by publishing the next snapshot.  Returns the
        ``CoreMaintainer.apply_batch`` summary extended with ``epoch``.
        An empty batch is a no-op and does not bump the epoch.  An
        endpoint that is not an integer (a float, bool or string) is a
        ``TypeError``, raised before anything is journaled.

        The batch is transactional under storage failure: any
        ``OSError`` / :class:`~repro.errors.StorageError` rolls the
        live plane back to the pre-batch state and the whole batch is
        retried with exponential backoff; after every retry fails it is
        quarantined (marked in the journal, epoch consumed, reads keep
        serving) and :class:`~repro.errors.BatchQuarantinedError`
        raised.  See :meth:`_apply_with_recovery`.
        """
        if self._poisoned:
            raise ServiceDegradedError(
                "service is degraded (%s); reads keep serving but "
                "writes are refused until the data directory is "
                "scrubbed and reopened" % self._degraded)
        ops = [self._normalize_event(event) for event in events]
        if not ops:
            # The no-op summary comes from the same maintainer call the
            # non-empty path uses, so its keys cannot drift from
            # ``_apply_ops``'s.
            return self._finish_summary(self._maintainer.apply_batch([]))
        started = time.perf_counter()
        outcome = "applied"
        try:
            with span("service.apply", io=self.io_stats,
                      events=len(ops)) as apply_span:
                # Validation reads the graph, so it can hit the same
                # flaky device as maintenance.  It mutates nothing, so a
                # plain bounded retry suffices -- no rollback, and a
                # persistent failure rejects the batch before anything
                # is journaled.
                with span("service.validate", io=self.io_stats):
                    for attempt in range(self._apply_retries + 1):
                        if attempt:
                            time.sleep(
                                self._retry_backoff * (2 ** (attempt - 1)))
                            self._m_apply_retry_count += 1
                        try:
                            self._validate_ops(ops)
                            break
                        except (OSError, StorageError):
                            if attempt == self._apply_retries:
                                raise
                batch = self._epoch + 1
                apply_span.annotate(batch=batch)
                if self._journal is not None:
                    with span("service.journal_append", io=self.io_stats):
                        self._journal.append(ops, batch)
                if self._crash_after_journal is not None:
                    self._crash_after_journal()
                summary = self._apply_with_recovery(ops, batch=batch)
        except BatchQuarantinedError:
            outcome = "quarantined"
            raise
        except ServiceDegradedError:
            outcome = "degraded"
            raise
        except (OSError, StorageError):
            outcome = "storage_error"
            raise
        except ReproError:
            outcome = "rejected"
            raise
        finally:
            if self._m_apply_seconds is not None:
                self._m_apply_seconds.observe(
                    time.perf_counter() - started)
                self._m_apply_outcomes.labels(outcome=outcome).inc()
        if (self._data_dir is not None
                and self._checkpoint_interval is not None
                and self._epoch - self._last_checkpoint_epoch
                >= self._checkpoint_interval):
            with span("service.checkpoint", io=self.io_stats,
                      epoch=self._epoch):
                self.checkpoint()
        return summary

    def checkpoint(self):
        """Checkpoint the index + graph delta, rotate, then compact.

        The checkpoint transaction, in durable order:

        1. **rotate** -- the journal seals its active segment and opens
           a fresh one, so the new watermark falls exactly on a segment
           boundary;
        2. **state + delta** -- ``core``/``cnt`` and the net edge delta
           are written to *epoch-versioned* files
           (``state.<epoch>.ckpt`` / ``graph.<epoch>.delta``), each via
           temp file + fsync + atomic rename;
        3. **manifest** -- the manifest (same temp/fsync/rename
           discipline, then a directory fsync) atomically repoints the
           directory at the new pair and records the journal watermark
           with the per-segment event offsets;
        4. **compact** -- sealed segments fully covered by the new
           watermark are unlinked, and checkpoint/delta files of
           earlier epochs are retired.

        A crash anywhere in the sequence leaves a directory that opens
        to a consistent state: before step 3 the previous
        manifest/state/delta triple is still in effect (the extra
        segments and files are garbage the next checkpoint collects);
        after step 3 the new triple is, and compaction merely has not
        happened yet.
        """
        if self._data_dir is None:
            raise ReproError("service has no data directory to "
                             "checkpoint into")
        if self._poisoned:
            raise ServiceDegradedError(
                "service is degraded (%s); refusing to checkpoint "
                "unknown live state" % self._degraded)
        if self._journal is not None:
            self._journal.rotate()
            if self._crash_after_rotate is not None:
                self._crash_after_rotate()
        state_name = _checkpoint_file(self._epoch)
        delta_name = _delta_file(self._epoch)
        state_path = os.path.join(self._data_dir, state_name)
        save_checkpoint(state_path + ".tmp", self.graph,
                        self._maintainer.cores, self._maintainer.cnt)
        _fsync_path(state_path + ".tmp")
        os.replace(state_path + ".tmp", state_path)
        delta_path = os.path.join(self._data_dir, delta_name)
        _write_delta_file(delta_path + ".tmp", self._edge_delta)
        _fsync_path(delta_path + ".tmp")
        os.replace(delta_path + ".tmp", delta_path)
        manifest = {
            "version": MANIFEST_VERSION,
            "epoch": self._epoch,
            "events_applied": self._events_applied,
            "checkpoint": state_name,
            "delta": delta_name,
            "journal": self._journal_manifest(),
            "graph_path": self._graph_path,
            "seed_algorithm": self._seed_algorithm,
            "num_nodes": self.graph.num_nodes,
            "quarantined_batches": sorted(self._quarantined),
        }
        manifest["crc32"] = zlib.crc32(
            _manifest_body(manifest).encode("ascii")) & 0xFFFFFFFF
        blob = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        manifest_path = os.path.join(self._data_dir, MANIFEST_NAME)
        with open(manifest_path + ".tmp", "w", encoding="ascii") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_path + ".tmp", manifest_path)
        # Epoch-stamped duplicate of the pointer: ``repro scrub``
        # restores a damaged ``manifest.json`` from the newest intact
        # copy whose artifacts still verify.
        copy_name = _manifest_copy_file(self._epoch)
        copy_path = os.path.join(self._data_dir, copy_name)
        with open(copy_path + ".tmp", "w", encoding="ascii") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(copy_path + ".tmp", copy_path)
        _fsync_path(self._data_dir)
        if self._crash_before_compact is not None:
            self._crash_before_compact()
        if self._journal is not None:
            self._journal.compact(self._events_applied)
        self._retire_stale_files(state_name, delta_name, copy_name)
        self._last_checkpoint_epoch = self._epoch

    def _journal_manifest(self):
        """The manifest's journal clause: watermark + segment offsets.

        Informational redundancy for operators and forensics -- the
        journal directory itself is the source of truth on open (a
        crash between rotation/compaction and the next manifest write
        legitimately leaves more, or fewer, segments than listed).
        """
        if self._journal is None:
            return None
        segments = self._journal.segments()
        return {
            "format": 2,
            "watermark_events": self._events_applied,
            "watermark_segment": segments[-1]["seq"],
            "segments": segments,
        }

    def _retire_stale_files(self, state_name, delta_name, copy_name):
        """Unlink checkpoint/delta files the manifest no longer names.

        Also collects superseded manifest duplicates and any ``.tmp``
        strays a crashed checkpoint left behind (the journal's own temp
        files are the journal's to clean).
        """
        removed = False
        for name in os.listdir(self._data_dir):
            if name in (state_name, delta_name, copy_name):
                continue
            stale = (
                (name.startswith("state.") and name.endswith(".ckpt"))
                or (name.startswith("graph.") and name.endswith(".delta"))
                or MANIFEST_COPY_RE.match(name) is not None
                or (name.endswith(".tmp")
                    and not name.startswith("journal."))
            )
            if stale:
                os.unlink(os.path.join(self._data_dir, name))
                removed = True
        if removed:
            _fsync_path(self._data_dir)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply_ops(self, ops, *, batch):
        """Run one validated, already-journaled batch through maintenance.

        Everything up to :meth:`_publish` mutates only the private
        next-epoch state (maintainer arrays, graph, edge delta) and
        builds the next snapshot; readers keep answering from the
        published epoch throughout.  The pointer swap is the single
        instant the batch becomes visible.  Inserts use SemiInsert*:
        ``core`` and ``cnt`` are functions of the final graph, so the
        choice never shows in the served state or in a replay.
        """
        # validate=False: the batch was already checked (with overlay
        # semantics) by _validate_ops, so re-validating inside the
        # maintenance kernels would only double the charged reads.
        with span("service.maintain", io=self.io_stats, batch=batch):
            summary = self._maintainer.apply_batch(ops, validate=False)
        endpoints = set()
        for _, u, v in ops:
            endpoints.add(u)
            endpoints.add(v)
        with span("service.snapshot_advance", io=self.io_stats,
                  batch=batch):
            snapshot = self._snapshot.advance(
                self.graph, self._maintainer.cores, epoch=batch,
                events_applied=self._events_applied + len(ops),
                touched=endpoints)
        # Only once every fallible step (maintenance, snapshot reads)
        # is behind us does the in-memory delta move: a failed attempt
        # never needs to untoggle it.
        for op, u, v in ops:
            _toggle_delta(self._edge_delta, op, u, v)
        if self._crash_before_publish is not None:
            self._crash_before_publish()
        with span("service.publish", batch=batch):
            self._publish(snapshot)
        return self._finish_summary(summary)

    def _apply_with_recovery(self, ops, *, batch):
        """Run a journaled batch with rollback, retry and quarantine.

        Storage failures (``OSError`` / :class:`StorageError`) roll the
        live plane back to the pre-batch state and the whole batch is
        retried with exponential backoff (``retry_backoff *
        2**attempt``); logic errors propagate untouched, exactly as
        before.  After ``apply_retries`` retries the batch is
        quarantined via :meth:`_quarantine`.  If even the rollback
        cannot complete, the write plane is *poisoned*: further writes
        raise :class:`ServiceDegradedError` while reads keep serving
        the still-consistent published snapshot.
        """
        pre_cores = array("i", self._maintainer.cores)
        pre_cnt = array("i", self._maintainer.cnt)
        error = None
        for attempt in range(self._apply_retries + 1):
            if attempt:
                time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
                self._m_apply_retry_count += 1
            mark = self.graph.mutations
            try:
                summary = self._apply_ops(ops, batch=batch)
            except (OSError, StorageError) as exc:
                error = exc
                try:
                    self._rollback(ops, self.graph.mutations - mark,
                                   pre_cores, pre_cnt)
                except (OSError, StorageError) as failure:
                    self._poisoned = True
                    self._degraded = ("rollback of batch %d failed: %s"
                                      % (batch, failure))
                    raise ServiceDegradedError(
                        "batch %d failed (%s) and its rollback failed "
                        "too (%s); write plane disabled, reads keep "
                        "serving the pre-batch epoch"
                        % (batch, exc, failure)) from exc
            else:
                self._degraded = None
                return summary
        self._quarantine(ops, batch, error)

    def _rollback(self, ops, applied, pre_cores, pre_cnt):
        """Restore the pre-batch live plane after a failed attempt.

        ``applied`` is how many of the batch's events reached the graph
        (the maintenance kernels apply them in order, each updating the
        graph before any read).  Membership needs no device read:
        validation proved each edge key's *first* event matched the
        pre-batch graph, so a first ``"+"`` means the edge was absent
        and a first ``"-"`` that it was present, and the applied prefix
        says where each key stands now.  Nothing else can have moved --
        ``apply`` is serialized and the maintenance kernels only touch
        the batch's edges.  Retried internally with the same backoff,
        because a repair update can trigger a compaction that hits a
        faulty device; raises the last error when every attempt fails.
        """
        before = {}
        for op, u, v in ops:
            before.setdefault((u, v) if u < v else (v, u), op == "-")
        current = dict(before)
        for op, u, v in ops[:applied]:
            current[(u, v) if u < v else (v, u)] = op == "+"
        error = None
        for attempt in range(self._apply_retries + 1):
            if attempt:
                time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
            try:
                self._restore_pre_batch(before, current, pre_cores,
                                        pre_cnt)
                return
            except (OSError, StorageError) as exc:
                error = exc
        raise error

    def _restore_pre_batch(self, before, current, pre_cores, pre_cnt):
        """One rollback attempt: arrays in place, graph by repair.

        ``before`` and ``current`` map each of the batch's edge keys to
        its pre-batch and present membership; ``current`` follows every
        repair update that reaches the graph, so a retried attempt
        redoes only what is still missing.
        """
        maintainer = self._maintainer
        maintainer.cores[:] = pre_cores
        maintainer.cnt[:] = pre_cnt
        graph = self.graph
        for key, present in before.items():
            if current[key] == present:
                continue
            mark = graph.mutations
            try:
                if present:
                    graph.insert_edge(*key, validate=False)
                else:
                    graph.delete_edge(*key, validate=False)
            finally:
                if graph.mutations != mark:
                    current[key] = present

    def _quarantine(self, ops, batch, error):
        """Mark ``batch`` permanently failed and consume its epoch.

        The journal keeps the batch's events plus a kind-3 marker
        (restart replay skips them); the live plane publishes a no-op
        snapshot (``touched=()`` -- built without any device read) so
        the epoch sequence stays dense and the watermark arithmetic
        unchanged.  A failure to persist the marker is tolerated: the
        batch is then *retried* at the next open instead of skipped,
        which can only improve on quarantine.  Raises
        :class:`BatchQuarantinedError`.
        """
        if self._journal is not None:
            try:
                self._journal.append_quarantine(batch)
            except (OSError, StorageError):
                pass
        snapshot = self._snapshot.advance(
            self.graph, self._maintainer.cores, epoch=batch,
            events_applied=self._events_applied + len(ops), touched=())
        self._publish(snapshot)
        self._quarantined.add(batch)
        self._events_quarantined += len(ops)
        self._degraded = ("batch %d quarantined after %d failed "
                          "attempts: %s"
                          % (batch, self._apply_retries + 1, error))
        raise BatchQuarantinedError(
            "batch %d failed %d attempts and was quarantined (%s); "
            "reads keep serving the pre-batch state"
            % (batch, self._apply_retries + 1, error),
            batch=batch) from error

    def _skip_quarantined(self, batch, ops):
        """Replay-side twin of :meth:`_quarantine`.

        Consumes the epoch of an already-marked batch during restart
        replay without applying its events, keeping the resumed epoch
        sequence identical to the original run's.
        """
        snapshot = self._snapshot.advance(
            self.graph, self._maintainer.cores, epoch=batch,
            events_applied=self._events_applied + len(ops), touched=())
        self._publish(snapshot)
        self._quarantined.add(batch)
        self._events_quarantined += len(ops)

    def _publish(self, snapshot):
        """Atomically swap the read plane to ``snapshot``.

        The swap under the swap lock is the only step readers can
        observe: from then on new pins see the new epoch.  The
        predecessor then retires and drops its buffers (and its memo)
        as soon as the last pinned reader releases.  The memo entries
        ``snapshot`` carried over from it count as published here.
        """
        with self._swap_lock:
            old = self._snapshot
            self._snapshot = snapshot
            self._epoch = snapshot.epoch
            self._events_applied = snapshot.stats["events_applied"]
        with self._counter_lock:
            self._cache_stats.carried += snapshot.carried
            self._cache_stats.patched += snapshot.patched
        old.on_drop = self._note_retired
        old.retire()

    def _note_retired(self, _snapshot):
        with self._counter_lock:
            self._snapshots_retired += 1

    def _finish_summary(self, summary):
        """Annotate a maintainer batch summary with the serving fields."""
        summary["epoch"] = self._epoch
        return summary

    def _normalize_event(self, event):
        try:
            op, u, v = event
        except (TypeError, ValueError):
            raise ReproError(
                "event must be a ('+'/'-', u, v) triple, got %r"
                % (event,)) from None
        if op not in ("+", "-"):
            raise ReproError(
                "event kind must be '+' or '-', got %r" % (op,))
        return (op, self._check_int(u, "endpoint"),
                self._check_int(v, "endpoint"))

    def _validate_ops(self, ops):
        """Check a batch is applicable *before* it reaches the journal.

        Events within the batch interact (an insert may precede the
        deletion of the same edge), so applicability is simulated with
        an overlay on top of the current graph.  A batch that fails here
        is rejected wholesale -- nothing is journaled or applied.
        """
        graph = self.graph
        n = graph.num_nodes
        overlay = {}
        for op, u, v in ops:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(
                    "edge (%d, %d) out of range for n=%d" % (u, v, n))
            if u == v:
                raise GraphError("self loop (%d, %d) not allowed" % (u, v))
            key = (u, v) if u < v else (v, u)
            present = overlay.get(key)
            if present is None:
                present = graph.has_edge(u, v)
            if op == "+":
                if present:
                    raise EdgeExistsError(
                        "edge (%d, %d) already present" % (u, v))
            else:
                if not present:
                    raise EdgeNotFoundError(
                        "edge (%d, %d) not present" % (u, v))
            overlay[key] = op == "+"

    @staticmethod
    def _check_int(value, name):
        """``value`` as a plain int; bools, floats and strings raise."""
        if not isinstance(value, bool):
            try:
                return operator.index(value)
            except TypeError:
                pass
        raise TypeError("%s must be an integer, got %r" % (name, value))

    @classmethod
    def _check_node(cls, v, n):
        v = cls._check_int(v, "node")
        if not 0 <= v < n:
            raise GraphError(
                "node %d out of range for n=%d" % (v, n))
        return v

    @classmethod
    def _check_k(cls, k):
        k = cls._check_int(k, "k")
        if k < 0:
            raise ValueError("k must be non-negative")
        return k

    def __repr__(self):
        return ("CoreService(n=%d, epoch=%d, events=%d, queries=%d, "
                "cache_hit_rate=%.2f)"
                % (self.graph.num_nodes, self._epoch, self._events_applied,
                   self._queries_served, self._cache_stats.hit_rate))


def _toggle_delta(delta, op, u, v):
    """Fold one applied event into the net delta against the seed.

    Batch validation guarantees events alternate presence correctly,
    so an event either introduces a difference from the seed tables
    (new entry) or reverts a previous one (entry removed) -- the delta
    is always the *net* divergence, never a history.
    """
    key = (u, v) if u < v else (v, u)
    if key in delta:
        del delta[key]
    else:
        delta[key] = op


def _write_delta_file(path, delta):
    """Serialize a net edge delta, deterministically, CRC-protected."""
    body = b"".join(_DELTA_RECORD.pack(_DELTA_OPS[op], u, v)
                    for (u, v), op in sorted(delta.items()))
    with open(path, "wb") as handle:
        handle.write(_DELTA_HEADER.pack(_DELTA_MAGIC, _DELTA_VERSION,
                                        len(delta)))
        handle.write(body)
        handle.write(_DELTA_CRC.pack(zlib.crc32(body) & 0xFFFFFFFF))


def read_delta_file(path):
    """Load a net edge delta written by :func:`_write_delta_file`."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise CorruptStorageError(
            "manifest names a missing delta file %s" % path,
            path=path) from None
    if len(blob) < _DELTA_HEADER.size + _DELTA_CRC.size:
        raise CorruptStorageError("delta file %s is truncated" % path,
                                  path=path)
    magic, version, count = _DELTA_HEADER.unpack(
        blob[:_DELTA_HEADER.size])
    if magic != _DELTA_MAGIC:
        raise CorruptStorageError(
            "delta file %s: bad magic %r" % (path, magic), path=path)
    if version != _DELTA_VERSION:
        raise CorruptStorageError(
            "delta file %s: unsupported version %d" % (path, version),
            path=path)
    body = blob[_DELTA_HEADER.size:-_DELTA_CRC.size]
    if len(body) != count * _DELTA_RECORD.size:
        raise CorruptStorageError(
            "delta file %s holds %d bytes for %d records"
            % (path, len(body), count), path=path)
    if _DELTA_CRC.unpack(blob[-_DELTA_CRC.size:])[0] != \
            zlib.crc32(body) & 0xFFFFFFFF:
        raise CorruptStorageError(
            "delta file %s fails its checksum" % path, path=path)
    delta = {}
    for index in range(count):
        kind, u, v = _DELTA_RECORD.unpack_from(
            body, index * _DELTA_RECORD.size)
        if kind not in _DELTA_KINDS:
            raise CorruptStorageError(
                "delta file %s: record %d has kind %d"
                % (path, index, kind), path=path)
        delta[(u, v)] = _DELTA_KINDS[kind]
    return delta


def _compute_cnt_scan(graph, cores):
    """Eq. 2 counters for arbitrary seed algorithms, in one scan.

    SemiCore* hands its ``cnt`` array over directly; the other seeding
    algorithms only produce ``core[]``, so the counters are derived with
    a single sequential adjacency scan (I/O-counted like any scan).
    """
    from repro.core.locality import compute_cnt

    cnt = array("i", bytes(4 * graph.num_nodes))
    for v, nbrs in graph.iter_adjacency():
        cnt[v] = compute_cnt(cores, nbrs, cores[v])
    return cnt
