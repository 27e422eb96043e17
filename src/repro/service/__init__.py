"""The core-index serving subsystem.

Everything needed to *keep* a decomposition rather than just compute it:

* :class:`~repro.service.core_service.CoreService` -- lifecycle, read
  queries, batched updates, checkpointed restarts;
* :class:`~repro.service.snapshot.EpochSnapshot` /
  :class:`~repro.service.snapshot.SnapshotView` -- the immutable
  per-epoch read plane with refcounted retirement (snapshot-isolated
  concurrent serving); every read answer is a function of one
  snapshot's coreness layout and rows, and
  :class:`~repro.service.snapshot.CacheStats` counts the probes of its
  ``subgraph`` memo;
* :class:`~repro.service.journal.EventJournal` -- the segmented
  write-ahead journal restarts replay from (checkpoint-anchored
  rotation + compaction keep its replay prefix bounded);
* :func:`~repro.service.scrub.scrub_directory` -- offline verification
  and repair of a data directory (``repro scrub``);
* :mod:`~repro.service.workload` -- deterministic zipfian workloads for
  benchmarks and examples.
"""

from repro.service.core_service import CoreService
from repro.service.journal import (
    DEFAULT_SEGMENT_EVENTS,
    EventJournal,
)
from repro.service.scrub import scrub_directory
from repro.service.snapshot import CacheStats, EpochSnapshot, SnapshotView
from repro.service.workload import (
    ZipfianSampler,
    execute_query,
    generate_queries,
    generate_updates,
    in_batches,
    run_concurrent_workload,
    run_mixed_workload,
    run_queries,
    verify_epoch_coherence,
)

__all__ = [
    "CoreService",
    "EpochSnapshot",
    "SnapshotView",
    "CacheStats",
    "EventJournal",
    "DEFAULT_SEGMENT_EVENTS",
    "scrub_directory",
    "ZipfianSampler",
    "generate_queries",
    "generate_updates",
    "in_batches",
    "execute_query",
    "run_queries",
    "run_mixed_workload",
    "run_concurrent_workload",
    "verify_epoch_coherence",
]
