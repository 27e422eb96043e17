"""Semi-external k-core decomposition and maintenance at web scale.

This package reproduces "I/O Efficient Core Graph Decomposition at Web
Scale" (Wen, Qin, Zhang, Lin, Yu -- ICDE 2016).  The public API exposes:

* the on-disk graph substrate (:class:`~repro.storage.GraphStorage`,
  :class:`~repro.storage.DynamicGraph`, :class:`~repro.storage.MemoryGraph`),
* the decomposition algorithms (:func:`im_core`, :func:`em_core`,
  :func:`semi_core`, :func:`semi_core_plus`, :func:`semi_core_star`,
  :func:`distributed_core`, and the sharded driver
  :func:`sharded_semi_core_star` over
  :class:`~repro.storage.ShardedGraphStorage`),
* the maintenance API (:class:`~repro.core.CoreMaintainer`),
* the serving layer (:class:`~repro.service.CoreService` -- cached
  queries, journaled update batches, checkpointed restarts),
* k-core queries (:func:`k_core_nodes`, :func:`degeneracy`), and
* the synthetic dataset registry (:func:`~repro.datasets.load_dataset`),
* and the telemetry plane (:class:`~repro.obs.MetricsRegistry`,
  :func:`~repro.obs.enable_tracing`, :class:`~repro.obs.MetricsServer`
  -- metrics, phase-attributed spans, Prometheus exposition).

Quickstart::

    import repro

    storage = repro.GraphStorage.from_edges([(0, 1), (1, 2), (0, 2)])
    result = repro.semi_core_star(storage)
    print(result.cores, result.io.read_ios)
"""

from repro._version import __version__
from repro.errors import (
    CorruptStorageError,
    EdgeExistsError,
    EdgeNotFoundError,
    ReproError,
    StorageError,
)
from repro.storage import (
    DynamicGraph,
    FileBlockDevice,
    GraphStorage,
    IOStats,
    MemoryBlockDevice,
    MemoryGraph,
    ShardedGraphStorage,
)
from repro.core import (
    CoreMaintainer,
    DecompositionResult,
    MaintenanceResult,
    core_histogram,
    degeneracy,
    distributed_core,
    em_core,
    im_core,
    k_core_nodes,
    k_core_subgraph,
    local_core,
    semi_core,
    semi_core_plus,
    semi_core_star,
    sharded_semi_core_star,
)
from repro.datasets import load_dataset
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    disable_tracing,
    enable_tracing,
    span,
)
from repro.service import CoreService, EventJournal

__all__ = [
    "__version__",
    "ReproError",
    "StorageError",
    "CorruptStorageError",
    "EdgeExistsError",
    "EdgeNotFoundError",
    "IOStats",
    "MemoryBlockDevice",
    "FileBlockDevice",
    "GraphStorage",
    "DynamicGraph",
    "MemoryGraph",
    "ShardedGraphStorage",
    "DecompositionResult",
    "MaintenanceResult",
    "im_core",
    "em_core",
    "distributed_core",
    "semi_core",
    "semi_core_plus",
    "semi_core_star",
    "sharded_semi_core_star",
    "local_core",
    "CoreMaintainer",
    "k_core_nodes",
    "k_core_subgraph",
    "core_histogram",
    "degeneracy",
    "load_dataset",
    "CoreService",
    "EventJournal",
    "MetricsRegistry",
    "MetricsServer",
    "enable_tracing",
    "disable_tracing",
    "span",
]
