"""Per-layer attribution for the traced benchmark window.

The traced window measures each layer from outside: :class:`LayerTracing`
wraps the layers' public functions and methods in ``repro.obs.trace``
spans for the duration of the window, so the program's own spans
(``sharded.*``, ``service.*``) and the wrapper spans land in one tracer
and nest into one tree.  Nothing under ``src/`` is modified.

A span's *self time* is its duration minus the time its child spans
cover.  Opening and closing a child span costs a few microseconds that
fall outside the child's own interval, i.e. inside its parent; with a
million storage reads per decomposition that cost would swamp the
parent's real work.  Each wrapper therefore times itself around its
span and moves the difference off the parent onto an explicit
``trace.overhead_s`` row.

:data:`ROW_OF_SPAN` assigns every span name the benchmark knows to one
layer row.  Rows, the overhead row and the time spent outside any span
add up to the traced wall time.  A span name missing from the map (say,
a span added to the program later) is not silently dropped: its self
time is missing from every row, so the sum check of the smoke test
fails until the map names it.
"""

from __future__ import annotations

import functools
import os
import time

from repro.core.maintenance.maintainer import CoreMaintainer
from repro.core.sharded import PersistentShardExecutor
from repro.obs.trace import disable_tracing, enable_tracing, span
from repro.storage.blockio import BlockDevice
from repro.storage.csr import CSRGraph
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage
from repro.storage.shards import ShardedGraphStorage

#: ``(owner, attribute, span name)`` of every wrapped layer entry point.
#: ``CSRGraph.from_storage`` is reached only through ``from_graph``, so
#: wrapping ``from_graph`` covers it without nesting two build spans.
ENTRY_POINTS = (
    (BlockDevice, "read_at", "storage.read_at"),
    (BlockDevice, "write_at", "storage.write_at"),
    (GraphStorage, "neighbors", "storage.neighbors"),
    (GraphStorage, "read_degrees", "storage.read_degrees"),
    (DynamicGraph, "neighbors", "storage.neighbors"),
    (CSRGraph, "from_rows", "csr.build"),
    (CSRGraph, "from_graph", "csr.build"),
    (ShardedGraphStorage, "from_storage", "sharded.build"),
    (PersistentShardExecutor, "run", "sharded.executor_run"),
    (CoreMaintainer, "apply_batch", "maintenance.apply_batch"),
)

#: Layer row charged with each span's self time.  ``op.*`` and
#: ``read.*`` spans are opened by the workloads around their own calls.
ROW_OF_SPAN = {
    "storage.read_at": "storage.read_s",
    "storage.write_at": "storage.write_s",
    "storage.neighbors": "storage.point_read_s",
    "storage.read_degrees": "storage.point_read_s",
    "csr.build": "csr.build_s",
    "op.decompose": "engines.self_s",
    "sharded.build": "sharded.build_s",
    "sharded.executor_run": "sharded.executor_run_s",
    "sharded.gather": "sharded.gather_s",
    "sharded.scatter": "sharded.scatter_s",
    "sharded.round": "sharded.driver_self_s",
    "op.sharded": "sharded.driver_self_s",
    "maintenance.apply_batch": "maintenance.self_s",
    "service.maintain": "maintenance.self_s",
    "service.journal_append": "journal.append_s",
    "service.checkpoint": "journal.checkpoint_s",
    "service.snapshot_advance": "snapshot.advance_s",
    "service.publish": "snapshot.publish_s",
    "service.validate": "apply.validate_s",
    "service.apply": "apply.self_s",
    "op.apply": "apply.self_s",
}

#: Every self-time row, in print order (``read.*`` spans map by prefix).
ROWS = (
    "storage.read_s", "storage.write_s", "storage.point_read_s",
    "csr.build_s", "engines.self_s",
    "sharded.build_s", "sharded.executor_run_s", "sharded.gather_s",
    "sharded.scatter_s", "sharded.driver_self_s",
    "maintenance.self_s", "journal.append_s", "journal.checkpoint_s",
    "snapshot.advance_s", "snapshot.publish_s",
    "apply.validate_s", "apply.self_s", "read.self_s",
)

def row_of(name):
    """The layer row of a span name, or None when the map lacks it."""
    if name.startswith("read."):
        return "read.self_s"
    return ROW_OF_SPAN.get(name)


class SpanTotals:
    """Per-name span counts, total and self seconds, in constant memory.

    Stands in for :attr:`repro.obs.trace.Tracer.records`: the tracer
    appends every finished span record to it, and children always finish
    before their parent, so a parent's covered time is known when its own
    record arrives.
    """

    def __init__(self):
        self.count = {}
        self.total = {}
        self.self_seconds = {}
        #: Seconds covered by spans without a parent (the traced tree roots).
        self.root_seconds = 0.0
        self.overhead_seconds = 0.0
        self.spans = 0
        self._covered = {}
        self._last = None

    def append(self, record):
        name = record["name"]
        seconds = record["seconds"]
        covered = self._covered.pop(record["span_id"], 0.0)
        self.count[name] = self.count.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + seconds
        self.self_seconds[name] = \
            self.self_seconds.get(name, 0.0) + seconds - covered
        parent = record["parent_id"]
        if parent is None:
            self.root_seconds += seconds
        else:
            self._covered[parent] = self._covered.get(parent, 0.0) + seconds
        self.spans += 1
        self._last = record

    def charge_overhead(self, wrapped_seconds):
        """Move the cost of tracing the span that just finished, measured
        as ``wrapped_seconds`` minus its own duration, off its parent."""
        record = self._last
        parent = record["parent_id"]
        if parent is None:
            return
        cost = wrapped_seconds - record["seconds"]
        self._covered[parent] = self._covered.get(parent, 0.0) + cost
        self.overhead_seconds += cost

    def rows(self):
        """``{row: self seconds}`` over every mapped span name."""
        rows = dict.fromkeys(ROWS, 0.0)
        for name, seconds in self.self_seconds.items():
            row = row_of(name)
            if row is not None:
                rows[row] += seconds
        return rows


def _traced(function, name, totals):
    pid = os.getpid()

    @functools.wraps(function)
    def traced(*args, **kwargs):
        # Forked pool workers inherit the wrappers, but their spans never
        # reach the parent's totals; they only pay for them.
        if os.getpid() != pid:
            return function(*args, **kwargs)
        started = time.perf_counter()
        try:
            with span(name):
                return function(*args, **kwargs)
        finally:
            totals.charge_overhead(time.perf_counter() - started)
    return traced


class LayerTracing:
    """Context manager: tracer on, entry points wrapped, totals collected.

    On exit the original attributes are restored and the tracer removed,
    even when the window raised.  ``totals`` holds the folded spans.
    """

    def __init__(self):
        self.totals = SpanTotals()
        self._tracer = None
        self._saved = []

    def __enter__(self):
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    _traced(original.__func__, name, self.totals))
            else:
                replacement = _traced(original, name, self.totals)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        self._tracer = enable_tracing(keep=1)
        self._tracer.records = self.totals
        return self

    def __exit__(self, exc_type, exc, tb):
        disable_tracing()
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []
        if exc_type is None and \
                self._tracer.spans_recorded != self.totals.spans:
            raise RuntimeError(
                "tracer recorded %d spans but %d reached the totals; the "
                "tracer no longer appends finished spans to its records"
                % (self._tracer.spans_recorded, self.totals.spans))
        return False
