"""Phase-attributed tracing: nested spans with I/O deltas.

The I/O model charges every algorithm per *pass* -- so the unit of
attribution worth tracing is the pass, the exchange round, the apply
stage, not the individual block read.  A span marks one such phase::

    from repro.obs.trace import span

    with span("semicore.pass", io=graph.io_stats, iteration=3):
        ...  # one sequential sweep

When tracing is **disabled** (the default) ``span()`` returns a shared
no-op object: the cost is one global read and an empty ``with`` block,
which is what keeps the overhead budget (<= 5% plus 0.05 s on the fig3
workload, asserted by ``benchmarks/bench_fig3_convergence.py``)
trivially met.
Tracing never mutates anything the algorithms read, so cores, traces and
``IOStats`` block counts are bit-identical with tracing on or off
(asserted by ``tests/test_obs_trace.py``).

When tracing is **enabled** (:func:`enable_tracing`) each span records:

* wall-clock ``seconds`` (``time.perf_counter`` bracket);
* the delta of the attached :class:`~repro.storage.blockio.IOStats`
  between enter and exit (``read_ios``/``write_ios``/``bytes_read``/
  ``bytes_written``) -- attribution of block I/O to exactly this phase;
* nesting: a per-thread stack gives every span a ``parent_id`` and
  ``depth``, so a ``service.apply`` span contains its
  ``service.maintain`` / ``service.publish`` children;
* free-form attributes (``shard=3``, ``algorithm="SemiCore*"``, ...).

Finished spans go to an in-memory ring (:attr:`Tracer.records`) and,
when a sink is attached, as one structured JSONL line per span.  With a
registry attached every span also feeds the
``repro_span_seconds{name=...}`` histogram, bridging traces into the
/metrics exposition.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "span",
    "tracing_enabled",
]

_tracer = None
_tls = threading.local()


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def annotate(self, **attrs):
        """No-op (mirrors :meth:`Span.annotate`)."""


_NULL_SPAN = _NullSpan()


class Span:
    """One live phase measurement; use as a context manager."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "_tracer", "_io", "_io_before", "_started")

    def __init__(self, tracer, name, io=None, attrs=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self._tracer = tracer
        self._io = io
        self._io_before = None
        self._started = None
        self.span_id = None
        self.parent_id = None
        self.depth = 0

    def annotate(self, **attrs):
        """Attach attributes discovered mid-phase (e.g. changed counts)."""
        self.attrs.update(attrs)

    def __enter__(self):
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        self.span_id = self._tracer._next_id()
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        if self._io is not None:
            self._io_before = self._io.snapshot()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        seconds = time.perf_counter() - self._started
        stack = getattr(_tls, "stack", ())
        if stack and stack[-1] is self:
            stack.pop()
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "seconds": seconds,
        }
        if self._io is not None:
            delta = self._io.delta_since(self._io_before)
            record["read_ios"] = delta.read_ios
            record["write_ios"] = delta.write_ios
            record["bytes_read"] = delta.bytes_read
            record["bytes_written"] = delta.bytes_written
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._tracer._record(record)
        return False


class Tracer:
    """Collects finished spans; owns the sink and the span-id sequence."""

    def __init__(self, sink=None, *, keep=4096, registry=None):
        #: Most recent ``keep`` finished span records (dicts).
        self.records = deque(maxlen=keep)
        self.spans_recorded = 0
        self._sink = sink
        self._own_sink = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._span_seconds = None
        if registry is not None:
            self.bind_registry(registry)

    @classmethod
    def to_path(cls, path, **kwargs):
        """A tracer writing JSONL to ``path`` (closed with the tracer)."""
        tracer = cls(open(path, "w", encoding="utf-8"), **kwargs)
        tracer._own_sink = True
        return tracer

    def bind_registry(self, registry):
        """Feed every span's duration into ``repro_span_seconds{name=}``."""
        self._span_seconds = registry.histogram(
            "repro_span_seconds",
            "Wall-clock seconds of traced phases, by span name.",
            labelnames=("name",))
        return self

    def span(self, name, io=None, **attrs):
        """A live :class:`Span`; use ``with tracer.span(...)``."""
        return Span(self, name, io=io, attrs=attrs)

    def _next_id(self):
        with self._lock:
            return next(self._ids)

    def _record(self, record):
        line = None
        if self._sink is not None:
            line = json.dumps(record, sort_keys=True,
                              separators=(",", ":"))
        with self._lock:
            self.records.append(record)
            self.spans_recorded += 1
            if line is not None:
                self._sink.write(line + "\n")
        if self._span_seconds is not None:
            self._span_seconds.labels(name=record["name"]).observe(
                record["seconds"])

    def flush(self):
        """Flush the sink (no-op without one)."""
        with self._lock:
            if self._sink is not None and hasattr(self._sink, "flush"):
                self._sink.flush()

    def close(self):
        """Flush, and close the sink if the tracer opened it."""
        self.flush()
        with self._lock:
            if self._own_sink and self._sink is not None:
                self._sink.close()
                self._sink = None


def enable_tracing(sink=None, *, path=None, keep=4096, registry=None):
    """Install a process-wide tracer; returns it.

    ``sink`` is any object with ``write`` (JSONL, one line per span);
    ``path`` opens a file sink owned by the tracer.  With neither,
    spans only land in the in-memory ring.  Nesting state is
    per-thread, so threaded readers trace independently.
    """
    global _tracer
    if sink is not None and path is not None:
        raise ValueError("pass sink or path, not both")
    if path is not None:
        tracer = Tracer.to_path(path, keep=keep, registry=registry)
    else:
        tracer = Tracer(sink, keep=keep, registry=registry)
    _tracer = tracer
    return tracer


def disable_tracing():
    """Uninstall (and close) the process-wide tracer, if any."""
    global _tracer
    tracer, _tracer = _tracer, None
    if tracer is not None:
        tracer.close()
    return tracer


def current_tracer():
    """The installed tracer, or None while tracing is disabled."""
    return _tracer


def tracing_enabled():
    """Whether a process-wide tracer is installed."""
    return _tracer is not None


def span(name, io=None, **attrs):
    """A span under the installed tracer, or the shared no-op span.

    This is the only call sites pay while tracing is off: one module
    global read and the return of a shared object.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, io=io, **attrs)
