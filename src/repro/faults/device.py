"""Fault-injecting block device wrapper.

:class:`FaultInjectingBlockDevice` composes over any object with the
:class:`~repro.storage.blockio.BlockDevice` surface and consults a
:class:`~repro.faults.plan.FaultPlan` before every ``read_at`` /
``write_at`` / ``append``, and before every span of a ``read_spans``
(the ``read_at`` calls it stands for).  It is a duck-typed proxy, not a
``BlockDevice`` subclass: the inner device keeps doing all the real
I/O, caching and stats counting, so wrapping never double-counts block
transfers and production code cannot tell the difference until a fault
fires.

Fault semantics:

* ``read-error`` / ``write-error`` -- the operation raises
  :class:`~repro.faults.plan.InjectedReadError` /
  :class:`~repro.faults.plan.InjectedWriteError` *before* touching the
  inner device (the data is untouched; transient faults succeed on
  retry).
* ``torn-write`` -- a strict prefix of the payload reaches the inner
  device, then :class:`~repro.faults.plan.TornWriteError` simulates
  the crash.  What was written stays written, as on a real power cut.
* ``bit-flip`` -- the payload is silently corrupted (one bit flipped)
  before being written; no error is raised.  This is the fault CRCs
  exist to catch.
* ``latency`` -- the read is delayed by ``spec.arg`` seconds, then
  served normally.
"""

from __future__ import annotations

import time

import numpy as np

from repro.faults.plan import (
    BIT_FLIP,
    LATENCY,
    READ_ERROR,
    TORN_WRITE,
    WRITE_ERROR,
    InjectedReadError,
    InjectedWriteError,
    TornWriteError,
)


class FaultInjectingBlockDevice:
    """Proxy a block device, injecting the plan's scheduled faults."""

    def __init__(self, inner, plan, target):
        self._inner = inner
        self._plan = plan
        self._target = target

    # -- identity -----------------------------------------------------------
    @property
    def inner(self):
        """The wrapped device."""
        return self._inner

    @property
    def target(self):
        """The plan target label this wrapper reports as."""
        return self._target

    # -- faulted operations -------------------------------------------------
    def read_at(self, offset, size):
        self._before_read(offset, size)
        return self._inner.read_at(offset, size)

    def read_spans(self, starts, counts, dtype, *, charge=True):
        itemsize = np.dtype(dtype).itemsize
        for offset, count in zip(np.asarray(starts).tolist(),
                                 np.asarray(counts).tolist()):
            if count:
                self._before_read(offset, count * itemsize)
        return self._inner.read_spans(starts, counts, dtype, charge=charge)

    def _before_read(self, offset, size):
        spec = self._plan.next_fault(self._target, "read")
        if spec is not None:
            if spec.kind == READ_ERROR:
                raise InjectedReadError(
                    "injected read error on %s at offset %d (size %d)"
                    % (self._target, offset, size))
            if spec.kind == LATENCY and spec.arg:
                time.sleep(spec.arg)

    def write_at(self, offset, data):
        data = bytes(data)
        spec = self._plan.next_fault(self._target, "write")
        if spec is None:
            return self._inner.write_at(offset, data)
        if spec.kind == WRITE_ERROR:
            raise InjectedWriteError(
                "injected write error on %s at offset %d (size %d)"
                % (self._target, offset, len(data)))
        if spec.kind == TORN_WRITE:
            keep = self._torn_prefix(len(data), spec)
            if keep:
                self._inner.write_at(offset, data[:keep])
            raise TornWriteError(
                "injected torn write on %s at offset %d: %d of %d bytes "
                "persisted" % (self._target, offset, keep, len(data)))
        if spec.kind == BIT_FLIP and data:
            data = self._flipped(data, spec)
        return self._inner.write_at(offset, data)

    def append(self, data):
        data = bytes(data)
        spec = self._plan.next_fault(self._target, "write")
        if spec is None:
            return self._inner.append(data)
        if spec.kind == WRITE_ERROR:
            raise InjectedWriteError(
                "injected write error on %s append (size %d)"
                % (self._target, len(data)))
        if spec.kind == TORN_WRITE:
            keep = self._torn_prefix(len(data), spec)
            offset = self._inner.size
            if keep:
                self._inner.append(data[:keep])
            raise TornWriteError(
                "injected torn append on %s at offset %d: %d of %d bytes "
                "persisted" % (self._target, offset, keep, len(data)))
        if spec.kind == BIT_FLIP and data:
            data = self._flipped(data, spec)
        return self._inner.append(data)

    def _torn_prefix(self, length, spec):
        if length <= 1:
            return 0
        if spec.arg is not None:
            return max(0, min(length - 1, int(length * spec.arg)))
        return self._plan.rng().randrange(length)

    def _flipped(self, data, spec):
        if spec.arg is not None:
            pos = max(0, min(len(data) - 1, int(len(data) * spec.arg)))
            bit = 0
        else:
            rng = self._plan.rng()
            pos = rng.randrange(len(data))
            bit = rng.randrange(8)
        out = bytearray(data)
        out[pos] ^= 1 << bit
        return bytes(out)

    # -- clean delegation ---------------------------------------------------
    @property
    def size(self):
        return self._inner.size

    @property
    def block_size(self):
        return self._inner.block_size

    @property
    def stats(self):
        return self._inner.stats

    @property
    def closed(self):
        return self._inner.closed

    def drop_cache(self):
        self._inner.drop_cache()

    def close(self):
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return "FaultInjectingBlockDevice(%r, target=%r)" % (
            self._inner, self._target)


def wrap(plan, device, target):
    """Wrap ``device`` so ``plan`` can aim faults at ``target``."""
    return FaultInjectingBlockDevice(device, plan, target)
