"""Segmented write-ahead journal of edge update events.

:class:`CoreService` journals every accepted batch *before* applying it
to the maintained index, so a crash between the append and the
in-memory state transition loses nothing: on restart the tail of the
journal is replayed on top of the last checkpoint
(``service/core_service.py``).

Segmentation
------------
The journal is a *directory* of segment files::

    journal.000001.log   sealed   events [0, 1024)
    journal.000002.log   sealed   events [1024, 1536)
    journal.000003.log   active   events [1536, ...)

Records append to the highest-numbered segment (the *active* one).
:meth:`rotate` seals the active segment by creating the next one --
sealing is purely logical: a segment is sealed iff a higher-numbered
segment exists, so there is no seal marker whose write could itself be
torn.  Rotation happens on every :meth:`CoreService.checkpoint` and
whenever the active segment reaches ``segment_events`` events.

Every segment header records the segment's *base offset*: the number of
events journaled before it across the whole history.  Offsets are
therefore global and survive :meth:`compact`, which unlinks sealed
segments whose events are all covered by the durable checkpoint --
the on-disk replay prefix stays bounded by the checkpoint interval
instead of growing with the lifetime of the service.  Event history is
*not* retained in memory: reads stream from the segment files
(:meth:`iter_events` / :meth:`iter_batches`).

Durability model
----------------
* A record is 21 bytes: a kind byte, two 32-bit fields, the 64-bit id
  of the batch it belongs to, and a CRC32 of those fields.  Each
  :meth:`append` writes one *batch header* record (kind 2, carrying the
  event count) followed by the event records (kind 0 insert / 1
  delete), all in a single ``write`` + ``flush`` + ``fsync``.
* Batches are the unit of crash-atomicity.  A torn append -- a partial
  trailing record, or a batch header followed by fewer event records
  than it announces -- is the signature of a crash mid-append: the
  whole unacknowledged batch is silently discarded on open and
  overwritten by the next append.  Only the *active* segment can
  legitimately have a torn tail; appends never touch sealed segments,
  so a short read there is corruption and refuses to open.
* A complete record whose CRC does not match is treated as
  *corruption*, not an interrupted write, and replaying past it could
  desynchronize the index from the graph:
  :class:`~repro.errors.CorruptStorageError` is raised instead.  This
  is a deliberate trade-off: a filesystem that extends the file before
  the data blocks land could, after a crash, present a full-size
  garbage record that this policy refuses to auto-truncate -- but
  silently discarding CRC failures would also discard *actual*
  corruption, and the service's source of truth (graph tables +
  checkpoint) makes a rejected journal recoverable by reseeding,
  whereas replaying a wrong event is not.  An existing but empty
  active segment (crash between create and header write) is
  unambiguous and is re-initialized in place.
* New segments are created via write-to-temp + ``fsync`` + atomic
  rename + directory ``fsync``: a segment file either exists with a
  complete header or not at all.  Compaction unlinks oldest-first, so
  a crash mid-compaction leaves a contiguous suffix of segments;
  fully-covered stragglers are retired by the next checkpoint.

The journal counts none of its own bytes against the graph's
:class:`~repro.storage.blockio.IOStats`: it is service durability
plumbing, not part of the paper's external-memory cost model.
"""

from __future__ import annotations

import os
import re
import struct
import zlib

from repro.errors import CorruptStorageError

_SEGMENT_MAGIC = b"RPRJRNL2"
_SEGMENT_VERSION = 2
#: magic, version, pad, sequence number, base event offset.
_SEGMENT_HEADER = struct.Struct("<8sI4xQQ")
_HEADER_SIZE = _SEGMENT_HEADER.size

_PAYLOAD = struct.Struct("<BIIQ")
_CRC = struct.Struct("<I")

RECORD_SIZE = _PAYLOAD.size + _CRC.size

#: 6 digits zero-padded, but sequences outlive the padding: match more.
_SEGMENT_RE = re.compile(r"^journal\.(\d{6,})\.log$")

#: Events an active segment may hold before an append auto-rotates it
#: (rotation also happens on every checkpoint).  ``None`` disables the
#: size trigger.
DEFAULT_SEGMENT_EVENTS = 4096

#: Event kind byte <-> the public "+" / "-" operation codes.
_KIND_TO_OP = {0: "+", 1: "-"}
_OP_TO_KIND = {"+": 0, "-": 1}
#: Kind byte of the per-batch header record (u = event count, v unused).
_KIND_BATCH = 2
#: Kind byte of a standalone quarantine marker: the named batch failed
#: maintenance after every retry and replay must skip its events (while
#: still accounting for them -- the batch consumed an epoch).
_KIND_QUARANTINE = 3


def segment_name(seq):
    """File name of segment ``seq`` (``journal.000017.log``)."""
    return "journal.%06d.log" % seq


def _pack_record(kind, u, v, batch):
    payload = _PAYLOAD.pack(kind, u, v, batch)
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def list_segments(directory):
    """Segment files under ``directory`` as ``(seq, path)``, oldest
    first."""
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return sorted(found)


def scan_segment(path, seq):
    """Read-only, streaming scan of one journal file.

    Verifies the header and every record checksum in a single pass and
    returns a dict:

    * ``name``, ``path``, ``seq`` -- the file scanned;
    * ``base`` -- the header's base event offset; None when the file
      is empty or its header is damaged;
    * ``events`` -- the number of events in complete batches;
    * ``good_pos`` -- the byte offset one past the last complete batch,
      i.e. the truncation point; 0 when the header itself is damaged;
    * ``size`` -- the file size in bytes;
    * ``quarantined`` -- batch ids named by quarantine markers;
    * ``damage`` -- None, or ``{"problem", "offset", "torn"}`` for the
      first bytes that are not a valid journal, where ``torn`` marks a
      short read at the end of the file: the crash-mid-append
      signature.

    The scan decides nothing: :class:`EventJournal` and ``repro scrub``
    each apply their own policy to the result.
    """
    scan = {"name": os.path.basename(path), "path": path, "seq": seq,
            "base": None, "events": 0, "good_pos": 0, "size": 0,
            "quarantined": [], "damage": None}
    with open(path, "rb") as handle:
        size = scan["size"] = handle.seek(0, os.SEEK_END)
        if size == 0:
            # Crash between create and header write.
            return scan
        handle.seek(0)
        try:
            scan["base"] = _read_header(handle, seq)
            pos = scan["good_pos"] = _HEADER_SIZE
            while pos < size:
                kind, count, batch = _read_batch_header(handle, pos)
                pos += RECORD_SIZE
                if kind == _KIND_QUARANTINE:
                    # Standalone marker: no event body, no offset moved.
                    scan["quarantined"].append(batch)
                else:
                    # Read for its checks only: every record's CRC, kind
                    # and batch id.
                    _read_batch_body(handle, pos, batch, count)
                    scan["events"] += count
                    pos += RECORD_SIZE * count
                scan["good_pos"] = pos
        except _Damage as damage:
            scan["damage"] = {"problem": damage.problem,
                              "offset": damage.offset, "torn": damage.torn}
    return scan


def write_segment_header(handle, seq, base):
    """Make the file behind ``handle`` an empty segment: write the
    header of segment ``seq`` starting at event ``base``, drop
    everything after it, and fsync."""
    handle.seek(0)
    handle.write(_SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _SEGMENT_VERSION,
                                      seq, base))
    handle.truncate()
    handle.flush()
    os.fsync(handle.fileno())


class _Damage(Exception):
    """Where and how a journal file stops being valid (a scan result)."""

    def __init__(self, problem, offset, torn=False):
        super().__init__(problem)
        self.problem = problem
        self.offset = offset
        self.torn = torn


def _read_header(handle, seq):
    """Validate the header at the start of ``handle``; returns the base
    event offset.  A short header is marked torn so scrub can rebuild
    an active segment's; ``open()`` refuses any damaged header, since
    the header is written atomically with the file's creation."""
    header = handle.read(_HEADER_SIZE)
    if len(header) < _HEADER_SIZE:
        raise _Damage("header truncated", 0, torn=True)
    magic, version, header_seq, base = _SEGMENT_HEADER.unpack(header)
    if magic != _SEGMENT_MAGIC:
        raise _Damage("bad magic %r" % (magic,), 0)
    if version != _SEGMENT_VERSION:
        raise _Damage("unsupported version %d" % version, 0)
    if header_seq != seq:
        raise _Damage("header claims sequence %d" % header_seq, 0)
    return base


def _record_at(pos):
    return "record %d at byte offset %d" % (
        (pos - _HEADER_SIZE) // RECORD_SIZE, pos)


def _read_record(handle, pos):
    """The record at byte ``pos`` (where ``handle`` stands) as
    ``(kind, u, v, batch)``; None at a short read."""
    record = handle.read(RECORD_SIZE)
    if len(record) < RECORD_SIZE:
        return None
    payload = record[:_PAYLOAD.size]
    if _CRC.unpack_from(record, _PAYLOAD.size)[0] \
            != zlib.crc32(payload) & 0xFFFFFFFF:
        raise _Damage("%s fails its checksum (corrupted tail)"
                      % _record_at(pos), pos)
    return _PAYLOAD.unpack(payload)


def _read_batch_header(handle, pos):
    """``(kind, count, batch)`` of the batch header or quarantine
    marker at byte ``pos``."""
    record = _read_record(handle, pos)
    if record is None:
        raise _Damage("torn record", pos, torn=True)
    kind, count, _, batch = record
    if kind not in (_KIND_BATCH, _KIND_QUARANTINE):
        raise _Damage("%s is not a batch header (kind %d)"
                      % (_record_at(pos), kind), pos)
    return kind, count, batch


def _read_batch_body(handle, pos, batch, count):
    """The ``count`` events of ``batch`` starting at byte ``pos``, as
    ``(batch, op, u, v)``."""
    events = []
    for _ in range(count):
        record = _read_record(handle, pos)
        if record is None:
            raise _Damage("torn batch", pos, torn=True)
        kind, u, v, event_batch = record
        if kind not in _KIND_TO_OP or event_batch != batch:
            raise _Damage("%s does not belong to batch %d"
                          % (_record_at(pos), batch), pos)
        events.append((batch, _KIND_TO_OP[kind], u, v))
        pos += RECORD_SIZE
    return events


class _Segment:
    """Metadata of one live segment file."""

    __slots__ = ("path", "name", "seq", "base_events", "num_events",
                 "append_pos")

    def __init__(self, path, seq, base_events):
        self.path = path
        self.name = os.path.basename(path)
        self.seq = seq
        self.base_events = base_events
        self.num_events = 0
        self.append_pos = _HEADER_SIZE

    @property
    def end_events(self):
        """Global offset one past this segment's last event."""
        return self.base_events + self.num_events

    def as_dict(self):
        """Manifest form: the per-segment event offsets."""
        return {"name": self.name, "seq": self.seq,
                "base_events": self.base_events,
                "events": self.num_events}


class EventJournal:
    """Append-only segmented journal of ``("+"|"-", u, v)`` batches."""

    def __init__(self, directory, *, segment_events=DEFAULT_SEGMENT_EVENTS):
        """Open (or create) the journal living under ``directory``.

        Opening scans every live segment once, streaming: per-segment
        event counts are recovered and CRCs verified without
        materializing the history.  A torn trailing batch of the
        *active* segment is truncated away; any damage elsewhere raises
        :class:`~repro.errors.CorruptStorageError` immediately -- a
        journal that cannot be replayed must not be appended to.
        """
        if segment_events is not None and segment_events < 1:
            raise ValueError("segment_events must be positive or None")
        self.directory = os.fspath(directory)
        self.segment_events = segment_events
        self._closed = False
        self._handle = None
        self._quarantined = set()
        #: Data-file fsyncs issued (appends, segment creation, tail
        #: repair) -- the durability cost of ingest, surfaced by
        #: ``stats()`` and the metrics registry.
        self.fsyncs = 0
        self._segments = []
        listed = self._discover()
        for index, (seq, path) in enumerate(listed):
            scan = scan_segment(path, seq)
            self._segments.append(
                self._adopt(scan, active=index == len(listed) - 1))
        if not self._segments:
            self._segments = [self._create_segment(1, 0)]
        self._open_active()

    # -- writing ------------------------------------------------------------
    def append(self, events, batch):
        """Durably append ``events`` as one crash-atomic batch.

        The header + event records hit the disk (``fsync``) before this
        returns; only then may the caller apply the batch to the index.
        Reaching ``segment_events`` rotates to a fresh segment
        afterwards.
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        events = list(events)
        if not events:
            return
        active = self._active
        blob = _pack_record(_KIND_BATCH, len(events), 0, batch)
        blob += b"".join(_pack_record(_OP_TO_KIND[op], u, v, batch)
                         for op, u, v in events)
        self._handle.seek(active.append_pos)
        self._handle.write(blob)
        self._handle.truncate()
        self._sync(self._handle)
        active.append_pos += len(blob)
        active.num_events += len(events)
        if (self.segment_events is not None
                and active.num_events >= self.segment_events):
            self.rotate()

    def append_quarantine(self, batch):
        """Durably mark ``batch`` as quarantined.

        Writes one standalone marker record (kind 3, no event body):
        the batch's event records stay journaled for forensics, but
        replay skips them while still counting them toward the epoch
        sequence.  The marker carries no events, so it never moves the
        event offsets and may legitimately land in a later segment than
        the batch it names (appends can rotate in between).
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        active = self._active
        blob = _pack_record(_KIND_QUARANTINE, 0, 0, batch)
        self._handle.seek(active.append_pos)
        self._handle.write(blob)
        self._handle.truncate()
        self._sync(self._handle)
        active.append_pos += len(blob)
        self._quarantined.add(batch)

    def quarantined_batches(self):
        """Sorted ids of batches marked quarantined (scan + this run)."""
        return sorted(self._quarantined)

    def rotate(self):
        """Seal the active segment by opening the next one.

        Sealing is logical -- the new segment's existence is what seals
        its predecessor -- so the only durability step is the atomic
        creation of the new file.  A no-op (returns False) when the
        active segment holds no events yet: repeated checkpoints must
        not pile up empty segments.
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        active = self._active
        if active.num_events == 0:
            return False
        # Create the successor and open its handle before touching the
        # active one: a failure anywhere (ENOSPC, EMFILE, ...) must
        # leave the journal exactly as it was, still able to append.
        segment = self._create_segment(active.seq + 1, active.end_events)
        try:
            handle = open(segment.path, "r+b")
        except BaseException:
            os.unlink(segment.path)
            raise
        self._handle.close()
        self._handle = handle
        self._segments.append(segment)
        return True

    def compact(self, events_covered):
        """Unlink sealed segments fully covered by ``events_covered``.

        ``events_covered`` is the checkpoint watermark: the global
        number of journaled events the durable checkpoint accounts for.
        The active segment is never removed; a sealed segment
        straddling the watermark survives.  Unlinks oldest-first so a
        crash mid-compaction leaves a contiguous segment suffix.
        Returns the removed file names.
        """
        removed = []
        while (len(self._segments) > 1
               and self._segments[0].end_events <= events_covered):
            segment = self._segments.pop(0)
            os.unlink(segment.path)
            removed.append(segment.name)
        if removed:
            fsync_path(self.directory)
        return removed

    # -- reading ------------------------------------------------------------
    @property
    def num_events(self):
        """Global number of events ever journaled (O(1))."""
        return self._segments[-1].end_events

    @property
    def first_retained_event(self):
        """Global offset of the oldest event still on disk."""
        return self._segments[0].base_events

    @property
    def num_segments(self):
        """Number of live segment files (sealed + active)."""
        return len(self._segments)

    @property
    def active_segment(self):
        """File name of the segment appends currently go to."""
        return self._active.name

    def segments(self):
        """Per-segment event offsets, oldest first (manifest form)."""
        return [segment.as_dict() for segment in self._segments]

    def stats(self):
        """One dict of journal gauges, for reports and debugging."""
        disk_bytes = 0
        for segment in self._segments:
            try:
                disk_bytes += os.path.getsize(segment.path)
            except OSError:
                pass
        return {
            "segments": len(self._segments),
            "active_segment": self._active.name,
            "total_events": self.num_events,
            "retained_events": self.num_events - self.first_retained_event,
            "first_retained_event": self.first_retained_event,
            "quarantined_batches": len(self._quarantined),
            "disk_bytes": disk_bytes,
            "fsyncs": self.fsyncs,
        }

    def iter_events(self, start=0, stop=None):
        """Stream ``(batch, op, u, v)`` for global indexes
        ``[start, stop)``.

        Reads from the segment files -- nothing is materialized.
        Whole batches before ``start`` are *skipped by seek*, not read,
        so positioning at a checkpoint watermark costs one batch-header
        read per skipped batch.
        """
        if stop is None:
            stop = self.num_events
        if start < self.first_retained_event:
            raise CorruptStorageError(
                "journal under %s: events before %d were compacted away "
                "(requested %d)"
                % (self.directory, self.first_retained_event, start),
                path=self.directory)
        for segment in self._segments:
            if segment.end_events <= start:
                continue
            if segment.base_events >= stop:
                break
            for event in self._iter_segment(segment, start, stop):
                yield event

    def iter_batches(self, start=0, *, include_quarantined=False):
        """Group :meth:`iter_events` into ``(batch, events)`` runs.

        Events of one batch are contiguous and within one segment by
        construction (one append per batch); the grouping keys on the
        stored batch id so a replay reproduces exactly the batch
        boundaries -- and therefore the epoch sequence -- of the
        original run.

        Quarantined batches are omitted by default.  With
        ``include_quarantined=True`` every batch is yielded as a
        3-tuple ``(batch, events, quarantined)`` so a replay can skip a
        quarantined batch's events while still advancing its epoch and
        event accounting.
        """
        current = None
        ops = []
        for batch, op, u, v in self.iter_events(start):
            if current is not None and batch != current:
                yield from self._emit_batch(current, ops,
                                            include_quarantined)
                ops = []
            current = batch
            ops.append((op, u, v))
        if current is not None:
            yield from self._emit_batch(current, ops, include_quarantined)

    def _emit_batch(self, batch, ops, include_quarantined):
        quarantined = batch in self._quarantined
        if include_quarantined:
            yield batch, ops, quarantined
        elif not quarantined:
            yield batch, ops

    def events(self, start=0):
        """The ``(batch, op, u, v)`` tuples from global index ``start``.

        Convenience list form of :meth:`iter_events`; prefer the
        iterator for anything that may be long.
        """
        return list(self.iter_events(start))

    def batches(self, start=0):
        """List form of :meth:`iter_batches`."""
        return list(self.iter_batches(start))

    # -- lifecycle ----------------------------------------------------------
    def close(self):
        """Close the active segment's backing file."""
        if not self._closed:
            self._closed = True
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- internals ----------------------------------------------------------
    @property
    def _active(self):
        return self._segments[-1]

    def _open_active(self):
        self._handle = open(self._active.path, "r+b")

    def _sync(self, handle):
        handle.flush()
        os.fsync(handle.fileno())
        self.fsyncs += 1

    def _discover(self):
        """List live segments under the dir."""
        if os.path.isfile(self.directory):
            raise CorruptStorageError(
                "EventJournal takes the journal *directory*, but %s is "
                "a file" % self.directory,
                path=self.directory)
        os.makedirs(self.directory, exist_ok=True)
        for name in os.listdir(self.directory):
            if name.startswith("journal.") and name.endswith(".tmp"):
                # A segment creation that never reached its rename.
                os.unlink(os.path.join(self.directory, name))
        return list_segments(self.directory)

    def _create_segment(self, seq, base_events):
        """Atomically create segment ``seq`` starting at ``base_events``."""
        path = os.path.join(self.directory, segment_name(seq))
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            write_segment_header(handle, seq, base_events)
        self.fsyncs += 1
        os.replace(tmp, path)
        fsync_path(self.directory)
        return _Segment(path, seq, base_events)

    def _adopt(self, scan, active):
        """The live segment for one :func:`scan_segment` result.

        Only the active (last) segment may be empty -- a crash between
        create and header write, so nothing was journaled: it is
        re-initialized in place -- or carry a torn trailing batch,
        which is truncated away.  The same state in a sealed segment,
        which appends never touch, is corruption, as is any other
        damage and any gap in the base-offset chain.
        """
        segment = _Segment(scan["path"], scan["seq"], scan["base"])
        damage = scan["damage"]
        if damage is not None and scan["good_pos"] == 0:
            # A damaged header is never a crash window, even when torn.
            raise CorruptStorageError(
                "journal segment %s: %s" % (segment.path, damage["problem"]),
                path=segment.path, segment=segment.seq, offset=0)
        previous = self._segments[-1] if self._segments else None
        if scan["size"] == 0:
            if not active:
                raise CorruptStorageError(
                    "journal segment %s: sealed segment is empty"
                    % segment.path,
                    path=segment.path, segment=segment.seq)
            segment.base_events = (previous.end_events
                                   if previous is not None else 0)
            with open(segment.path, "r+b") as handle:
                write_segment_header(handle, segment.seq,
                                     segment.base_events)
            self.fsyncs += 1
            return segment
        if previous is not None \
                and segment.base_events != previous.end_events:
            raise CorruptStorageError(
                "journal %s: segment ends at event %d but %s starts "
                "at %d" % (previous.path, previous.end_events,
                           segment.name, segment.base_events),
                path=previous.path, segment=previous.seq)
        if damage is not None:
            if not damage["torn"]:
                raise CorruptStorageError(
                    "journal %s: %s" % (segment.path, damage["problem"]),
                    path=segment.path, segment=segment.seq,
                    offset=damage["offset"])
            # A torn append of a batch that was never acknowledged.
            if not active:
                raise CorruptStorageError(
                    "journal %s: sealed segment has a torn tail at "
                    "byte offset %d" % (segment.path, scan["good_pos"]),
                    path=segment.path, segment=segment.seq,
                    offset=scan["good_pos"])
            with open(segment.path, "r+b") as handle:
                handle.truncate(scan["good_pos"])
                self._sync(handle)
        segment.num_events = scan["events"]
        segment.append_pos = scan["good_pos"]
        self._quarantined.update(scan["quarantined"])
        return segment

    def _iter_segment(self, segment, start, stop):
        """Yield the segment's events overlapping ``[start, stop)``.

        Batches entirely before ``start`` are skipped with a seek of
        their announced size; the scan already proved every batch
        complete, so the arithmetic is safe.  Reads always use their
        own handle so an append never races an iterator's position.
        """
        handle = open(segment.path, "rb")
        try:
            pos = handle.seek(_HEADER_SIZE)
            offset = segment.base_events
            while offset < min(stop, segment.end_events):
                kind, count, batch = _read_batch_header(handle, pos)
                pos += RECORD_SIZE
                if kind == _KIND_QUARANTINE:
                    continue
                if offset + count <= start:
                    handle.seek(RECORD_SIZE * count, os.SEEK_CUR)
                else:
                    events = _read_batch_body(handle, pos, batch, count)
                    yield from events[max(0, start - offset):
                                      stop - offset]
                offset += count
                pos += RECORD_SIZE * count
        except _Damage as damage:
            raise CorruptStorageError(
                "journal %s: %s" % (segment.path, damage.problem),
                path=segment.path, segment=segment.seq,
                offset=damage.offset) from None
        finally:
            handle.close()

    def __repr__(self):
        return ("EventJournal(%r, segments=%d, events=%d)"
                % (self.directory, len(self._segments), self.num_events))


def fsync_path(path):
    """fsync a file (or directory) by path, so creations and renames
    survive power loss.  Shared by the journal and the checkpoint
    writer (``service/core_service.py``)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
