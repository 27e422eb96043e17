"""Tests for the segmented write-ahead event journal."""

import os
import struct
import zlib

import pytest

from repro.errors import CorruptStorageError
from repro.service.journal import (
    RECORD_SIZE,
    EventJournal,
    segment_name,
)

_SEGMENT_HEADER = struct.Struct("<8sI4xQQ")
_PAYLOAD = struct.Struct("<BIIQ")
_CRC = struct.Struct("<I")
_OPS = {"+": 0, "-": 1}


def record(kind, u, v, batch):
    payload = _PAYLOAD.pack(kind, u, v, batch)
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def batch_blob(events, batch):
    blob = record(2, len(events), 0, batch)
    return blob + b"".join(record(_OPS[op], u, v, batch)
                           for op, u, v in events)


def active_path(journal):
    return os.path.join(journal.directory, journal.active_segment)


class TestRoundtrip:
    def test_append_and_read(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
        journal.append([("+", 5, 6)], batch=2)
        assert journal.num_events == 3
        assert journal.events() == [(1, "+", 1, 2), (1, "-", 3, 4),
                                    (2, "+", 5, 6)]
        journal.close()

    def test_reopen_recovers_events(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2)], batch=1)
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2)]
            journal.append([("-", 1, 2)], batch=2)
        with EventJournal(tmp_path) as journal:
            assert journal.num_events == 2

    def test_batches_grouping(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2), ("+", 3, 4)], batch=1)
        journal.append([("-", 1, 2)], batch=2)
        assert journal.batches() == [
            (1, [("+", 1, 2), ("+", 3, 4)]),
            (2, [("-", 1, 2)]),
        ]
        assert journal.batches(2) == [(2, [("-", 1, 2)])]
        journal.close()

    def test_empty_append_writes_nothing(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append([], batch=1)
        assert journal.num_events == 0
        journal.close()

    def test_iter_events_window(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2), ("-", 3, 4), ("+", 5, 6)], batch=1)
        journal.append([("+", 7, 8)], batch=2)
        assert list(journal.iter_events(2)) == [(1, "+", 5, 6),
                                                (2, "+", 7, 8)]
        assert list(journal.iter_events(1, 3)) == [(1, "-", 3, 4),
                                                   (1, "+", 5, 6)]
        journal.close()

    def test_repr(self, tmp_path):
        journal = EventJournal(tmp_path)
        assert "events=0" in repr(journal)
        journal.close()


class TestRotation:
    def test_rotate_seals_and_opens_next_segment(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2)], batch=1)
        first = journal.active_segment
        assert journal.rotate() is True
        assert journal.active_segment != first
        assert journal.num_segments == 2
        journal.append([("+", 3, 4)], batch=2)
        assert journal.events() == [(1, "+", 1, 2), (2, "+", 3, 4)]
        journal.close()

    def test_rotate_empty_active_is_noop(self, tmp_path):
        journal = EventJournal(tmp_path)
        assert journal.rotate() is False
        journal.append([("+", 1, 2)], batch=1)
        journal.rotate()
        assert journal.rotate() is False  # no empty-segment pileup
        assert journal.num_segments == 2
        journal.close()

    def test_segment_events_auto_rotates(self, tmp_path):
        journal = EventJournal(tmp_path, segment_events=2)
        journal.append([("+", 1, 2)], batch=1)
        assert journal.num_segments == 1
        journal.append([("-", 3, 4)], batch=2)  # hits the cap
        assert journal.num_segments == 2
        journal.append([("+", 5, 6), ("+", 7, 8), ("+", 9, 10)], batch=3)
        assert journal.num_segments == 3
        assert journal.num_events == 5
        journal.close()

    def test_rotation_failure_leaves_journal_appendable(self, tmp_path,
                                                        monkeypatch):
        """A failed successor creation (ENOSPC, ...) must not wedge the
        active segment: the handle stays open, appends keep working."""
        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2)], batch=1)

        def fail(seq, base):
            raise OSError("no space left on device")

        monkeypatch.setattr(journal, "_create_segment", fail)
        with pytest.raises(OSError):
            journal.rotate()
        monkeypatch.undo()
        journal.append([("-", 1, 2)], batch=2)  # still durable
        assert journal.rotate() is True
        journal.close()
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2), (2, "-", 1, 2)]

    def test_failed_handle_open_during_rotation_rolls_back(self,
                                                           tmp_path,
                                                           monkeypatch):
        """EMFILE while opening the successor's handle: the created
        file is rolled back and the journal keeps appending."""
        import builtins

        journal = EventJournal(tmp_path)
        journal.append([("+", 1, 2)], batch=1)
        real_open = builtins.open

        def exhausted(path, mode="r", *args, **kwargs):
            if mode == "r+b" and str(path).endswith(segment_name(2)):
                raise OSError(24, "too many open files")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", exhausted)
        with pytest.raises(OSError):
            journal.rotate()
        monkeypatch.undo()
        assert journal.num_segments == 1
        assert not (tmp_path / segment_name(2)).exists()
        journal.append([("-", 1, 2)], batch=2)
        assert journal.rotate() is True
        journal.close()
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2), (2, "-", 1, 2)]

    def test_sequences_beyond_six_digits_discovered(self, tmp_path):
        """segment_name pads to 6 digits but sequences outgrow the pad;
        discovery must not silently drop the newest segments."""
        assert segment_name(1000000) == "journal.1000000.log"
        (tmp_path / segment_name(999999)).write_bytes(
            _SEGMENT_HEADER.pack(b"RPRJRNL2", 2, 999999, 0)
            + batch_blob([("+", 1, 2)], 1))
        (tmp_path / segment_name(1000000)).write_bytes(
            _SEGMENT_HEADER.pack(b"RPRJRNL2", 2, 1000000, 1)
            + batch_blob([("-", 1, 2)], 2))
        with EventJournal(tmp_path) as journal:
            assert journal.num_events == 2
            assert journal.active_segment == segment_name(1000000)
            journal.append([("+", 3, 4)], batch=3)
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2), (2, "-", 1, 2),
                                        (3, "+", 3, 4)]

    def test_segment_offsets_are_global_across_reopen(self, tmp_path):
        with EventJournal(tmp_path, segment_events=2) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
            journal.append([("+", 5, 6)], batch=2)
        with EventJournal(tmp_path) as journal:
            offsets = [(s["base_events"], s["events"])
                       for s in journal.segments()]
            assert offsets == [(0, 2), (2, 1)]
            assert journal.events(2) == [(2, "+", 5, 6)]


class TestCompaction:
    def fill(self, tmp_path):
        journal = EventJournal(tmp_path, segment_events=2)
        journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)   # seg 1
        journal.append([("+", 5, 6), ("+", 7, 8)], batch=2)   # seg 2
        journal.append([("+", 9, 10)], batch=3)               # seg 3
        return journal

    def test_covered_sealed_segments_removed(self, tmp_path):
        journal = self.fill(tmp_path)
        removed = journal.compact(4)
        assert removed == [segment_name(1), segment_name(2)]
        assert journal.first_retained_event == 4
        assert journal.num_events == 5
        assert journal.events(4) == [(3, "+", 9, 10)]
        journal.close()

    def test_partially_covered_segment_survives(self, tmp_path):
        journal = self.fill(tmp_path)
        assert journal.compact(3) == [segment_name(1)]
        assert journal.first_retained_event == 2
        journal.close()

    def test_active_segment_never_removed(self, tmp_path):
        journal = self.fill(tmp_path)
        journal.compact(journal.num_events)
        assert journal.num_segments == 1
        assert os.path.exists(active_path(journal))
        journal.close()

    def test_reads_before_compaction_point_rejected(self, tmp_path):
        journal = self.fill(tmp_path)
        journal.compact(4)
        with pytest.raises(CorruptStorageError, match="compacted"):
            journal.events(0)
        journal.close()

    def test_compaction_survives_reopen(self, tmp_path):
        journal = self.fill(tmp_path)
        journal.compact(4)
        journal.close()
        with EventJournal(tmp_path) as journal:
            assert journal.first_retained_event == 4
            assert journal.num_events == 5
            assert journal.batches(4) == [(3, [("+", 9, 10)])]


class TestCrashTolerance:
    def test_partial_record_drops_whole_batch(self, tmp_path):
        """A crash mid-append drops the entire unacknowledged batch."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 9, 10)], batch=1)
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=2)
            path = active_path(journal)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-(RECORD_SIZE // 2)])
        with EventJournal(tmp_path) as journal:
            # Batch 2 was torn: it never happened.  Batch 1 survives.
            assert journal.events() == [(1, "+", 9, 10)]
            journal.append([("+", 7, 8)], batch=2)
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 9, 10), (2, "+", 7, 8)]

    def test_torn_write_at_record_boundary_drops_batch(self, tmp_path):
        """A torn append ending exactly on a record boundary must NOT
        replay as a truncated batch -- batches are all-or-nothing."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 9, 10)], batch=1)
            journal.append([("+", 1, 2), ("-", 3, 4), ("+", 5, 6)],
                           batch=2)
            path = active_path(journal)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-RECORD_SIZE])  # lose 1 of 3
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 9, 10)]

    def test_header_only_batch_dropped(self, tmp_path):
        """A batch header with none of its records is a torn append."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
            path = active_path(journal)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-2 * RECORD_SIZE])
        with EventJournal(tmp_path) as journal:
            assert journal.events() == []

    def test_corrupted_tail_rejected(self, tmp_path):
        """A bit-flipped complete record is corruption, not a crash."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
            path = active_path(journal)
        data = bytearray(open(path, "rb").read())
        data[-RECORD_SIZE + 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptStorageError, match="checksum"):
            EventJournal(tmp_path)

    def test_torn_tail_in_sealed_segment_rejected(self, tmp_path):
        """Appends never touch sealed segments: a short sealed segment
        is corruption, not an interrupted write."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
            sealed = active_path(journal)
            journal.rotate()
            journal.append([("+", 5, 6)], batch=2)
        data = open(sealed, "rb").read()
        open(sealed, "wb").write(data[:-RECORD_SIZE // 2])
        with pytest.raises(CorruptStorageError, match="sealed"):
            EventJournal(tmp_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / segment_name(1)
        path.write_bytes(b"NOTAJRNL" + b"\x00" * 24)
        with pytest.raises(CorruptStorageError, match="magic"):
            EventJournal(tmp_path)

    def test_truncated_segment_header_rejected(self, tmp_path):
        (tmp_path / segment_name(1)).write_bytes(b"\x00" * 4)
        with pytest.raises(CorruptStorageError, match="truncated"):
            EventJournal(tmp_path)

    def test_wrong_sequence_in_header_rejected(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2)], batch=1)
            path = active_path(journal)
        os.rename(path, os.path.join(os.path.dirname(path),
                                     segment_name(7)))
        with pytest.raises(CorruptStorageError, match="sequence"):
            EventJournal(tmp_path)

    def test_non_contiguous_offsets_rejected(self, tmp_path):
        """A segment whose base does not meet its predecessor's end is
        a hole in the event numbering -- replay must refuse."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
            journal.rotate()
            journal.append([("+", 5, 6)], batch=2)
            first = os.path.join(journal.directory, segment_name(1))
        data = bytearray(open(first, "rb").read())
        # Forge an extra record into the sealed segment: its end moves,
        # the successor's base no longer matches.
        data += batch_blob([("+", 9, 9)], 2)
        open(first, "wb").write(bytes(data))
        with pytest.raises(CorruptStorageError, match="starts"):
            EventJournal(tmp_path)

    def test_stray_tmp_file_swept(self, tmp_path):
        """A segment creation that crashed before its rename leaves a
        .tmp file that must not shadow real segments."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2)], batch=1)
        (tmp_path / (segment_name(2) + ".tmp")).write_bytes(b"garbage")
        with EventJournal(tmp_path) as journal:
            assert journal.num_events == 1
        assert not (tmp_path / (segment_name(2) + ".tmp")).exists()

    def test_empty_active_segment_reinitialized(self, tmp_path):
        """Crash between create and header write: nothing was journaled."""
        (tmp_path / segment_name(1)).write_bytes(b"")
        with EventJournal(tmp_path) as journal:
            assert journal.num_events == 0
            journal.append([("+", 1, 2)], batch=1)
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2)]

    def test_empty_active_segment_after_sealed_one(self, tmp_path):
        """Same crash with history behind it: the empty active segment
        derives its base from the sealed predecessor and recovers."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2), ("-", 3, 4)], batch=1)
        (tmp_path / segment_name(2)).write_bytes(b"")
        with EventJournal(tmp_path) as journal:
            assert journal.num_events == 2
            assert journal.active_segment == segment_name(2)
            journal.append([("+", 5, 6)], batch=2)
        with EventJournal(tmp_path) as journal:
            assert journal.events() == [(1, "+", 1, 2), (1, "-", 3, 4),
                                        (2, "+", 5, 6)]
            assert [s["base_events"] for s in journal.segments()] \
                == [0, 2]

    def test_empty_sealed_segment_rejected(self, tmp_path):
        """A 0-byte segment *behind* a real one is corruption."""
        with EventJournal(tmp_path) as journal:
            journal.append([("+", 1, 2)], batch=1)
            journal.rotate()
            journal.append([("-", 1, 2)], batch=2)
        (tmp_path / segment_name(1)).write_bytes(b"")
        with pytest.raises(CorruptStorageError, match="empty"):
            EventJournal(tmp_path)

    def test_append_after_close_rejected(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.close()
        with pytest.raises(CorruptStorageError, match="closed"):
            journal.append([("+", 1, 2)], batch=1)
        with pytest.raises(CorruptStorageError, match="closed"):
            journal.rotate()
