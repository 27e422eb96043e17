"""``scrub_directory`` and the ``repro scrub`` CLI.

Each test seeds a real service directory, damages one artifact the way
a crash or bit-rot would, and asserts the scrub (a) reports the damage
with its location, (b) repairs exactly what is safe to repair, and
(c) leaves the directory openable (or honestly reports that it is
not).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import zlib

import pytest

from repro.cli import main
from repro.errors import CorruptStorageError
from repro.faults import flip_bit, tear_file
from repro.service import CoreService, scrub_directory
from repro.service.core_service import _manifest_body, load_manifest
from repro.service.journal import segment_name
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges

pytestmark = pytest.mark.faults


@pytest.fixture
def seeded(tmp_path, rng):
    """A service directory with a checkpoint and a journal tail."""
    n = 30
    edges = make_random_edges(rng, n, 0.15)
    data_dir = str(tmp_path / "svc")
    os.makedirs(data_dir)
    service = CoreService.from_storage(
        GraphStorage.from_edges(edges, n), data_dir=data_dir,
        segment_events=2)
    present = {tuple(sorted(e)) for e in edges}
    applied = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                applied.append((u, v))
                if len(applied) == 6:
                    break
        if len(applied) == 6:
            break
    for u, v in applied[:3]:
        service.apply([("+", u, v)])
    service.checkpoint()
    for u, v in applied[3:]:
        service.apply([("+", u, v)])
    cores = list(service.maintainer.cores)
    epoch = service.epoch
    service.close()
    return {"data_dir": data_dir, "edges": edges, "n": n,
            "cores": cores, "epoch": epoch}


def _segments(data_dir):
    return sorted(f for f in os.listdir(data_dir)
                  if f.startswith("journal."))


def _reopen(seeded):
    return CoreService.open(
        seeded["data_dir"],
        GraphStorage.from_edges(seeded["edges"], seeded["n"]))


class TestDiagnose:
    def test_clean_directory(self, seeded):
        report = scrub_directory(seeded["data_dir"], repair=False)
        assert report["openable"]
        assert report["issues"] == []
        assert report["segments"]
        assert all(s["damage"] is None for s in report["segments"])

    def test_issue_carries_file_and_offset(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 1)
        report = scrub_directory(seeded["data_dir"], repair=False)
        assert not report["openable"]
        (issue,) = report["issues"]
        assert issue["file"] == segments[-1]
        assert isinstance(issue["offset"], int)

    def test_missing_manifest_reported(self, seeded):
        os.unlink(os.path.join(seeded["data_dir"], "manifest.json"))
        report = scrub_directory(seeded["data_dir"], repair=False)
        assert not report["openable"]
        assert any(issue["file"] == "manifest.json"
                   for issue in report["issues"])


def _reseal_manifest(data_dir, mutate):
    """Apply ``mutate`` to ``manifest.json`` and recompute its
    ``crc32``, so the field checks, not the checksum, must reject it."""
    path = os.path.join(data_dir, "manifest.json")
    with open(path, encoding="ascii") as handle:
        manifest = json.load(handle)
    mutate(manifest)
    manifest["crc32"] = zlib.crc32(
        _manifest_body(manifest).encode("ascii")) & 0xFFFFFFFF
    with open(path, "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


#: Every manifest field ``open()`` reads, with a value it may not take.
_MISTYPED = {"version": "2", "epoch": "3", "events_applied": -1,
             "checkpoint": 7, "delta": None, "graph_path": 7,
             "seed_algorithm": 7, "quarantined_batches": "[]"}


class TestManifestFields:
    """A manifest that verifies but lacks or mistypes a field ``open()``
    reads is corruption, not a ``KeyError`` or a guessed default."""

    @pytest.mark.parametrize("damage", ["renamed", "mistyped"])
    @pytest.mark.parametrize("field", sorted(_MISTYPED))
    def test_damaged_field_is_corruption(self, seeded, field, damage):
        data_dir = seeded["data_dir"]
        if damage == "renamed":
            _reseal_manifest(data_dir, lambda m: m.update(
                {field + "_": m.pop(field)}))
        else:
            _reseal_manifest(data_dir, lambda m: m.update(
                {field: _MISTYPED[field]}))
        with pytest.raises(CorruptStorageError) as info:
            _reopen(seeded)
        assert info.value.path.endswith("manifest.json")
        report = scrub_directory(data_dir, repair=False)
        assert not report["openable"]
        assert [issue["file"] for issue in report["issues"]] \
            == ["manifest.json"]
        # The epoch-stamped copy is intact: the repairing scrub
        # restores it and the directory resumes where it was.
        assert scrub_directory(data_dir)["openable"]
        service = _reopen(seeded)
        assert list(service.maintainer.cores) == seeded["cores"]
        service.close()


@pytest.fixture
def epoch_one(tmp_path, rng):
    """A service directory checkpointed after one single-event batch."""
    n = 30
    edges = make_random_edges(rng, n, 0.15)
    storage = GraphStorage.from_edges(edges, n)
    data_dir = str(tmp_path / "svc")
    service = CoreService.from_storage(storage, data_dir=data_dir)
    absent = next((u, v) for u in range(n) for v in range(u + 1, n)
                  if not service.graph.has_edge(u, v))
    service.apply([("+",) + absent])
    service.checkpoint()
    service.close()
    return data_dir, storage


class TestManifestChecksum:
    """The ``crc32`` field is mandatory: no damage to the manifest,
    including to the checksum's own key, loads unverified."""

    def test_every_single_bit_flip_is_refused(self, epoch_one, tmp_path):
        data_dir, _ = epoch_one
        with open(os.path.join(data_dir, "manifest.json"), "rb") as handle:
            pristine = handle.read()
        target = str(tmp_path / "manifest.json")
        accepted = []
        for offset in range(len(pristine)):
            for bit in range(8):
                damaged = bytearray(pristine)
                damaged[offset] ^= 1 << bit
                with open(target, "wb") as handle:
                    handle.write(damaged)
                try:
                    load_manifest(target)
                except CorruptStorageError:
                    continue
                accepted.append((offset, bit))
        assert accepted == []

    def test_renamed_checksum_key_cannot_move_the_epoch(self, epoch_one):
        data_dir, storage = epoch_one
        path = os.path.join(data_dir, "manifest.json")
        with open(path, "rb") as handle:
            blob = handle.read()
        # Two single-bit flips: the checksum key is renamed, and the
        # epoch it no longer guards moves from 1 to 3.
        for old, new in ((b'"crc32"', b'"crc33"'),
                         (b'"epoch": 1,', b'"epoch": 3,')):
            assert blob.count(old) == 1
            blob = blob.replace(old, new)
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(CorruptStorageError) as info:
            CoreService.open(data_dir, storage)
        assert info.value.path == path
        assert not scrub_directory(data_dir, repair=False)["openable"]
        report = scrub_directory(data_dir)
        assert report["openable"], report
        assert "restored manifest.json from manifest.1.json (epoch 1)" \
            in report["actions"]
        service = CoreService.open(data_dir, storage)
        assert service.epoch == 1
        service.close()


class TestRepairs:
    def test_torn_active_tail_truncated(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 3)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        assert any("truncated" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"] - 1
        service.close()

    def test_header_torn_active_segment_rebuilt(self, seeded):
        """A tear inside the active segment's 28-byte header must not
        truncate the file to zero bytes -- that erases the base offset
        and fails the watermark check.  The header is rebuilt from the
        chain / manifest evidence instead."""
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=10)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"], report
        assert any("rebuilt" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_manifest_restored_from_epoch_copy(self, seeded):
        path = os.path.join(seeded["data_dir"], "manifest.json")
        flip_bit(path, offset=os.path.getsize(path) // 2, bit=1)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        assert any("restored" in action for action in report["actions"])
        service = _reopen(seeded)
        assert list(service.maintainer.cores) == seeded["cores"]
        service.close()

    def test_missing_manifest_restored_too(self, seeded):
        os.unlink(os.path.join(seeded["data_dir"], "manifest.json"))
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"]
        service.close()

    def test_stray_tmp_files_removed(self, seeded):
        stray = os.path.join(seeded["data_dir"], "state.99.ckpt.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"half-written")
        report = scrub_directory(seeded["data_dir"])
        assert not os.path.exists(stray)
        assert any("stray" in action for action in report["actions"])
        assert report["openable"]

    def test_stale_covered_segment_unlinked(self, seeded, rng):
        """A sealed segment the checkpoint already covers (left behind
        by a crash between manifest write and compaction unlink) is
        removed even when damaged."""
        data_dir = seeded["data_dir"]
        segments = _segments(data_dir)
        first = os.path.join(data_dir, segments[0])
        with open(first, "rb") as handle:
            blob = handle.read()
        # Fabricate the pre-compaction predecessor: same layout, one
        # sequence earlier, damaged body.
        import struct
        from repro.service.journal import _SEGMENT_HEADER
        magic, version, seq, base = _SEGMENT_HEADER.unpack(
            blob[:_SEGMENT_HEADER.size])
        stale_seq = seq - 1
        stale = os.path.join(data_dir, segment_name(stale_seq))
        with open(stale, "wb") as handle:
            handle.write(_SEGMENT_HEADER.pack(magic, version, stale_seq,
                                              max(0, base - 2)))
            handle.write(os.urandom(42))
        report = scrub_directory(data_dir)
        assert report["openable"], report
        assert not os.path.exists(stale)
        assert any("unlinked" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"]
        service.close()

    def test_corrupt_active_needs_force(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        flip_bit(path, offset=40, bit=2)
        report = scrub_directory(seeded["data_dir"])
        assert not report["openable"]
        assert any("force" in action for action in report["actions"])
        report = scrub_directory(seeded["data_dir"], force=True)
        assert report["openable"]
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_uncovered_sealed_damage_without_force_is_honest(
            self, seeded):
        segments = _segments(seeded["data_dir"])
        # The first retained segment holds post-checkpoint events.
        path = os.path.join(seeded["data_dir"], segments[0])
        flip_bit(path, offset=40, bit=0)
        report = scrub_directory(seeded["data_dir"])
        assert not report["openable"]
        assert any("not" in action and "covered" in action
                   for action in report["actions"])
        # Force truncates the journal at the damaged segment's base.
        report = scrub_directory(seeded["data_dir"], force=True)
        assert report["openable"], report
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_repair_is_idempotent(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 3)
        first = scrub_directory(seeded["data_dir"])
        second = scrub_directory(seeded["data_dir"])
        assert first["openable"] and second["openable"]
        assert second["actions"] == []


class TestScrubCLI:
    def test_exit_codes_follow_openability(self, seeded, capsys):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 3)
        assert main(["scrub", "--data-dir", seeded["data_dir"],
                     "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "openable" in out and "no" in out
        assert main(["scrub", "--data-dir", seeded["data_dir"]]) == 0
        out = capsys.readouterr().out
        assert "repair:" in out

    def test_json_report_is_machine_readable(self, seeded, capsys):
        assert main(["scrub", "--data-dir", seeded["data_dir"],
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["openable"] is True
        assert report["segments"]

    def test_serve_reports_degraded_and_quarantine_rows(
            self, seeded, capsys, tmp_path):
        edges, n = seeded["edges"], seeded["n"]
        graph_prefix = str(tmp_path / "tables")
        GraphStorage.from_edges(edges, n, path=graph_prefix).close()
        assert main(["serve", "--graph", graph_prefix,
                     "--queries", "5", "--updates", "0",
                     "--data-dir", seeded["data_dir"]]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "quarantined batches" in out


def _journal_faults(data_dir):
    """``(file name, fault)`` for every journal file under ``data_dir``:
    a tear at every offset and a bit flip at every third byte."""
    for name in sorted(os.listdir(data_dir)):
        if not (name.startswith("journal.") and name.endswith(".log")):
            continue
        size = os.path.getsize(os.path.join(data_dir, name))
        for keep in range(size):
            yield name, functools.partial(tear_file, keep=keep)
        for offset in range(0, size, 3):
            yield name, functools.partial(flip_bit, offset=offset,
                                          bit=offset % 8)


def _damaged_copy(pristine, work, name, fault):
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    fault(os.path.join(work, name))
    return work


def _opens(data_dir, storage):
    try:
        service = CoreService.open(data_dir, storage)
    except CorruptStorageError:
        return False
    service.close()
    return True


def _only_torn_active_tail(report):
    active = report["segments"][-1] if report["segments"] else None
    return (active is not None and active["damage"] is not None
            and active["damage"]["torn"]
            and [issue["file"] for issue in report["issues"]]
            == [active["name"]])


def _assert_verdicts_agree(tmp_path, pristine, storage):
    """Damage copies of ``pristine`` one fault at a time and hold the
    dry-run scrub verdict to what :meth:`CoreService.open` does.

    ``storage`` is the seed graph; open() never mutates it, so every
    trial shares it."""
    work = str(tmp_path / "work")
    trials = 0
    for name, fault in _journal_faults(pristine):
        trials += 1
        dry = _damaged_copy(pristine, work, name, fault)
        report = scrub_directory(dry, repair=False)
        opened = _opens(dry, storage)
        if report["openable"]:
            # Nothing to repair: a repairing scrub would change nothing.
            assert opened, (name, fault, report)
            continue
        if opened:
            # open() truncates a torn active tail itself; the dry run
            # reports it without touching the file.
            assert _only_torn_active_tail(report), (name, fault, report)
        repaired = _damaged_copy(pristine, work, name, fault)
        if scrub_directory(repaired)["openable"]:
            assert _opens(repaired, storage), (name, fault)
    return trials


class TestVerdictAgreement:
    """Scrub's ``openable`` verdict matches :meth:`CoreService.open`
    for every tear and every third-byte bit flip of every journal
    file."""

    def test_segmented_directory(self, tmp_path, rng):
        n = 20
        edges = make_random_edges(rng, n, 0.2)
        pristine = str(tmp_path / "svc")
        os.makedirs(pristine)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=pristine,
            segment_events=2, checkpoint_interval=None)
        present = {tuple(sorted(e)) for e in edges}
        absent = iter([("+", u, v) for u in range(n)
                       for v in range(u + 1, n) if (u, v) not in present])
        # Batch sizes: a checkpoint after the first three events, then
        # two full segments and one event left in the active segment.
        for size in (2, 1, None, 2, 2, 1):
            if size is None:
                service.checkpoint()
            else:
                service.apply([next(absent) for _ in range(size)])
        service.close()
        assert scrub_directory(pristine, repair=False)["segments"][-1][
            "events"] == 1
        assert len([f for f in os.listdir(pristine)
                    if f.startswith("journal.")]) == 3
        trials = _assert_verdicts_agree(
            tmp_path, pristine, GraphStorage.from_edges(edges, n))
        assert trials > 100
