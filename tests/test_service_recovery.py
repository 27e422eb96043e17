"""Crash-recovery tests: checkpoint + segmented-journal replay.

The contract (ISSUE acceptance): a service killed mid-batch -- or at
any point inside the checkpoint transaction (after the journal rotated,
or after the manifest landed but before compaction unlinked covered
segments) -- and resumed with :meth:`CoreService.open` must reproduce
the *straight-through* run's maintained state exactly -- ``core``,
``cnt`` and the epoch -- under both execution engines.  A batch counts
as applied the moment its journal append returns; the crash windows
between append, index update, rotation, manifest and compaction are
exactly what replay covers.  A data directory in the retired v1
single-file-journal layout is refused, and left untouched.
"""

import glob
import json
import os
import struct
import subprocess
import sys

import pytest

from repro.core.engines import engine_names
from repro.errors import CorruptStorageError, ReproError
from repro.service import CoreService, scrub_directory
from repro.service.journal import RECORD_SIZE, EventJournal
from repro.service.workload import generate_updates, in_batches
from repro.storage.graphstore import GraphStorage

from test_service_journal import batch_blob

ENGINES = engine_names()


class SimulatedCrash(Exception):
    pass


def graph_edges():
    from repro.datasets.generators import social_graph

    return social_graph(200, attach=3, clique=8, seed=11)


def update_batches(edges, n, count=28, batch=7):
    return in_batches(generate_updates(edges, n, count, seed=17), batch)


def straight_through(edges, n, batches, engine=None):
    """The reference run: every batch applied, no crash, no journal."""
    service = CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                       engine=engine)
    for events in batches:
        service.apply(events)
    return service


def state_of(service):
    return (list(service.maintainer.cores), list(service.maintainer.cnt),
            service.epoch, service.events_applied)


def active_segment_path(data_dir):
    """The journal segment appends currently land in."""
    segments = sorted(glob.glob(os.path.join(str(data_dir),
                                             "journal.*.log")))
    assert segments, "no journal segments under %s" % data_dir
    return segments[-1]


def read_manifest(data_dir):
    with open(os.path.join(str(data_dir), "manifest.json"),
              encoding="ascii") as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ENGINES)
class TestKillAndResume:
    def test_crash_between_journal_and_apply(self, tmp_path, engine):
        """Killed after the append: replay must still apply the batch."""
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=2)
        for events in batches[:-1]:
            service.apply(events)

        def crash():
            raise SimulatedCrash

        service._crash_after_journal = crash
        with pytest.raises(SimulatedCrash):
            service.apply(batches[-1])
        service.close()

        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches, engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()

    def test_crash_with_unjournaled_batch(self, tmp_path, engine):
        """A batch that never reached the journal is simply lost."""
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=None)
        for events in batches[:2]:
            service.apply(events)
        service.close()  # crash before batches[2] is even submitted

        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches[:2], engine=engine)
        assert state_of(resumed) == state_of(reference)

    def test_resume_continues_the_stream(self, tmp_path, engine):
        """Apply the tail after resume: end state equals straight-through."""
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=1)
        for events in batches[:2]:
            service.apply(events)
        service.close()

        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n),
                                   checkpoint_interval=1)
        for events in batches[2:]:
            resumed.apply(events)
        reference = straight_through(edges, n, batches, engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()


@pytest.mark.parametrize("engine", ENGINES)
class TestPublishCrashWindow:
    """Kills between building the next-epoch snapshot and the pointer
    swap publishing it -- the new window snapshot isolation adds.

    The swap is all-or-nothing twice over: the *live* read plane never
    shows a trace of the unpublished epoch, and the *reopened* service
    replays the journaled batch in full (the append returned, so by the
    durability contract the batch counts as applied) -- complete batch
    or nothing, never partial state.
    """

    def crashed_before_publish(self, tmp_path, engine):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=None)
        for events in batches[:-1]:
            service.apply(events)

        def crash():
            raise SimulatedCrash

        service._crash_before_publish = crash
        with pytest.raises(SimulatedCrash):
            service.apply(batches[-1])
        return edges, n, batches, data_dir, service

    def test_live_read_plane_stays_on_pre_swap_epoch(self, tmp_path,
                                                     engine):
        edges, n, batches, data_dir, service = \
            self.crashed_before_publish(tmp_path, engine)
        pre_epoch = len(batches) - 1
        # The maintainer already absorbed the batch, but nothing of the
        # unpublished epoch is readable: epoch, stats and every value
        # still answer the pre-swap snapshot, coherently.
        assert service.epoch == pre_epoch
        assert service.stats()["epoch"] == pre_epoch
        reference = straight_through(edges, n, batches[:-1],
                                     engine=engine)
        with service.read_view() as view:
            assert view.epoch == pre_epoch
            assert view.stats["epoch"] == pre_epoch
            assert [view.coreness(v) for v in range(n)] == \
                list(reference.maintainer.cores)
            assert view.degeneracy() == reference.degeneracy()
        service.close()

    def test_reopen_recovers_the_journaled_batch_wholesale(self,
                                                           tmp_path,
                                                           engine):
        edges, n, batches, data_dir, service = \
            self.crashed_before_publish(tmp_path, engine)
        service.close()
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches, engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()
        with resumed.read_view() as view:
            assert view.epoch == len(batches)
            assert [view.coreness(v) for v in range(n)] == \
                list(reference.maintainer.cores)


class TestCrossEngineResume:
    def test_python_seeded_journal_resumes_to_numpy_seeded_state(
            self, tmp_path):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine="python",
            data_dir=data_dir, checkpoint_interval=2)
        for events in batches:
            service.apply(events)
        service.close()

        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches, engine="numpy")
        assert state_of(resumed) == state_of(reference)


class TestRejection:
    def test_corrupted_journal_tail_rejected_at_open(self, tmp_path):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir,
            checkpoint_interval=None)
        for events in batches[:2]:
            service.apply(events)
        service.close()

        journal_file = active_segment_path(data_dir)
        with open(journal_file, "rb") as handle:
            data = bytearray(handle.read())
        data[-RECORD_SIZE + 1] ^= 0xFF
        with open(journal_file, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CorruptStorageError, match="checksum"):
            CoreService.open(data_dir, GraphStorage.from_edges(edges, n))

    def test_journal_shorter_than_checkpoint_rejected(self, tmp_path):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir,
            checkpoint_interval=1)
        for events in batches[:2]:
            service.apply(events)
        service.close()

        # Losing the journal files entirely leaves a fresh, empty
        # journal: the checkpoint now covers more events than it holds.
        for path in glob.glob(os.path.join(str(data_dir),
                                           "journal.*.log")):
            os.unlink(path)
        with pytest.raises(CorruptStorageError, match="covers"):
            CoreService.open(data_dir, GraphStorage.from_edges(edges, n))

    def test_journal_compacted_past_checkpoint_rejected(self, tmp_path):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir,
            checkpoint_interval=None)
        for events in batches[:2]:
            service.apply(events)
        # Force rotation + compaction beyond what the manifest (still
        # at the seed checkpoint, 0 events) covers.
        service.journal.rotate()
        assert service.journal.compact(service.events_applied)
        service.close()
        with pytest.raises(CorruptStorageError, match="compacted"):
            CoreService.open(data_dir, GraphStorage.from_edges(edges, n))

    @pytest.mark.parametrize("damage", ["missing", "truncated", "magic",
                                        "version", "checksum"])
    def test_damaged_delta_names_its_file(self, tmp_path, damage):
        edges, n = graph_edges()
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir,
            checkpoint_interval=None)
        service.apply(update_batches(edges, n)[0])
        service.checkpoint()
        service.close()
        path = os.path.join(str(data_dir), "graph.1.delta")
        assert read_manifest(data_dir)["delta"] == "graph.1.delta"
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        os.unlink(path)
        if damage != "missing":
            if damage == "truncated":
                del blob[10:]
            else:
                # A bit in the magic, the version, or the last record.
                offset = {"magic": 0, "version": 8,
                          "checksum": len(blob) - 5}[damage]
                blob[offset] ^= 0x02
            with open(path, "wb") as handle:
                handle.write(blob)
        with pytest.raises(CorruptStorageError) as info:
            CoreService.open(data_dir, GraphStorage.from_edges(edges, n))
        assert info.value.path == path

    def test_open_without_manifest_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="manifest"):
            CoreService.open(tmp_path)

    def test_reseeding_initialized_dir_rejected(self, tmp_path):
        edges, n = graph_edges()
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir)
        service.close()
        with pytest.raises(ReproError, match="already initialized"):
            CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                     data_dir=data_dir)

    def test_checkpoint_against_wrong_graph_rejected(self, tmp_path):
        edges, n = graph_edges()
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir)
        service.close()
        with pytest.raises(CorruptStorageError):
            CoreService.open(data_dir,
                             GraphStorage.from_edges(edges[: n // 2], n))


_CHILD_SCRIPT = """
import os, sys
from repro.service import CoreService
from repro.service.workload import generate_updates, in_batches
from repro.storage.graphstore import GraphStorage
from repro.datasets.generators import social_graph

prefix, data_dir = sys.argv[1], sys.argv[2]
edges, n = social_graph(200, attach=3, clique=8, seed=11)
storage = GraphStorage.open(prefix)
service = CoreService.from_storage(storage, data_dir=data_dir,
                                   checkpoint_interval=2)
batches = in_batches(generate_updates(edges, n, 28, seed=17), 7)
for events in batches[:-1]:
    service.apply(events)
service._crash_after_journal = lambda: os._exit(17)
service.apply(batches[-1])
os._exit(1)  # unreachable: the hook killed the process mid-batch
"""

#: Same child, but killed in the publish window: the next-epoch state
#: and snapshot exist in memory, the pointer swap never happens.
_PUBLISH_CHILD_SCRIPT = _CHILD_SCRIPT.replace(
    "service._crash_after_journal = lambda: os._exit(17)",
    "service._crash_before_publish = lambda: os._exit(23)",
).replace("mid-batch", "pre-publish")


class TestStorageOwnership:
    def test_self_opened_storage_closed_on_close_and_failure(self,
                                                             tmp_path):
        edges, n = graph_edges()
        prefix = str(tmp_path / "graph")
        GraphStorage.from_edges(edges, n, path=prefix).close()
        data_dir = tmp_path / "svc"
        seed_storage = GraphStorage.open(prefix)
        service = CoreService.from_storage(seed_storage, data_dir=data_dir)
        service.apply(update_batches(edges, n)[0])
        service.close()
        # Caller-provided storage stays the caller's to close.
        assert not seed_storage.node_device.closed
        seed_storage.close()

        # open() without storage reopens from the manifest and owns it.
        resumed = CoreService.open(data_dir)
        storage = resumed._owned_storage
        assert storage is not None
        resumed.close()
        assert storage.node_device.closed

        # A failed open() must not leak the storage it just opened.
        journal_file = active_segment_path(data_dir)
        with open(journal_file, "rb") as handle:
            data = bytearray(handle.read())
        data[-RECORD_SIZE + 1] ^= 0xFF
        with open(journal_file, "wb") as handle:
            handle.write(bytes(data))
        import gc

        with pytest.raises(CorruptStorageError):
            CoreService.open(data_dir)
        leaked = [obj for obj in gc.get_objects()
                  if isinstance(obj, GraphStorage)
                  and obj.path == prefix
                  and not obj.node_device.closed]
        assert not leaked, "open() leaked an unclosed self-opened storage"


@pytest.mark.parametrize("engine", ENGINES)
class TestRotationCrashWindows:
    """Kills inside the checkpoint transaction itself.

    Rotation, manifest write and compaction are distinct durability
    steps; a crash between any two of them must leave a directory that
    reopens to exactly the straight-through state.
    """

    def crashed_service(self, tmp_path, engine, hook_name):
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=2)
        for events in batches[:-1]:
            service.apply(events)

        def crash():
            raise SimulatedCrash

        setattr(service, hook_name, crash)
        # batches has 4 entries and the interval is 2: applying the
        # last one triggers the checkpoint that hits the hook.
        with pytest.raises(SimulatedCrash):
            service.apply(batches[-1])
        service.close()
        return edges, n, batches, data_dir

    def test_crash_between_seal_and_manifest_write(self, tmp_path,
                                                   engine):
        """The journal rotated but the manifest still has the old
        watermark: replay starts from the old checkpoint and crosses
        the fresh segment boundary."""
        edges, n, batches, data_dir = self.crashed_service(
            tmp_path, engine, "_crash_after_rotate")
        manifest = read_manifest(data_dir)
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches, engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()
        # The crash really did land in the window: the manifest
        # predates the rotation it describes.
        assert manifest["events_applied"] < resumed.events_applied

    def test_crash_between_manifest_write_and_unlink(self, tmp_path,
                                                     engine):
        """The new manifest landed but covered segments were not
        unlinked: the stragglers must be skipped on open and retired
        by the next checkpoint."""
        edges, n, batches, data_dir = self.crashed_service(
            tmp_path, engine, "_crash_before_compact")
        manifest = read_manifest(data_dir)
        stale = [s for s in glob.glob(
                     os.path.join(str(data_dir), "journal.*.log"))]
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches, engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()
        # The window is real: segments fully covered by the manifest
        # watermark are still on disk ...
        watermark = manifest["events_applied"]
        assert watermark == resumed.events_applied
        assert resumed.journal.first_retained_event < watermark
        assert len(stale) > 1
        # ... until the next checkpoint compacts them away.
        resumed.checkpoint()
        assert resumed.journal.first_retained_event >= watermark
        resumed.close()

    def test_torn_record_at_active_segment_tail(self, tmp_path, engine):
        """A torn tail is a crash mid-append: the whole trailing batch
        was never acknowledged and must be dropped, not replayed."""
        edges, n = graph_edges()
        batches = update_batches(edges, n)
        data_dir = tmp_path / "svc"
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), engine=engine,
            data_dir=data_dir, checkpoint_interval=None)
        for events in batches:
            service.apply(events)
        service.close()

        path = active_segment_path(data_dir)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-(RECORD_SIZE // 2) - RECORD_SIZE])
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        reference = straight_through(edges, n, batches[:-1],
                                     engine=engine)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()


class TestBoundedJournal:
    """The compaction invariant of the ISSUE acceptance criteria.

    After N batches with ``checkpoint_interval=c`` the data dir holds
    at most the active segment plus segments newer than the checkpoint
    watermark -- bounded by c batches, independent of N.
    """

    def run_service(self, tmp_path, num_batches, interval=2,
                    batch_size=4):
        edges, n = graph_edges()
        updates = in_batches(
            generate_updates(edges, n, num_batches * batch_size,
                             seed=23),
            batch_size)
        data_dir = tmp_path / ("svc%d" % num_batches)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=data_dir,
            checkpoint_interval=interval, segment_events=batch_size)
        for events in updates:
            service.apply(events)
        service.close()
        return data_dir, interval, batch_size

    def retained(self, data_dir):
        with EventJournal(data_dir) as jrn:
            return (jrn.num_events - jrn.first_retained_event,
                    jrn.num_segments, jrn.num_events)

    def test_dir_bounded_by_interval_independent_of_n(self, tmp_path):
        sizes = {}
        for num_batches in (4, 16):
            data_dir, interval, batch_size = self.run_service(
                tmp_path, num_batches)
            retained, segments, total = self.retained(data_dir)
            manifest = read_manifest(data_dir)
            # Everything the checkpoint covers is gone from disk ...
            assert total - retained <= manifest["events_applied"]
            # ... so what remains is bounded by the interval, not N.
            assert retained <= interval * batch_size
            assert segments <= interval + 1
            sizes[num_batches] = (retained, segments)
        assert sizes[16][0] <= sizes[4][0] + 2 * 4  # no growth with N

    def test_open_replays_only_post_watermark_tail(self, tmp_path):
        data_dir, _, _ = self.run_service(tmp_path, 12)
        manifest = read_manifest(data_dir)
        edges, n = graph_edges()
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        # The replayed tail is exactly events past the watermark.
        tail = resumed.events_applied - manifest["events_applied"]
        assert tail == resumed.journal.num_events \
            - manifest["events_applied"]
        assert resumed.verify()
        resumed.close()


class TestV1LayoutRefused:
    """The retired v1 layout -- one ``journal.log``, a checkpoint with
    no CRC and an unchecksummed version-1 manifest -- is refused by
    ``open()`` and by scrub, and neither touches a file of it."""

    def build(self, tmp_path):
        edges, n = graph_edges()
        data_dir = str(tmp_path / "v1svc")
        os.makedirs(data_dir)
        journal = struct.pack("<8sI4x", b"RPRJRNL1", 1) + batch_blob(
            update_batches(edges, n)[0], 1)
        seed = straight_through(edges, n, [])
        state = struct.pack("<8sIQQ4x", b"RPRSTAT1", 1, n,
                            seed.graph.num_arcs) \
            + seed.maintainer.cores.tobytes() \
            + seed.maintainer.cnt.tobytes()
        manifest = json.dumps({
            "version": 1, "epoch": 0, "events_applied": 0,
            "checkpoint": "state.ckpt", "journal": "journal.log",
            "graph_path": None, "seed_algorithm": "semicore*",
            "num_nodes": n}).encode("ascii")
        for name, blob in (("journal.log", journal), ("state.ckpt", state),
                           ("manifest.json", manifest)):
            with open(os.path.join(data_dir, name), "wb") as handle:
                handle.write(blob)
        return edges, n, data_dir

    @staticmethod
    def files(data_dir):
        contents = {}
        for name in sorted(os.listdir(data_dir)):
            with open(os.path.join(data_dir, name), "rb") as handle:
                contents[name] = handle.read()
        return contents

    def test_open_and_scrub_refuse_without_touching_a_file(self,
                                                            tmp_path):
        edges, n, data_dir = self.build(tmp_path)
        before = self.files(data_dir)
        with pytest.raises(CorruptStorageError, match="version 1") as info:
            CoreService.open(data_dir, GraphStorage.from_edges(edges, n))
        assert info.value.path == os.path.join(data_dir, "manifest.json")
        assert self.files(data_dir) == before
        report = scrub_directory(data_dir)
        assert not report["openable"]
        assert report["actions"] == []
        assert [issue["file"] for issue in report["issues"]] \
            == ["manifest.json"]
        assert "version 1" in report["issues"][0]["problem"]
        assert self.files(data_dir) == before


class TestKillProcess:
    def test_hard_kill_mid_batch(self, tmp_path):
        """A real ``os._exit`` mid-batch, recovered in this process."""
        edges, n = graph_edges()
        prefix = str(tmp_path / "graph")
        GraphStorage.from_edges(edges, n, path=prefix).close()
        data_dir = str(tmp_path / "svc")
        script = tmp_path / "crash_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), prefix, data_dir],
            capture_output=True, text=True, env=env, timeout=240)
        assert proc.returncode == 17, proc.stderr

        # The dead service's journal covers every batch (the append of
        # the last one completed before the kill); batches before the
        # compaction watermark are gone -- that is the point.
        with EventJournal(data_dir) as jrn:
            assert jrn.num_events == 28
            retained = jrn.batches(jrn.first_retained_event)
            assert [batch for batch, _ in retained] == [3, 4]

        resumed = CoreService.open(data_dir)
        batches = update_batches(edges, n)
        reference = straight_through(edges, n, batches)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()

    def test_hard_kill_in_publish_window(self, tmp_path):
        """A real ``os._exit`` between snapshot build and pointer swap:
        the unpublished epoch dies with the process, the journaled
        batch replays in full on open."""
        edges, n = graph_edges()
        prefix = str(tmp_path / "graph")
        GraphStorage.from_edges(edges, n, path=prefix).close()
        data_dir = str(tmp_path / "svc")
        script = tmp_path / "crash_publish_child.py"
        script.write_text(_PUBLISH_CHILD_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), prefix, data_dir],
            capture_output=True, text=True, env=env, timeout=240)
        assert proc.returncode == 23, proc.stderr

        # The journal acknowledged every batch before the kill.
        with EventJournal(data_dir) as jrn:
            assert jrn.num_events == 28

        resumed = CoreService.open(data_dir)
        batches = update_batches(edges, n)
        reference = straight_through(edges, n, batches)
        assert state_of(resumed) == state_of(reference)
        assert resumed.verify()
