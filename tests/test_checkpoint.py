"""Tests for maintenance-state checkpointing."""

import pytest

from repro.storage.state import (
    load_checkpoint,
    save_checkpoint,
)
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.errors import CorruptStorageError
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


def fresh_maintainer():
    return CoreMaintainer.from_storage(GraphStorage.from_edges(EDGES, 5))


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        cores, cnt = load_checkpoint(path)
        assert list(cores) == list(maintainer.cores)
        assert list(cnt) == list(maintainer.cnt)

    def test_resume_skips_reseeding(self, tmp_path):
        first = fresh_maintainer()
        first.insert_edge(2, 4)
        path = tmp_path / "state.ckpt"
        first.save_state(path)

        graph = first.graph
        resumed = CoreMaintainer.resume(graph, path)
        assert list(resumed.cores) == list(first.cores)
        assert resumed.verify()

    def test_resume_continues_updating(self, tmp_path):
        first = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        first.save_state(path)
        resumed = CoreMaintainer.resume(first.graph, path)
        resumed.insert_edge(2, 4)
        resumed.delete_edge(0, 1)
        assert resumed.verify()


class TestFingerprint:
    def test_wrong_graph_rejected(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        other = DynamicGraph(GraphStorage.from_edges(EDGES[:3], 5))
        with pytest.raises(CorruptStorageError, match="arcs"):
            CoreMaintainer.resume(other, path)

    def test_wrong_node_count_rejected(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        other = DynamicGraph(GraphStorage.from_edges(EDGES, 9))
        with pytest.raises(CorruptStorageError, match="n="):
            CoreMaintainer.resume(other, path)

    def test_load_without_graph_skips_fingerprint(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        cores, cnt = load_checkpoint(path)
        assert len(cores) == 5


class TestCorruption:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"\x00" * 4)
        with pytest.raises(CorruptStorageError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        data = bytearray(path.read_bytes())
        data[0] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptStorageError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(CorruptStorageError, match="payload"):
            load_checkpoint(path)

    def test_version_1_header_refused(self, tmp_path):
        """The version-1 layout (no trailing CRC) is no longer read."""
        maintainer = fresh_maintainer()
        path = tmp_path / "state.ckpt"
        maintainer.save_state(path)
        data = bytearray(path.read_bytes())
        data[8] = 1
        path.write_bytes(bytes(data[:-4]))
        with pytest.raises(CorruptStorageError, match="version 1"):
            load_checkpoint(path)

    def test_array_length_mismatch_on_save(self, tmp_path):
        graph = DynamicGraph(GraphStorage.from_edges(EDGES, 5))
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", graph, [1, 2], [1, 2])
