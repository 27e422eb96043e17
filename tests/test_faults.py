"""The fault-injection plane: plans, devices, executor resilience.

Everything here is deterministic: schedules derive from one seed, the
injection log records every fired fault, and the executor tests prove
the retry path reproduces bit-identical decompositions after a worker
is killed mid-round.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.engines import engine_implementation, register_engine
from repro.core.sharded import PersistentShardExecutor, sharded_semi_core_star
from repro.errors import ExecutorError, ReproError, StorageError
from repro.faults import (
    BIT_FLIP,
    KINDS,
    LATENCY,
    READ_ERROR,
    TORN_WRITE,
    WRITE_ERROR,
    FaultInjectingBlockDevice,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedReadError,
    InjectedWriteError,
    TornWriteError,
    flip_bit,
    tear_file,
)
from repro.storage.blockio import MemoryBlockDevice
from repro.storage.graphstore import GraphStorage

from tests.conftest import nx_core_numbers

pytestmark = pytest.mark.faults


class TestFaultPlan:
    def test_random_schedule_is_seed_deterministic(self):
        kwargs = dict(count=40, targets={"journal": None, "graph.*": None},
                      horizon=100)
        one = FaultPlan.random(7, **kwargs)
        two = FaultPlan.random(7, **kwargs)
        other = FaultPlan.random(8, **kwargs)
        as_dicts = lambda plan: [s.as_dict() for s in plan.specs]
        assert as_dicts(one) == as_dicts(two)
        assert as_dicts(one) != as_dicts(other)
        assert len(one.specs) == 40
        assert all(spec.kind in KINDS for spec in one.specs)

    def test_transient_fault_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec("dev", READ_ERROR, 1)])
        fired = [plan.next_fault("dev", "read") for _ in range(4)]
        assert [f is not None for f in fired] == [False, True, False,
                                                 False]
        assert len(plan.injected) == 1
        assert plan.injected[0]["at"] == 1

    def test_permanent_fault_fires_from_index_on(self):
        plan = FaultPlan([FaultSpec("dev", WRITE_ERROR, 2,
                                    permanent=True)])
        fired = [plan.next_fault("dev", "write") is not None
                 for _ in range(5)]
        assert fired == [False, False, True, True, True]

    def test_counters_are_per_target_and_per_direction(self):
        plan = FaultPlan([FaultSpec("a", READ_ERROR, 0),
                          FaultSpec("b", WRITE_ERROR, 0)])
        # b's reads and a's writes never hit either spec.
        assert plan.next_fault("b", "read") is None
        assert plan.next_fault("a", "write") is None
        assert plan.next_fault("a", "read") is not None
        assert plan.next_fault("b", "write") is not None

    def test_target_globs_match_fnmatch_style(self):
        plan = FaultPlan([FaultSpec("graph.*", READ_ERROR, 0,
                                    permanent=True)])
        assert plan.next_fault("graph.nodes", "read") is not None
        assert plan.next_fault("graph.edges", "read") is not None
        assert plan.next_fault("journal", "read") is None

    def test_calm_disables_firing_and_freezes_counters(self):
        plan = FaultPlan([FaultSpec("dev", READ_ERROR, 0)])
        with plan.calm():
            for _ in range(5):
                assert plan.next_fault("dev", "read") is None
        # The schedule was not consumed by the calm phase.
        assert plan.next_fault("dev", "read") is not None

    def test_report_counts_fired_faults_by_kind(self):
        plan = FaultPlan([FaultSpec("dev", READ_ERROR, 0),
                          FaultSpec("dev", LATENCY, 1, arg=0.0)])
        plan.next_fault("dev", "read")
        plan.next_fault("dev", "read")
        report = plan.report()
        assert report["scheduled"] == 2
        assert report["fired"] == 2
        assert report["by_kind"] == {READ_ERROR: 1, LATENCY: 1}

    def test_unknown_kind_and_negative_index_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("dev", "meteor-strike", 0)
        with pytest.raises(ValueError, match="index"):
            FaultSpec("dev", READ_ERROR, -1)

    def test_injected_errors_are_storage_errors(self):
        # Production retry paths catch StorageError; injected faults
        # must flow through them while staying distinguishable.
        for cls in (InjectedReadError, InjectedWriteError,
                    TornWriteError):
            assert issubclass(cls, StorageError)
            assert issubclass(cls, InjectedFault)


class TestAtRestHelpers:
    def test_flip_bit_flips_exactly_one_bit(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(32)))
        offset, bit = flip_bit(str(path), offset=5, bit=3)
        data = path.read_bytes()
        assert (offset, bit) == (5, 3)
        assert data[5] == 5 ^ (1 << 3)
        assert data[:5] == bytes(range(5))
        assert data[6:] == bytes(range(6, 32))

    def test_flip_bit_seeded_rng_is_deterministic(self, tmp_path):
        picks = []
        for trial in range(2):
            path = tmp_path / ("blob%d" % trial)
            path.write_bytes(bytes(64))
            picks.append(flip_bit(str(path),
                                  rng=FaultPlan(seed=3).rng()))
        assert picks[0] == picks[1]

    def test_tear_file_keeps_a_strict_prefix(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(100)))
        kept = tear_file(str(path), keep=37)
        assert kept == 37
        assert path.read_bytes() == bytes(range(37))

    def test_empty_files_are_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            flip_bit(str(path), offset=0)
        with pytest.raises(ValueError, match="empty"):
            tear_file(str(path), keep=0)


class TestFaultInjectingDevice:
    def _device(self, specs, data=b""):
        plan = FaultPlan(specs)
        inner = MemoryBlockDevice(data)
        return plan, inner, plan.wrap(inner, "dev")

    def test_clean_passthrough_and_single_io_accounting(self):
        plan, inner, dev = self._device([], data=bytes(64))
        dev.write_at(0, b"abcd")
        assert dev.read_at(0, 4) == b"abcd"
        # The proxy must not double-count: its stats ARE the inner's.
        assert dev.stats is inner.stats
        assert dev.size == inner.size
        assert dev.block_size == inner.block_size

    def test_read_error_fires_before_the_inner_read(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", READ_ERROR, 0)], data=bytes(64))
        before = inner.stats.read_ios
        with pytest.raises(InjectedReadError, match="dev"):
            dev.read_at(0, 8)
        assert inner.stats.read_ios == before
        # Transient: the retry succeeds.
        assert dev.read_at(0, 8) == bytes(8)

    def test_write_error_leaves_data_untouched(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", WRITE_ERROR, 0)], data=bytes(8))
        with pytest.raises(InjectedWriteError):
            dev.write_at(0, b"xxxxxxxx")
        assert inner.getvalue() == bytes(8)
        dev.write_at(0, b"xxxxxxxx")
        assert inner.getvalue() == b"xxxxxxxx"

    def test_torn_write_persists_exactly_the_prefix(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", TORN_WRITE, 0, arg=0.5)], data=bytes(8))
        with pytest.raises(TornWriteError, match="4 of 8"):
            dev.write_at(0, b"ABCDEFGH")
        assert inner.getvalue() == b"ABCD" + bytes(4)

    def test_torn_append_grows_by_the_prefix_only(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", TORN_WRITE, 0, arg=0.25)])
        with pytest.raises(TornWriteError):
            dev.append(b"ABCDEFGH")
        assert inner.getvalue() == b"AB"

    def test_bit_flip_corrupts_silently(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", BIT_FLIP, 0, arg=0.0)], data=bytes(8))
        dev.write_at(0, b"\x00" * 8)  # no error raised
        assert inner.getvalue() == b"\x01" + bytes(7)

    def test_latency_delays_then_serves(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", LATENCY, 0, arg=0.0)], data=b"payload!")
        assert dev.read_at(0, 8) == b"payload!"
        assert plan.injected[0]["kind"] == LATENCY

    def test_calm_plan_injects_nothing(self):
        plan, inner, dev = self._device(
            [FaultSpec("dev", READ_ERROR, 0, permanent=True)],
            data=bytes(8))
        with plan.calm():
            assert dev.read_at(0, 8) == bytes(8)
        with pytest.raises(InjectedReadError):
            dev.read_at(0, 8)

    def test_delegates_close_and_context_manager(self):
        plan, inner, dev = self._device([], data=bytes(8))
        with dev as handle:
            assert handle.read_at(0, 1) == b"\x00"
        assert inner.closed
        assert dev.closed

    def test_wrapping_graph_storage_devices(self, paper_graph):
        """A wrapped GraphStorage fails reads on schedule, then heals."""
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        # The glob matches both tables, but counters are per target:
        # the transient spec fires once on the node table and once on
        # the edge table.
        plan = FaultPlan([FaultSpec("graph.nodes", READ_ERROR, 0)])
        wrapped = GraphStorage(
            plan.wrap(storage.node_device, "graph.nodes"),
            plan.wrap(storage.edge_device, "graph.edges"),
            storage.num_nodes, storage.num_arcs)
        with pytest.raises(InjectedReadError):
            wrapped.neighbors(0)
        # Transient: same query now serves the true adjacency.
        assert list(wrapped.neighbors(0)) == list(storage.neighbors(0))


# ----------------------------------------------------------------------
# executor resilience
# ----------------------------------------------------------------------

def _alive_square(task):
    return task * task


def _sleep_forever(task):
    import time
    time.sleep(600)


def _die_by_sigkill(task):
    os.kill(os.getpid(), signal.SIGKILL)


def _die_once_then_square(task):
    sentinel = os.environ["REPRO_TEST_KILL_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return task * task


def _kill_once_shard_pass(graph, *, initial_cores, frozen_from):
    sentinel = os.environ["REPRO_TEST_KILL_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    real = engine_implementation("python", "shard-pass")
    return real(graph, initial_cores=initial_cores,
                frozen_from=frozen_from)


def _shm_segments():
    import glob
    return glob.glob("/dev/shm/repro_shm*")


class TestPersistentExecutorFaults:
    def test_executor_error_is_a_repro_error(self):
        assert issubclass(ExecutorError, ReproError)

    def test_round_deadline_raises_typed_error(self):
        executor = PersistentShardExecutor(
            processes=2, task_timeout=0.3, max_retries=0)
        try:
            with pytest.raises(ExecutorError, match="task_timeout"):
                executor.run(_sleep_forever, [1, 2, 3])
            # The executor stays usable after tearing down the hung pool.
            assert executor.run(_alive_square, [2]) == [4]
            assert executor.pool_forks == 2
        finally:
            executor.close()

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ReproError, match="task_timeout"):
            PersistentShardExecutor(task_timeout=-1.0)
        with pytest.raises(ReproError, match="max_retries"):
            PersistentShardExecutor(max_retries=-1)
        with pytest.raises(ReproError, match="retry_backoff"):
            PersistentShardExecutor(retry_backoff=-0.5)

    def test_killed_worker_raises_typed_error_not_hang(self):
        executor = PersistentShardExecutor(
            processes=2, task_timeout=30.0, max_retries=0)
        try:
            with pytest.raises(ExecutorError, match="died mid-round"):
                executor.run(_die_by_sigkill, [1, 2])
        finally:
            executor.close()

    def test_in_place_respawn_retries_the_whole_round(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KILL_SENTINEL",
                           str(tmp_path / "killed"))
        executor = PersistentShardExecutor(
            processes=2, task_timeout=30.0, max_retries=2,
            retry_backoff=0.0)
        try:
            assert executor.run(_die_once_then_square,
                                [1, 2, 3]) == [1, 4, 9]
            assert executor.respawns == 1
            assert executor.pool_forks == 1  # replaced, not re-forked
        finally:
            executor.close()

    def test_dead_worker_respawned_in_place_without_pool_refork(
            self, medium_random_graph, tmp_path, monkeypatch):
        """Acceptance: SIGKILL mid-pass; the worker is replaced in
        place, the round retried, the pool never re-forked, cores
        bit-identical -- and no shared-memory segment leaks."""
        edges, n = medium_random_graph
        expected = nx_core_numbers(edges, n)
        monkeypatch.setenv("REPRO_TEST_KILL_SENTINEL",
                           str(tmp_path / "killed"))
        register_engine("kill-once", "fault-injection test double",
                        lambda: {"shard-pass": _kill_once_shard_pass})
        executor = PersistentShardExecutor(
            processes=2, task_timeout=60.0, max_retries=2,
            retry_backoff=0.0)
        try:
            result = sharded_semi_core_star(
                GraphStorage.from_edges(edges, n), 3,
                engine="kill-once", executor=executor)
            assert list(result.cores) == expected
            assert executor.respawns >= 1
            assert executor.pool_forks == 1  # no per-round re-fork
            assert os.path.exists(str(tmp_path / "killed"))
        finally:
            executor.close()
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("kill-once", None)
        assert _shm_segments() == []

    def test_no_segment_leak_after_clean_run_and_close(self):
        from repro.datasets.generators import social_graph

        edges, n = social_graph(120, 2, 6, seed=5)
        executor = PersistentShardExecutor(processes=2)
        try:
            sharded_semi_core_star(GraphStorage.from_edges(edges, n), 3,
                                   executor=executor)
            # The driver already closed the plan with the executor.
            assert _shm_segments() == []
        finally:
            executor.close()
        assert _shm_segments() == []

    def test_no_segment_leak_after_worker_crash(self, paper_graph):
        """An exception mid-round must not orphan /dev/shm entries."""
        edges, n = paper_graph

        def crashing_pass(graph, *, initial_cores, frozen_from):
            raise ValueError("shard pass boom")

        register_engine("crashy-shm", "failure-injection test double",
                        lambda: {"shard-pass": crashing_pass})
        try:
            with pytest.raises(ValueError, match="shard pass boom"):
                sharded_semi_core_star(
                    GraphStorage.from_edges(edges, n), 2,
                    engine="crashy-shm", executor="persistent")
        finally:
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("crashy-shm", None)
        assert _shm_segments() == []

    def test_no_segment_leak_after_serial_pass_crash(self, paper_graph):
        """Serial runs build the shared round plan too."""
        edges, n = paper_graph

        def crashing_pass(graph, *, initial_cores, frozen_from):
            raise ValueError("shard pass boom")

        register_engine("crashy-serial", "failure-injection test double",
                        lambda: {"shard-pass": crashing_pass})
        try:
            with pytest.raises(ValueError, match="shard pass boom"):
                sharded_semi_core_star(
                    GraphStorage.from_edges(edges, n), 2,
                    engine="crashy-serial", executor="serial")
        finally:
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("crashy-serial", None)
        assert _shm_segments() == []

    def test_retries_exhausted_closes_pool_and_segment(self):
        executor = PersistentShardExecutor(
            processes=2, task_timeout=30.0, max_retries=1,
            retry_backoff=0.0)
        try:
            with pytest.raises(ExecutorError):
                executor.run(_die_by_sigkill, [1])
            # One in-place replacement per attempt (initial + 1 retry).
            assert executor.respawns == 2
        finally:
            executor.close()
        assert _shm_segments() == []
