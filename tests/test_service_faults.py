"""Fault-tolerant serving: transactional apply, quarantine, chaos.

The service-level half of the fault plane.  Live failures are injected
through :class:`FaultInjectingBlockDevice` wrappers around the seed
graph tables (maintenance reads flow through them) or by patching the
journal append; at-rest corruption uses the :func:`flip_bit` /
:func:`tear_file` helpers.  ``REPRO_FAULT_SEED`` reseeds the chaos
schedule, so CI can sweep seeds without code changes.
"""

from __future__ import annotations

import os
from array import array

import pytest

from repro.errors import (
    BatchQuarantinedError,
    CorruptStorageError,
    ReproError,
    ServiceDegradedError,
    StorageError,
)
from repro.faults import (
    LATENCY,
    READ_ERROR,
    FaultPlan,
    FaultSpec,
    InjectedReadError,
    InjectedWriteError,
    flip_bit,
    tear_file,
)
from repro.service import CoreService, scrub_directory
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges

pytestmark = pytest.mark.faults

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20160501"))


def _faulted_storage(edges, n, plan):
    """Seed tables whose devices answer to the plan's graph targets."""
    inner = GraphStorage.from_edges(edges, n)
    return GraphStorage(
        plan.wrap(inner.node_device, "graph.nodes"),
        plan.wrap(inner.edge_device, "graph.edges"),
        inner.num_nodes, inner.num_arcs)


def _service(edges, n, plan=None, **kwargs):
    """A service over (optionally fault-wrapped) seed tables.

    Seeding runs with the plan disarmed so the schedule is consumed
    only by the applies under test.
    """
    if plan is None:
        return CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                        **kwargs)
    storage = _faulted_storage(edges, n, plan)
    with plan.calm():
        return CoreService.from_storage(storage, **kwargs)


def _flaky_maintenance(service, failures, error=InjectedReadError):
    """Patch the maintainer to fail the next ``failures`` attempts."""
    real = service.maintainer.apply_batch
    state = {"left": failures}

    def patched(ops, **kwargs):
        if ops and state["left"] > 0:
            state["left"] -= 1
            raise error("injected maintenance failure")
        return real(ops, **kwargs)

    service.maintainer.apply_batch = patched
    return state


def _absent_edges(edges, n, count):
    """The first ``count`` node pairs NOT in ``edges`` (valid inserts)."""
    present = {tuple(sorted(e)) for e in edges}
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                out.append((u, v))
                if len(out) == count:
                    return out
    return out


PAPER_EDGES_N = None


@pytest.fixture
def small_graph(rng):
    n = 40
    return make_random_edges(rng, n, 0.12), n


class TestTransactionalApply:
    def test_transient_failure_retries_to_identical_state(
            self, small_graph):
        edges, n = small_graph
        faulty = _service(edges, n, retry_backoff=0.0)
        oracle = _service(edges, n)
        _flaky_maintenance(faulty, failures=1)
        batch = [("+",) + _absent_edges(edges, n, 1)[0]]
        summary = faulty.apply(batch)
        oracle.apply(batch)
        assert summary["epoch"] == 1
        assert faulty.degraded is None
        assert list(faulty.maintainer.cores) == \
            list(oracle.maintainer.cores)
        assert sorted(faulty.graph.edges()) == sorted(oracle.graph.edges())

    def test_negative_retry_backoff_rejected(self, small_graph, tmp_path):
        """A negative backoff would make the retry's sleep raise after
        the rollback, leaving the live service behind its journal."""
        edges, n = small_graph
        with pytest.raises(ReproError, match="retry_backoff"):
            _service(edges, n, retry_backoff=-0.5)
        service = _service(edges, n, data_dir=str(tmp_path),
                           retry_backoff=0.0)
        service.close()
        with pytest.raises(ReproError, match="retry_backoff"):
            CoreService.open(str(tmp_path),
                             GraphStorage.from_edges(edges, n),
                             retry_backoff=-1.0)

    def test_exhausted_retries_quarantine_the_batch(self, small_graph,
                                                    tmp_path):
        edges, n = small_graph
        service = _service(edges, n, data_dir=str(tmp_path),
                           apply_retries=1, retry_backoff=0.0)
        pre_cores = list(service.maintainer.cores)
        pre_edges = sorted(service.graph.edges())
        (e1,) = _absent_edges(edges, n, 1)
        _flaky_maintenance(service, failures=10)
        with pytest.raises(BatchQuarantinedError) as exc_info:
            service.apply([("+",) + e1])
        assert exc_info.value.batch == 1
        # Rolled back: the live plane is bit-identical to pre-batch...
        assert list(service.maintainer.cores) == pre_cores
        assert sorted(service.graph.edges()) == pre_edges
        # ...but the epoch was consumed and the state is degraded.
        assert service.epoch == 1
        assert service.quarantined_batches == [1]
        assert "quarantined" in service.degraded
        stats = service.stats()
        assert stats["quarantined"] == [1]
        assert stats["events_quarantined"] == 1
        # Reads keep serving.
        assert service.coreness(0) == pre_cores[0]

    def test_reads_and_writes_continue_after_quarantine(
            self, small_graph, tmp_path):
        edges, n = small_graph
        service = _service(edges, n, data_dir=str(tmp_path),
                           apply_retries=0, retry_backoff=0.0)
        oracle = _service(edges, n)
        e1, e2 = _absent_edges(edges, n, 2)
        _flaky_maintenance(service, failures=1)
        with pytest.raises(BatchQuarantinedError):
            service.apply([("+",) + e1])
        # The next batch applies cleanly and clears the degraded flag.
        service.apply([("+",) + e2])
        oracle.apply([("+",) + e2])
        assert service.degraded is None
        assert service.epoch == 2
        assert list(service.maintainer.cores) == \
            list(oracle.maintainer.cores)

    def test_quarantined_batch_skipped_on_replay(self, small_graph,
                                                 tmp_path):
        edges, n = small_graph
        service = _service(edges, n, data_dir=str(tmp_path),
                           apply_retries=0, retry_backoff=0.0)
        e0, e1, e2 = _absent_edges(edges, n, 3)
        service.apply([("+",) + e0])
        _flaky_maintenance(service, failures=1)
        with pytest.raises(BatchQuarantinedError):
            service.apply([("+",) + e1])
        service.apply([("+",) + e2])
        live_cores = list(service.maintainer.cores)
        live_epoch = service.epoch
        service.close()
        resumed = CoreService.open(str(tmp_path),
                                   GraphStorage.from_edges(edges, n))
        assert resumed.epoch == live_epoch
        assert list(resumed.maintainer.cores) == live_cores
        assert resumed.quarantined_batches == [2]
        assert not resumed.graph.has_edge(*e1)
        assert resumed.graph.has_edge(*e2)
        resumed.close()

    def test_quarantine_survives_checkpoint_manifest(self, small_graph,
                                                     tmp_path):
        edges, n = small_graph
        service = _service(edges, n, data_dir=str(tmp_path),
                           apply_retries=0, retry_backoff=0.0)
        (e1,) = _absent_edges(edges, n, 1)
        _flaky_maintenance(service, failures=1)
        with pytest.raises(BatchQuarantinedError):
            service.apply([("+",) + e1])
        service.checkpoint()
        service.close()
        resumed = CoreService.open(str(tmp_path),
                                   GraphStorage.from_edges(edges, n))
        assert resumed.quarantined_batches == [1]
        assert resumed.stats()["quarantined"] == [1]
        resumed.close()

    def test_rollback_failure_poisons_writes_not_reads(self,
                                                       small_graph,
                                                       tmp_path):
        edges, n = small_graph
        service = _service(edges, n, data_dir=str(tmp_path),
                           apply_retries=0, retry_backoff=0.0)
        pre_kmax = service.degeneracy()
        # The failing batch reaches the graph and breaks its updates as
        # it dies, so validation passes but the rollback's graph repair
        # cannot take the edge back out -- the worst case the poison
        # path guards.
        state = {"broken": False}
        real_apply = service.maintainer.apply_batch
        real_delete_edge = service.graph.delete_edge

        def dying_apply(ops, **kwargs):
            if ops:
                _, u, v = ops[0]
                service.graph.insert_edge(u, v, validate=False)
                state["broken"] = True
                raise InjectedReadError("injected maintenance failure")
            return real_apply(ops, **kwargs)

        def broken_delete_edge(u, v, **kwargs):
            if state["broken"]:
                raise InjectedReadError("injected rollback failure")
            return real_delete_edge(u, v, **kwargs)

        service.maintainer.apply_batch = dying_apply
        service.graph.delete_edge = broken_delete_edge
        e1, e2 = _absent_edges(edges, n, 2)
        with pytest.raises(ServiceDegradedError, match="rollback"):
            service.apply([("+",) + e1])
        state["broken"] = False
        # The write plane is poisoned...
        with pytest.raises(ServiceDegradedError):
            service.apply([("+",) + e2])
        with pytest.raises(ServiceDegradedError):
            service.checkpoint()
        # ...while reads keep answering from the published epoch.
        assert service.degeneracy() == pre_kmax
        assert "rollback" in service.stats()["degraded"]

    def test_rollback_of_a_partial_batch_reads_no_device(self,
                                                         small_graph):
        """The rollback restores membership from the batch itself, so a
        transient read fault cannot fail it."""
        edges, n = small_graph
        service = _service(edges, n, apply_retries=0, retry_backoff=0.0)
        pre_cores = list(service.maintainer.cores)
        pre_edges = sorted(service.graph.edges())
        x, z = tuple(edges[0]), tuple(edges[1])
        y = _absent_edges(edges, n, 1)[0]
        # x goes and comes back, y arrives, z never gets its turn: only
        # y needs repair, and neither x nor z is in the edge buffer.
        batch = [("-",) + x, ("+",) + y, ("+",) + x, ("-",) + z]
        real_apply = service.maintainer.apply_batch
        state = {}

        def dying_apply(ops, **kwargs):
            real_apply(ops[:3], **kwargs)
            service.graph.storage.drop_caches()  # any read now costs
            state["io"] = service.io_stats.snapshot()
            raise InjectedReadError("injected maintenance failure")

        service.maintainer.apply_batch = dying_apply
        with pytest.raises(BatchQuarantinedError):
            service.apply(batch)
        assert service.io_stats.delta_since(state["io"]).read_ios == 0
        assert list(service.maintainer.cores) == pre_cores
        assert sorted(service.graph.edges()) == pre_edges

    def test_logic_errors_still_propagate_untouched(self, small_graph):
        edges, n = small_graph
        service = _service(edges, n, retry_backoff=0.0)
        with pytest.raises(ReproError, match="already"):
            service.apply([("+", edges[0][0], edges[0][1])])
        # Not a storage failure: nothing quarantined, nothing degraded.
        assert service.degraded is None
        assert service.quarantined_batches == []

    def test_injected_device_fault_flows_through_recovery(
            self, small_graph):
        """End to end: a scheduled device read error triggers the
        retry path with no patching of service internals."""
        edges, n = small_graph
        plan = FaultPlan([FaultSpec("graph.*", READ_ERROR, 0)])
        service = _service(edges, n, plan, retry_backoff=0.0)
        oracle = _service(edges, n)
        batch = [("+",) + _absent_edges(edges, n, 1)[0]]
        service.apply(batch)
        oracle.apply(batch)
        assert list(service.maintainer.cores) == \
            list(oracle.maintainer.cores)
        # At least one injected fault actually fired.
        assert plan.report()["fired"] >= 1


class TestCorruptionMatrix:
    """Bit-flip every artifact class; open must never serve wrong
    coreness silently -- each class either fails typed or recovers."""

    def _seed_dir(self, tmp_path, edges, n):
        d = str(tmp_path / "svc")
        os.makedirs(d)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=d,
            segment_events=2)
        service.apply([("+", 0, 1)] if (0, 1) not in
                      map(tuple, map(sorted, edges)) else [("-", 0, 1)])
        service.apply([("+", 0, 2)] if (0, 2) not in
                      map(tuple, map(sorted, edges)) else [("-", 0, 2)])
        service.checkpoint()
        service.apply([("+", 1, 2)] if (1, 2) not in
                      map(tuple, map(sorted, edges)) else [("-", 1, 2)])
        cores = list(service.maintainer.cores)
        service.close()
        return d, cores

    def _artifact(self, data_dir, kind):
        if kind == "manifest":
            return os.path.join(data_dir, "manifest.json")
        if kind == "checkpoint":
            name = [f for f in os.listdir(data_dir)
                    if f.endswith(".ckpt")][0]
            return os.path.join(data_dir, name)
        if kind == "delta":
            name = [f for f in os.listdir(data_dir)
                    if f.endswith(".delta")][0]
            return os.path.join(data_dir, name)
        segments = sorted(f for f in os.listdir(data_dir)
                          if f.startswith("journal."))
        if kind == "sealed-segment":
            return os.path.join(data_dir, segments[0])
        return os.path.join(data_dir, segments[-1])  # active-segment

    @pytest.mark.parametrize("artifact", ["manifest", "checkpoint",
                                          "delta", "sealed-segment",
                                          "active-segment"])
    def test_bit_flip_is_caught_or_recovered(self, tmp_path, rng,
                                             artifact):
        edges = make_random_edges(rng, 30, 0.15)
        data_dir, true_cores = self._seed_dir(tmp_path, edges, 30)
        path = self._artifact(data_dir, artifact)
        plan = FaultPlan(seed=SEED)
        # Flip a payload byte past the tiny fixed headers so the CRC
        # (not a magic/version check) is what must catch it.
        offset = 32 + plan.rng().randrange(
            max(1, os.path.getsize(path) - 32))
        flip_bit(path, offset=min(offset, os.path.getsize(path) - 1),
                 bit=plan.rng().randrange(8))
        storage = GraphStorage.from_edges(edges, 30)
        try:
            service = CoreService.open(data_dir, storage)
        except (CorruptStorageError, ReproError):
            # Typed rejection is a pass; silent wrong coreness is the
            # only failure mode this test exists to rule out.
            return
        try:
            assert list(service.maintainer.cores) == true_cores
        finally:
            service.close()

    @pytest.mark.parametrize("artifact", ["manifest", "active-segment"])
    def test_scrub_recovers_recoverable_classes(self, tmp_path, rng,
                                                artifact):
        edges = make_random_edges(rng, 30, 0.15)
        data_dir, true_cores = self._seed_dir(tmp_path, edges, 30)
        path = self._artifact(data_dir, artifact)
        if artifact == "manifest":
            flip_bit(path, offset=os.path.getsize(path) // 2, bit=1)
        else:
            tear_file(path, keep=os.path.getsize(path) - 3)
        report = scrub_directory(data_dir, force=True)
        assert report["openable"], report
        assert report["actions"]
        service = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, 30))
        # The manifest restore loses nothing; the torn tail drops the
        # unacknowledged suffix -- either way the state must be a true
        # prefix state, never garbage.
        assert service.verify() is True
        service.close()

    def test_truncated_checkpoint_rejected_with_location(self, tmp_path,
                                                         rng):
        edges = make_random_edges(rng, 30, 0.15)
        data_dir, _ = self._seed_dir(tmp_path, edges, 30)
        path = self._artifact(data_dir, "checkpoint")
        tear_file(path, keep=os.path.getsize(path) - 5)
        with pytest.raises(CorruptStorageError) as exc_info:
            CoreService.open(data_dir,
                             GraphStorage.from_edges(edges, 30))
        assert exc_info.value.path == path


class TestScrubReport:
    def test_clean_directory_reports_openable_no_actions(self, tmp_path,
                                                         rng):
        edges = make_random_edges(rng, 25, 0.15)
        d = str(tmp_path / "svc")
        os.makedirs(d)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, 25), data_dir=d)
        service.apply([("+", 0, 1)] if (0, 1) not in
                      map(tuple, map(sorted, edges)) else [("-", 0, 1)])
        service.checkpoint()
        service.close()
        report = scrub_directory(d)
        assert report["openable"]
        assert report["issues"] == []
        assert report["actions"] == []
        assert report["manifest"]["version"] == 2

    def test_dry_run_touches_nothing(self, tmp_path, rng):
        edges = make_random_edges(rng, 25, 0.15)
        d = str(tmp_path / "svc")
        os.makedirs(d)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, 25), data_dir=d)
        service.apply([("+", 0, 1)] if (0, 1) not in
                      map(tuple, map(sorted, edges)) else [("-", 0, 1)])
        service.close()
        segments = sorted(f for f in os.listdir(d)
                          if f.startswith("journal."))
        active = os.path.join(d, segments[-1])
        tear_file(active, keep=os.path.getsize(active) - 3)
        before = {f: os.path.getsize(os.path.join(d, f))
                  for f in os.listdir(d)}
        report = scrub_directory(d, repair=False)
        after = {f: os.path.getsize(os.path.join(d, f))
                 for f in os.listdir(d)}
        assert not report["openable"]
        assert report["actions"] == []
        assert before == after

    def test_missing_directory_reports_not_openable(self, tmp_path):
        report = scrub_directory(str(tmp_path / "nope"))
        assert not report["openable"]
        assert report["issues"]


# ----------------------------------------------------------------------
# the chaos test
# ----------------------------------------------------------------------

class TestChaos:
    def test_seeded_chaos_run_matches_fault_free_oracle(self, tmp_path):
        """Acceptance: a 500-event seeded FaultPlan over live serving;
        every survivor state is bit-identical to the oracle's, failed
        batches are quarantined (not lost to silent corruption), and
        scrub returns every at-rest-corrupted directory to an openable
        state whose contents are a true oracle prefix."""
        plan = FaultPlan.random(
            SEED, 500,
            {"graph.nodes": (READ_ERROR, LATENCY),
             "graph.edges": (READ_ERROR, LATENCY)},
            horizon=400, permanent_ratio=0.0,
            latency_seconds=0.0)
        rng = plan.rng()
        n = 60
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.08]
        data_dir = str(tmp_path / "svc")
        os.makedirs(data_dir)

        storage = _faulted_storage(edges, n, plan)
        with plan.calm():
            service = CoreService.from_storage(
                storage, data_dir=data_dir, segment_events=8,
                apply_retries=2, retry_backoff=0.0)
        oracle = CoreService.from_storage(
            GraphStorage.from_edges(edges, n))

        # Phase A: live serving under fire.  epoch -> expected state.
        with plan.calm():
            epoch_cores = {0: list(service.maintainer.cores)}
            epoch_edges = {0: sorted(service.graph.edges())}
        present = {tuple(sorted(e)) for e in edges}
        quarantined = []
        rejected = 0
        for step in range(40):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                v = (v + 1) % n
            key = (u, v) if u < v else (v, u)
            op = "-" if key in present else "+"
            batch = [(op, u, v)]
            try:
                service.apply(batch)
            except BatchQuarantinedError:
                quarantined.append(service.epoch)
            except StorageError:
                # Validation-time rejection: nothing was journaled or
                # mutated, the epoch did not move -- the client simply
                # failed to submit and may retry later.
                rejected += 1
            else:
                present.symmetric_difference_update({key})
                oracle.apply(batch)
            # Bit-for-bit parity of the survivor state after every
            # batch, quarantined or not.  The parity reads themselves
            # run calm: they are the test harness, not the workload.
            with plan.calm():
                assert list(service.maintainer.cores) == \
                    list(oracle.maintainer.cores)
                assert sorted(service.graph.edges()) == \
                    sorted(oracle.graph.edges())
                epoch_cores[service.epoch] = \
                    list(service.maintainer.cores)
                epoch_edges[service.epoch] = \
                    sorted(service.graph.edges())
                # Reads of the touched endpoints serve oracle values.
                assert service.coreness(u) == oracle.coreness(u)
                assert service.coreness(v) == oracle.coreness(v)
            if step == 20:
                with plan.calm():
                    service.checkpoint()
        assert sorted(service.quarantined_batches) == quarantined
        assert plan.report()["fired"] > 0
        with plan.calm():
            final_epoch = service.epoch
            service.checkpoint()
            service.close()

        # Quarantined batches survive restart as skips, not data.
        resumed = CoreService.open(data_dir,
                                   GraphStorage.from_edges(edges, n))
        assert resumed.epoch == final_epoch
        assert list(resumed.maintainer.cores) == epoch_cores[final_epoch]
        assert sorted(resumed.quarantined_batches) == quarantined
        resumed.close()

        # Phase B: at-rest corruption -> scrub -> reopen parity.
        for trial in range(3):
            segments = sorted(f for f in os.listdir(data_dir)
                              if f.startswith("journal."))
            choice = trial % 2
            if choice == 0:
                flip_bit(os.path.join(data_dir, "manifest.json"),
                         rng=rng)
            else:
                active = os.path.join(data_dir, segments[-1])
                if os.path.getsize(active) > 33:
                    tear_file(active,
                              keep=32 + rng.randrange(
                                  os.path.getsize(active) - 32))
            report = scrub_directory(data_dir, force=True)
            assert report["openable"], report
            reopened = CoreService.open(
                data_dir, GraphStorage.from_edges(edges, n))
            # Whatever the damage dropped, the reopened state must be
            # the oracle state at its own epoch -- a true prefix,
            # never an invented one.
            assert reopened.epoch in epoch_cores
            assert list(reopened.maintainer.cores) == \
                epoch_cores[reopened.epoch]
            assert sorted(reopened.graph.edges()) == \
                epoch_edges[reopened.epoch]
            assert reopened.verify() is True
            with plan.calm():
                reopened.close()
