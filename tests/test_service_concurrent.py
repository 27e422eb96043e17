"""Race tests for snapshot-isolated concurrent serving.

Three layers of adversarial pressure on the epoch-snapshot protocol:

* deterministic swap-window tests -- a reader pinned (by barrier, or by
  the pre-publish injection hook) across an ``apply()`` swap must keep
  observing its own epoch's coherent (coreness, epoch, stats) triple;
* the refcounted-retirement contract -- a superseded snapshot serves its
  pinned readers, drops on the last release, and never accepts new pins;
* stress + property layers -- reader threads race a writer across many
  swaps (zero torn reads, and every returned value must equal a
  single-threaded straight-through replay at the epoch the read
  observed), on random graphs and on the small registry proxies, across
  engines.

Threaded tests carry ``@pytest.mark.concurrent``: CI repeats them with
varying ``REPRO_CONCURRENT_SEED`` values (see ``_stress_seed``).
"""

import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import engine_names
from repro.datasets.generators import paper_example_graph, social_graph
from repro.datasets.registry import generate_dataset
from repro.service import (
    CoreService,
    generate_queries,
    run_concurrent_workload,
    verify_epoch_coherence,
)
from repro.service.workload import (
    execute_query,
    generate_updates,
    in_batches,
)
from repro.storage.graphstore import GraphStorage

from tests.conftest import graph_edges

ENGINES = engine_names()
SMALL_PROXIES = ["dblp", "youtube", "wiki"]

#: A batch that provably moves core numbers: the seed graph is a
#: triangle plus an isolated node, the batch completes the 4-clique
#: (every coreness goes 2 -> 3, node 3 goes 0 -> 3).
K4_SEED_EDGES = [(0, 1), (1, 2), (0, 2)]
K4_BATCH = [("+", 0, 3), ("+", 1, 3), ("+", 2, 3)]


def _stress_seed():
    """Workload seed for the threaded stress tests.

    CI's ``pytest -m concurrent`` step repeats the run with different
    values, so the interleavings and query mixes vary across
    repetitions while any single run stays reproducible.
    """
    return int(os.environ.get("REPRO_CONCURRENT_SEED", "0"))


def k4_service(**kwargs):
    return CoreService.from_storage(
        GraphStorage.from_edges(K4_SEED_EDGES, 4), **kwargs)


def paper_service(**kwargs):
    edges, n = paper_example_graph()
    return CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                    **kwargs)


class TestSwapWindow:
    """Deterministic single-swap scenarios around the publish point."""

    def test_view_pins_epoch_across_swap(self):
        service = k4_service()
        with service.read_view() as view:
            assert view.epoch == 0
            assert view.coreness(0) == 2
            service.apply(K4_BATCH)
            # Fresh reads see the new epoch immediately...
            assert service.epoch == 1
            assert service.coreness(0) == 3
            assert service.coreness(3) == 3
            # ...while the pinned view stays a coherent epoch-0 triple.
            assert view.epoch == 0
            assert view.coreness(0) == 2
            assert view.coreness(3) == 0
            assert view.degeneracy() == 2
            assert view.stats["epoch"] == 0
            assert view.stats["kmax"] == 2
            assert view.stats["events_applied"] == 0

    def test_mid_apply_reads_see_pre_swap_epoch(self):
        """The pre-publish window: next-epoch state exists, pointer
        does not point at it yet -- reads must still answer epoch 0."""
        service = k4_service()
        observed = {}

        def mid_apply():
            with service.read_view() as view:
                observed["epoch"] = view.epoch
                observed["core0"] = view.coreness(0)
                observed["core3"] = view.coreness(3)
                observed["stats_epoch"] = view.stats["epoch"]

        service._crash_before_publish = mid_apply
        service.apply(K4_BATCH)
        assert observed == {"epoch": 0, "core0": 2, "core3": 0,
                            "stats_epoch": 0}
        assert service.coreness(0) == 3

    @pytest.mark.concurrent
    def test_reader_thread_pinned_across_swap(self):
        """Barrier-driven race: the reader pins mid-'query sequence',
        the writer swaps underneath it, the reader finishes on its own
        epoch with a coherent triple."""
        service = k4_service()
        pinned = threading.Barrier(2)
        swapped = threading.Event()
        out = {}

        def reader():
            with service.read_view() as view:
                before = (view.coreness(0), view.epoch,
                          view.stats["epoch"], view.stats["kmax"])
                pinned.wait()   # writer applies the batch now
                assert swapped.wait(10)
                after = (view.coreness(0), view.epoch,
                         view.stats["epoch"], view.stats["kmax"])
            out["before"], out["after"] = before, after

        thread = threading.Thread(target=reader)
        thread.start()
        pinned.wait()
        service.apply(K4_BATCH)
        swapped.set()
        thread.join()
        assert out["before"] == out["after"] == (2, 0, 0, 2)
        assert service.coreness(0) == 3

    @pytest.mark.concurrent
    def test_reader_racing_the_publish_window(self):
        """A reader that pins while the writer sits in the pre-publish
        window must get epoch 0; one that pins after apply() returns
        must get epoch 1 -- never anything in between."""
        service = k4_service()
        in_window = threading.Event()
        release_writer = threading.Event()
        out = {}

        def hold_the_window():
            in_window.set()
            assert release_writer.wait(10)

        service._crash_before_publish = hold_the_window

        def writer():
            service.apply(K4_BATCH)

        thread = threading.Thread(target=writer)
        thread.start()
        assert in_window.wait(10)
        with service.read_view() as view:
            out["during"] = (view.epoch, view.coreness(3))
        release_writer.set()
        thread.join()
        with service.read_view() as view:
            out["after"] = (view.epoch, view.coreness(3))
        assert out["during"] == (0, 0)
        assert out["after"] == (1, 3)


class TestSnapshotRetirement:
    """The refcounted lifecycle: CURRENT -> RETIRED -> DROPPED."""

    def test_pinned_snapshot_survives_the_swap(self):
        service = k4_service()
        snap0 = service._snapshot
        view = service.read_view()
        assert snap0.refcount == 1
        assert not snap0.retired
        service.apply(K4_BATCH)
        # Superseded but pinned: retired, still serving, not dropped.
        assert snap0.retired
        assert not snap0.dropped
        assert view.coreness(3) == 0
        view.close()
        assert snap0.dropped
        assert service.stats()["snapshot"]["retired"] == 1

    def test_unpinned_snapshot_drops_at_publish(self):
        service = k4_service()
        snap0 = service._snapshot
        service.apply(K4_BATCH)
        assert snap0.retired and snap0.dropped
        assert service.stats()["snapshot"]["retired"] == 1

    def test_dropped_snapshot_rejects_new_pins(self):
        service = k4_service()
        snap0 = service._snapshot
        service.apply(K4_BATCH)
        with pytest.raises(RuntimeError, match="dropped"):
            snap0.acquire()

    def test_unbalanced_release_raises(self):
        service = k4_service()
        snap = service._snapshot
        snap.acquire()
        snap.release()
        with pytest.raises(RuntimeError, match="unbalanced"):
            snap.release()

    def test_closed_view_rejects_queries(self):
        service = k4_service()
        view = service.read_view()
        view.close()
        view.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            view.coreness(0)

    def test_advance_shares_untouched_rows(self):
        """Structural sharing: only the batch endpoints' adjacency rows
        are re-read; every other row object is shared across epochs."""
        service = paper_service()
        view = service.read_view()  # keep epoch 0's rows alive
        old = view.snapshot
        service.apply([("+", 4, 6)])
        new = service._snapshot
        for v in range(service.num_nodes):
            if v in (4, 6):
                assert list(new.neighbors(v)) != list(old.neighbors(v))
            else:
                assert new.neighbors(v) is old.neighbors(v)
        view.close()

    def test_every_swap_eventually_retires_one_snapshot(self):
        service = paper_service()
        edges = list(service.graph.edges())
        batches = in_batches(
            generate_updates(edges, service.num_nodes, 20, seed=3), 4)
        for batch in batches:
            service.apply(batch)
        assert service.stats()["snapshot"]["retired"] == len(batches)
        assert service.stats()["snapshot"]["pins"] == 0


class TestConcurrentStress:
    """Reader threads race a live writer; replay is the ground truth."""

    @pytest.mark.concurrent
    @pytest.mark.parametrize("engine", ENGINES)
    def test_four_readers_race_twenty_swaps(self, engine):
        seed = _stress_seed()
        edges, n = social_graph(300, attach=3, clique=9, seed=5)

        def factory():
            return CoreService.from_storage(
                GraphStorage.from_edges(edges, n), engine=engine)

        service = factory()
        kmax = service.degeneracy()
        queries = generate_queries(n, kmax, 600, seed=seed + 2,
                                   max_depth=6)
        batches = in_batches(
            generate_updates(edges, n, 100, seed=seed + 3), 5)
        assert len(batches) == 20
        metrics = run_concurrent_workload(service, queries, batches,
                                          reader_threads=4)
        assert metrics["reads"] == 600
        assert metrics["swaps"] == 20
        assert metrics["torn_reads"] == 0
        for record in metrics["records"]:
            assert (record["epoch_lo"] <= record["epoch"]
                    <= record["epoch_hi"])
        assert verify_epoch_coherence(factory, batches,
                                      metrics["records"]) == []
        # All superseded snapshots retired once the readers drained.
        assert service.stats()["snapshot"]["retired"] == 20
        assert service.verify()

    @pytest.mark.concurrent
    def test_stale_views_race_the_writer(self):
        """Views held open across many swaps answer their pinned epoch
        even while newer epochs publish and retire around them."""
        seed = _stress_seed()
        edges, n = social_graph(200, attach=3, clique=8, seed=9)
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n))
        probes = [("coreness", 0), ("coreness", n - 1), ("degeneracy",),
                  ("histogram",), ("top", 5)]
        batches = in_batches(
            generate_updates(edges, n, 60, seed=seed + 7), 6)
        views, expected = [], []
        for batch in [None] + batches:
            if batch is not None:
                service.apply(batch)
            view = service.read_view()
            views.append(view)
            expected.append([execute_query(view, q) for q in probes])
        failures = []

        def audit(view, want):
            try:
                for _ in range(5):
                    got = [execute_query(view, q) for q in probes]
                    if got != want:
                        failures.append((view.epoch, got, want))
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=audit, args=pair)
                   for pair in zip(views, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        for view in views:
            view.close()
        assert service.stats()["snapshot"]["retired"] == len(batches)


class TestSnapshotInvariantProperty:
    """Satellite: random batches interleaved with reads must equal a
    straight-through replay at each read's epoch."""

    @pytest.mark.concurrent
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("dataset", SMALL_PROXIES)
    def test_concurrent_reads_equal_replay_on_proxies(self, dataset,
                                                      engine):
        seed = _stress_seed()
        edges, n = generate_dataset(dataset, scale=0.04, seed=11)

        def factory():
            return CoreService.from_storage(
                GraphStorage.from_edges(edges, n), engine=engine)

        service = factory()
        kmax = service.degeneracy()
        queries = generate_queries(n, kmax, 240, seed=seed + 13,
                                   max_depth=5)
        batches = in_batches(
            generate_updates(edges, n, 36, seed=seed + 17), 6)
        metrics = run_concurrent_workload(service, queries, batches,
                                          reader_threads=3)
        assert metrics["torn_reads"] == 0
        assert metrics["swaps"] == len(batches)
        assert verify_epoch_coherence(factory, batches,
                                      metrics["records"]) == []

    @given(graph_edges(max_nodes=16),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_stale_pinned_views_answer_their_epoch(self, graph, seed):
        """Property: pin a view at every epoch, apply random batches,
        then re-ask every stale view -- each must reproduce exactly the
        answers a straight-through run gave at its epoch (which is what
        the first pass recorded, single-threaded, batch by batch)."""
        edges, n = graph
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n))
        rng = random.Random(seed)
        probes = [("coreness", rng.randrange(n)) for _ in range(4)]
        probes += [("degeneracy",), ("histogram",), ("members", 1),
                   ("subgraph", 1), ("top", 3)]
        batches = in_batches(generate_updates(edges, n, 12, seed=seed),
                             3)
        views, expected = [], []
        for batch in [None] + batches:
            if batch is not None:
                service.apply(batch)
            view = service.read_view()
            views.append(view)
            expected.append([execute_query(view, q) for q in probes])
        for epoch, (view, want) in enumerate(zip(views, expected)):
            assert view.epoch == epoch
            assert [execute_query(view, q) for q in probes] == want
            assert view.stats["epoch"] == epoch
            view.close()
        assert service.verify()
