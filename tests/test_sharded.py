"""Tests for sharded SemiCore* (:mod:`repro.core.sharded`).

The acceptance contract: bit-identical cores to ``semi_core_star`` for
every shard count, engine and executor; identical ``IOStats`` totals
between the serial and persistent executors; and a per-shard
``model_memory_bytes`` bounded by the largest shard rather than the
whole graph.
"""

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.csr as csr_module
import repro.storage.shards as shards_module
from repro.core.engines import (
    _REGISTRY,
    engine_implementation,
    engine_names,
    register_engine,
)
from repro.core.engines.numpy_engine import _support
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import (
    PersistentShardExecutor,
    SerialShardExecutor,
    executor_names,
    get_executor,
    sharded_semi_core_star,
)
from repro.datasets.generators import (
    paper_example_graph,
    path_graph,
    social_graph,
)
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import ReproError
from repro.obs.trace import disable_tracing, enable_tracing
from repro.storage.csr import CSRGraph
from repro.storage.graphstore import GraphStorage

from tests.conftest import graph_edges, scramble_ids

ENGINES = engine_names()


def shard_counts(n):
    """The contract's shard-count set: {1, 2, 3, 7, n}."""
    return sorted({1, 2, 3, 7, max(1, n)})


def reference_cores(edges, n):
    return list(semi_core_star(GraphStorage.from_edges(edges, n)).cores)


EXECUTOR_NAMES = ("serial", "persistent")


def _square(task):
    return task * task


class TestParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_paper_graph_all_shard_counts(self, engine, executor):
        edges, n = paper_example_graph()
        expected = [3, 3, 3, 3, 2, 2, 2, 2, 1]
        for num_shards in shard_counts(n):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, num_shards,
                                            engine=engine,
                                            executor=executor)
            assert list(result.cores) == expected, (num_shards, engine)
            assert result.algorithm == "ShardedSemiCore*"
            assert result.engine == engine
            assert result.executor == executor
            assert result.num_shards == num_shards

    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph_edges(max_nodes=20))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_graphs_every_shard_count(self, engine, graph):
        edges, n = graph
        expected = reference_cores(edges, n)
        for num_shards in shard_counts(n):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, num_shards,
                                            engine=engine)
            assert list(result.cores) == expected, (num_shards, engine)

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_dataset_proxies_both_engines_both_executors(self, dataset):
        storage = load_dataset(dataset, scale=0.04)
        expected = list(semi_core_star(storage).cores)
        n = storage.num_nodes
        num_shards = min(3, max(1, n))
        for engine in ENGINES:
            for executor in EXECUTOR_NAMES:
                graph = load_dataset(dataset, scale=0.04)
                result = sharded_semi_core_star(graph, num_shards,
                                                engine=engine,
                                                executor=executor)
                assert list(result.cores) == expected, (dataset, engine,
                                                        executor)

    def test_file_backed_shards(self, tmp_path):
        edges, n = social_graph(150, 2, 8, seed=2)
        expected = reference_cores(edges, n)
        for executor in EXECUTOR_NAMES:
            storage = GraphStorage.from_edges(
                edges, n, path=str(tmp_path / ("g_" + executor)))
            result = sharded_semi_core_star(
                storage, 4, executor=executor,
                path=str(tmp_path / ("shards_" + executor)))
            assert list(result.cores) == expected


class TestBalanceParity:
    """Acceptance: bit-identical cores for every {balance, executor,
    engine} combination, proved on a hub-heavy proxy."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_full_matrix_on_hub_heavy_proxy(self, engine, executor):
        storage = load_dataset("webbase", scale=0.03)
        expected = list(semi_core_star(storage).cores)
        for balance in ("node", "arc"):
            graph = load_dataset("webbase", scale=0.03)
            result = sharded_semi_core_star(
                graph, 4, engine=engine, executor=executor,
                balance=balance)
            assert list(result.cores) == expected, balance
            assert result.balance == balance

    def test_arc_balance_meets_the_skew_bound(self):
        storage = load_dataset("webbase", scale=0.05)
        result = sharded_semi_core_star(storage, 8, balance="arc")
        assert result.arc_skew <= 1.15
        node = sharded_semi_core_star(
            load_dataset("webbase", scale=0.05), 8, balance="node")
        assert list(result.cores) == list(node.cores)
        assert result.arc_skew < node.arc_skew

    def test_unknown_balance_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="balance"):
            sharded_semi_core_star(paper_storage, 2, balance="entropy")


def _counters(result):
    """Everything the kernel contract makes engine-independent."""
    return (list(result.cores), result.iterations,
            result.per_iteration_changes, result.node_computations,
            result.shard_passes, result.io)


class TestIdOrderInvariance:
    """Core numbers belong to the graph, not to its id order: on a graph
    whose ids are shuffled, every shard layout still gives each node the
    core it has in the stored order."""

    @pytest.mark.parametrize("balance", ["node", "arc"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_scrambled_hub_heavy_proxy(self, executor, engine, balance):
        storage = load_dataset("webbase", scale=0.03)
        expected = list(semi_core_star(storage).cores)
        edges, rank = scramble_ids(list(storage.edges()),
                                   storage.num_nodes, seed=3)
        result = sharded_semi_core_star(
            GraphStorage.from_edges(edges, storage.num_nodes), 4,
            engine=engine, executor=executor, balance=balance)
        assert [result.cores[rank[v]] for v in range(len(expected))] \
            == expected

    @pytest.mark.parametrize("balance", ["node", "arc"])
    @pytest.mark.parametrize("engine", ("python", "numpy"))
    @given(graph_edges(max_nodes=18), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_graphs_any_id_order(self, engine, balance, graph,
                                            seed):
        edges, n = graph
        expected = reference_cores(edges, n)
        scrambled, rank = scramble_ids(edges, n, seed)
        result = sharded_semi_core_star(
            GraphStorage.from_edges(scrambled, n), 3, engine=engine,
            balance=balance)
        assert [result.cores[rank[v]] for v in range(n)] == expected


class TestCrossEngineParity:
    """The python and numpy shard-pass kernels compute the same rows and
    issue the same reads, so every counter agrees, not just the cores."""

    @pytest.mark.parametrize("ids", ["stored", "scrambled"])
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_hub_heavy_proxy(self, executor, ids):
        def graph():
            storage = load_dataset("webbase", scale=0.03)
            if ids == "stored":
                return storage
            edges, _ = scramble_ids(list(storage.edges()),
                                    storage.num_nodes, seed=5)
            return GraphStorage.from_edges(edges, storage.num_nodes)

        expected = list(semi_core_star(graph()).cores)
        for num_shards in (4, 8):
            runs = [_counters(sharded_semi_core_star(
                graph(), num_shards,
                engine=engine, executor=executor, balance="arc",
                trace_changes=True))
                for engine in ("python", "numpy")]
            assert runs[0] == runs[1], num_shards
            assert runs[0][0] == expected

    @given(graph_edges(max_nodes=20))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_graphs_every_shard_count(self, graph):
        edges, n = graph
        for num_shards in shard_counts(n):
            runs = [_counters(sharded_semi_core_star(
                GraphStorage.from_edges(edges, n), num_shards,
                engine=engine, trace_changes=True))
                for engine in ("python", "numpy")]
            assert runs[0] == runs[1], num_shards


class TestExecutorContract:
    def test_all_executors_identical(self):
        """Cores, rounds, computations and IOStats must all agree."""
        for seed, num_shards in ((1, 2), (5, 4), (9, 7)):
            edges, n = social_graph(300, 2, 8, seed=seed)
            runs = {}
            for executor in EXECUTOR_NAMES:
                storage = GraphStorage.from_edges(edges, n)
                runs[executor] = sharded_semi_core_star(
                    storage, num_shards, executor=executor)
            serial = runs["serial"]
            for executor in EXECUTOR_NAMES[1:]:
                other = runs[executor]
                assert list(serial.cores) == list(other.cores), executor
                assert serial.iterations == other.iterations
                assert serial.node_computations == \
                    other.node_computations
                assert serial.io == other.io  # the full IOStats totals

    def test_executor_identity_under_numpy_engine(self):
        edges, n = social_graph(200, 2, 6, seed=3)
        runs = {}
        for executor in EXECUTOR_NAMES:
            storage = GraphStorage.from_edges(edges, n)
            runs[executor] = sharded_semi_core_star(
                storage, 3, engine="numpy", executor=executor)
        assert list(runs["serial"].cores) == list(runs["persistent"].cores)
        assert runs["serial"].iterations == runs["persistent"].iterations
        assert runs["serial"].io == runs["persistent"].io

    def test_every_executor_releases_its_segment(self, paper_graph):
        """Serial runs use the shared round plan too; none may leak."""
        edges, n = paper_graph
        for executor in EXECUTOR_NAMES:
            sharded_semi_core_star(GraphStorage.from_edges(edges, n), 2,
                                   executor=executor)
            assert glob.glob("/dev/shm/repro_shm*") == [], executor

    def test_unknown_executor_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="unknown executor"):
            sharded_semi_core_star(paper_storage, 2, executor="quantum")

    def test_executor_names(self):
        assert executor_names() == ["persistent", "serial"]
        assert isinstance(get_executor(None), SerialShardExecutor)
        assert isinstance(get_executor("Persistent"),
                          PersistentShardExecutor)

    def test_removed_multiprocessing_executor_rejected(self):
        with pytest.raises(ReproError, match="unknown executor"):
            get_executor("multiprocessing")

    def test_custom_executor_object(self, paper_graph):
        edges, n = paper_graph

        class Recording(SerialShardExecutor):
            name = "recording"
            calls = 0

            def run(self, fn, tasks):
                Recording.calls += 1
                return super().run(fn, tasks)

        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 2,
                                        executor=Recording())
        assert Recording.calls == result.iterations
        assert result.executor == "recording"

    def test_object_without_run_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="run"):
            get_executor(object())

    def test_run_only_executor_object_accepted(self, paper_graph):
        """close() is optional on ad-hoc executors; the driver probes."""
        edges, n = paper_graph

        class RunOnly:
            def run(self, fn, tasks):
                return [fn(task) for task in tasks]

        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 2, executor=RunOnly())
        assert result.kmax == 3

    def test_executor_objects_are_returned_unchanged(self):
        """The benchmark wraps its own instances; none may be copied."""
        class RunOnly:
            def run(self, fn, tasks):
                return [fn(task) for task in tasks]

        for executor in (RunOnly(), SerialShardExecutor(),
                         PersistentShardExecutor(processes=1)):
            assert get_executor(executor) is executor

    def test_thread_pool_executor_matches_serial(self):
        """In-process executors run against the same shared round plan:
        concurrent passes must agree with serial on every counter."""
        from concurrent.futures import ThreadPoolExecutor

        class Threaded:
            name = "threaded"

            def run(self, fn, tasks):
                with ThreadPoolExecutor(max_workers=3) as pool:
                    return list(pool.map(fn, tasks))

        edges, n = social_graph(300, 2, 8, seed=5)
        serial = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 4, executor="serial")
        threaded = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 4, executor=Threaded())
        assert threaded.executor == "threaded"
        assert list(threaded.cores) == list(serial.cores)
        assert threaded.iterations == serial.iterations
        assert threaded.node_computations == serial.node_computations
        assert threaded.io == serial.io
        assert glob.glob("/dev/shm/repro_shm*") == []

    def test_worker_crash_propagates_cleanly(self, paper_graph):
        """A failing shard pass surfaces its error; no hang, no leak."""
        edges, n = paper_graph

        def crashing_pass(graph, *, initial_cores, frozen_from):
            raise ValueError("shard pass boom")

        register_engine("crashy", "failure-injection test double",
                        lambda: {"shard-pass": crashing_pass})
        try:
            for executor in EXECUTOR_NAMES:
                storage = GraphStorage.from_edges(edges, n)
                with pytest.raises(ValueError, match="shard pass boom"):
                    sharded_semi_core_star(storage, 2, engine="crashy",
                                           executor=executor)
            import repro.core.sharded as sharded_module
            assert sharded_module._ACTIVE_SHARDS is None
            assert sharded_module._ACTIVE_PLAN is None
            # The driver is reusable after a crashed run.
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, 2)
            assert result.kmax == 3
        finally:
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("crashy", None)

    def test_unknown_engine_rejected_before_build(self, paper_storage):
        with pytest.raises(ReproError, match="unknown engine"):
            sharded_semi_core_star(paper_storage, 2, engine="fortran")


class TestPersistentExecutor:
    def test_forks_exactly_once_per_decomposition(self):
        """One pool spawn per decomposition, however many rounds."""
        edges, n = social_graph(200, 2, 6, seed=4)
        executor = PersistentShardExecutor(processes=2)
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 3, executor=executor)
        assert result.iterations > 1
        assert result.pool_forks == 1
        assert executor.pool_forks == 1
        assert executor.respawns == 0

    def test_reusable_after_close_re_forks(self):
        """The driver closes the pool each run; reuse must re-fork."""
        executor = PersistentShardExecutor(processes=2)
        edges, n = social_graph(120, 2, 6, seed=6)
        expected = reference_cores(edges, n)
        for run in (1, 2):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, 3,
                                            executor=executor)
            assert list(result.cores) == expected
            assert executor.pool_forks == run

    def test_pool_forked_by_a_bare_run_is_retired_before_sharding(self):
        edges, n = social_graph(150, 2, 6, seed=7)
        expected = reference_cores(edges, n)
        executor = PersistentShardExecutor(processes=2)
        try:
            assert executor.run(_square, [1, 2, 3]) == [1, 4, 9]
            assert executor.pool_forks == 1
            result = sharded_semi_core_star(
                GraphStorage.from_edges(edges, n), 3, executor=executor)
            assert list(result.cores) == expected
            assert result.pool_forks == 2
        finally:
            executor.close()
        assert glob.glob("/dev/shm/repro_shm*") == []

    def test_reuse_across_graphs_of_different_sizes(self):
        """Each decomposition attaches its own plan; a larger second
        graph must not see the first run's segment or workers."""
        executor = PersistentShardExecutor(processes=2)
        for run, (size, num_shards) in enumerate(((80, 2), (320, 5)), 1):
            edges, n = social_graph(size, 2, 6, seed=run)
            result = sharded_semi_core_star(
                GraphStorage.from_edges(edges, n), num_shards,
                executor=executor)
            assert list(result.cores) == reference_cores(edges, n)
            assert result.num_shards == num_shards
            assert executor.pool_forks == run
            assert executor.shm_bytes == 0
        assert glob.glob("/dev/shm/repro_shm*") == []

    def test_shm_bytes_metric_tracks_the_plan(self):
        from repro.obs import MetricsRegistry
        from repro.core.sharded import register_executor_metrics

        executor = PersistentShardExecutor(processes=2)
        registry = MetricsRegistry()
        register_executor_metrics(executor, registry)
        body = registry.render_prometheus()
        assert "repro_executor_pool_forks 0" in body
        assert "repro_shm_bytes 0" in body
        edges, n = social_graph(120, 2, 6, seed=6)
        storage = GraphStorage.from_edges(edges, n)
        sharded_semi_core_star(storage, 3, executor=executor)
        body = registry.render_prometheus()
        assert "repro_executor_pool_forks 1" in body
        # The plan is detached when the driver closes the executor.
        assert "repro_shm_bytes 0" in body

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ReproError, match="processes"):
            PersistentShardExecutor(processes=0)
        with pytest.raises(ReproError, match="task_timeout"):
            PersistentShardExecutor(task_timeout=0.0)


class _RecordingExecutor:
    """In-process executor that logs the shard indices of every round."""

    name = "recording"

    def __init__(self):
        self.rounds = []

    def run(self, fn, tasks):
        self.rounds.append([index for index, _ in tasks])
        return [fn(task) for task in tasks]


class TestGatherVectorization:
    def _reference_gather(self, boundary_ids, bounds, estimates):
        """The pre-vectorization per-id gather: one read per row."""
        from array import array
        from bisect import bisect_right

        from repro.core.sharded import (
            ESTIMATE_ENTRY_SIZE,
            _ESTIMATE_TYPECODE,
        )

        values = array(_ESTIMATE_TYPECODE)
        for g in boundary_ids:
            owner = bisect_right(bounds, int(g)) - 1
            data = estimates[owner].read_at(
                (int(g) - bounds[owner]) * ESTIMATE_ENTRY_SIZE,
                ESTIMATE_ENTRY_SIZE)
            values.frombytes(data)
        return values

    def test_coalesced_gather_matches_per_id_reads(self):
        """Same values AND same charged I/O as the per-id loop, for a
        full halo followed by the changed-id subsets of later rounds
        (device caches carry over between gathers, as in the driver).
        Block sizes that are not a multiple of the entry size make
        entries straddle blocks."""
        import random
        from array import array

        import numpy as np

        from repro.core.sharded import _ESTIMATE_TYPECODE, _gather_boundary
        from repro.storage.blockio import IOStats, MemoryBlockDevice
        from repro.storage.shards import shard_bounds

        rng = random.Random(13)
        n, num_shards = 257, 5
        bounds = shard_bounds(n, num_shards)
        table = [rng.randint(0, 99) for _ in range(n)]
        for trial, block_size in enumerate((6, 16, 64, 4096) * 2):
            boundary = np.array(sorted(rng.sample(range(n),
                                                  rng.randint(0, n))),
                                dtype=np.int64)
            gathers = [boundary]
            for _ in range(3):
                moved = np.array(sorted(rng.sample(
                    range(n), rng.randint(0, n // 4))), dtype=np.int64)
                gathers.append(boundary[np.isin(boundary, moved,
                                                assume_unique=True)])
            runs = {}
            for fn in ("vector", "reference"):
                stats = IOStats()
                devices = []
                for a, b in zip(bounds, bounds[1:]):
                    device = MemoryBlockDevice(block_size=block_size,
                                               stats=stats)
                    device.write_at(0, array(
                        _ESTIMATE_TYPECODE, table[a:b]).tobytes())
                    device.drop_cache()
                    devices.append(device)
                stats.reset()
                gather = (_gather_boundary if fn == "vector"
                          else self._reference_gather)
                runs[fn] = []
                for ids in gathers:
                    values = gather(ids, bounds, devices)
                    runs[fn].append((list(values), stats.read_ios,
                                     stats.bytes_read))
            for step, (vector, reference) in enumerate(
                    zip(runs["vector"], runs["reference"])):
                assert vector[0] == [table[g] for g in gathers[step]]
                # The I/O-model metric -- charged block reads -- must
                # match the per-id loop exactly: coalescing may only
                # merge reads of blocks the one-block cache would have
                # served anyway.
                assert vector[1] == reference[1], (trial, step)
                # Coalesced requests cover whole groups, so the bytes
                # actually requested from the backend can only grow.
                assert vector[2] >= reference[2], (trial, step)


class TestDeltaRounds:
    """Later rounds re-gather only moved halo entries and rerun only the
    shards whose halo moved."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_path_rounds_dispatch_only_moved_shards(self, engine):
        """On a path over 8 node shards the drops travel inward from
        both ends one shard per round, so after round 1 only the
        shards next to a moved shard are rerun."""
        edges, n = path_graph(2400)
        executor = _RecordingExecutor()
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        8, engine=engine,
                                        executor=executor)
        full = semi_core_star(GraphStorage.from_edges(edges, n))
        assert list(result.cores) == list(full.cores)
        assert executor.rounds == [
            list(range(8)),   # round 1 runs everything
            [1, 6],           # the end shards moved
            [0, 2, 5, 7],     # their neighbours moved
            [1, 3, 4, 6],
            [2, 3, 4, 5],     # the middle moved last; nothing moves
        ]
        assert result.iterations == len(executor.rounds)
        assert result.shard_passes == sum(map(len, executor.rounds))

    def test_disconnected_shards_run_once(self):
        """Shards without cross-shard edges never see a halo change."""
        edges, n = [], 0
        for _ in range(4):
            block, size = social_graph(60, 2, 6, seed=n + 1)
            edges += [(u + n, v + n) for u, v in block]
            n += size
        executor = _RecordingExecutor()
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 4, executor=executor)
        assert result.num_boundary == 0
        assert list(result.cores) == reference_cores(edges, n)
        # Round 1 converges every shard; the confirming round runs none.
        assert executor.rounds == [[0, 1, 2, 3], []]
        assert result.shard_passes == 4

    @pytest.mark.parametrize("engine", ("python", "numpy"))
    @given(graph_edges(max_nodes=20))
    @settings(max_examples=25, deadline=None)
    def test_carried_counts_equal_a_recount(self, engine, graph):
        """Every round-2+ pass gets counts equal to a fresh Eq. 2 count
        over a full read of its shard, so the rows it seeds from (its
        violators under those counts) are exactly the recount's."""
        edges, n = graph
        real = engine_implementation(engine, "shard-pass")
        checked = []

        def recording(shard_graph, *, initial_cores, frozen_from,
                      cnt=None):
            if cnt is not None:
                core = np.asarray(initial_cores, dtype=np.int64)
                recount = _support(CSRGraph.from_storage(
                    shard_graph, stop=frozen_from), core)[:frozen_from]
                assert list(cnt[:frozen_from]) == list(recount)
                owned = core[:frozen_from]
                assert list(np.flatnonzero(cnt[:frozen_from] < owned)) == \
                    list(np.flatnonzero(recount < owned))
                shard_graph.drop_caches()
                checked.append(frozen_from)
            return real(shard_graph, initial_cores=initial_cores,
                        frozen_from=frozen_from, cnt=cnt)

        register_engine("recording", "carried-count oracle",
                        lambda: {"shard-pass": recording})
        try:
            expected = reference_cores(edges, n)
            for num_shards in shard_counts(n):
                before = len(checked)
                result = sharded_semi_core_star(
                    GraphStorage.from_edges(edges, n), num_shards,
                    engine="recording")
                assert list(result.cores) == expected, num_shards
                assert len(checked) - before == \
                    result.shard_passes - num_shards
        finally:
            _REGISTRY.pop("recording", None)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_pass_after_the_first_scans(self, engine, monkeypatch):
        """The build reads each shard's rows once and each shard's first
        pass scans its table once; no later pass scans anything."""
        scans = []

        def recorded(function):
            def wrapper(graph, *args, **kwargs):
                scans.append(graph)
                return function(graph, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(csr_module, "read_range",
                            recorded(csr_module.read_range))
        monkeypatch.setattr(shards_module, "read_range",
                            recorded(shards_module.read_range))
        monkeypatch.setattr(GraphStorage, "iter_adjacency",
                            recorded(GraphStorage.iter_adjacency))
        edges, n = path_graph(2400)
        source = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(source, 8, engine=engine)
        assert result.iterations == 5 and result.shard_passes == 22
        shard_scans = [graph for graph in scans if graph is not source]
        assert sum(graph is source for graph in scans) == 8
        assert len(shard_scans) == len({id(g) for g in shard_scans}) == 8

    def test_round_spans_report_seeds_and_point_reads(self):
        """``sharded.round`` carries the rows the halo deltas seeded and
        the rows the passes point-read, the same under both engines."""
        edges, n = path_graph(2400)
        annotations = {}
        for engine in ("python", "numpy"):
            tracer = enable_tracing()
            try:
                result = sharded_semi_core_star(
                    GraphStorage.from_edges(edges, n), 8, engine=engine)
            finally:
                disable_tracing()
            annotations[engine] = [
                (record["attrs"]["seeded"], record["attrs"]["rows_read"])
                for record in tracer.records
                if record["name"] == "sharded.round"]
        rounds = annotations["python"]
        assert rounds == annotations["numpy"]
        assert len(rounds) == result.iterations
        assert rounds[0][0] == 0  # round 1 seeds from its scan
        # From round 2 every computation is a point read.
        assert sum(read for _, read in rounds[1:]) > 0
        assert all(seeded <= read for seeded, read in rounds[1:])

    def test_bytes_read_stay_near_unsharded(self):
        """The delta rounds read counts, reverse rows and recomputed rows
        instead of whole shards: 8.06x the unsharded bytes here, where
        rescanning every dispatched shard read 21.6x."""
        unsharded = semi_core_star(load_dataset("webbase", scale=0.1),
                                   engine="numpy")
        result = sharded_semi_core_star(
            load_dataset("webbase", scale=0.1), 8, balance="arc",
            engine="numpy")
        assert list(result.cores) == list(unsharded.cores)
        assert result.io.bytes_read <= 8.5 * unsharded.io.bytes_read

    def test_computations_within_twice_unsharded(self):
        unsharded = semi_core_star(load_dataset("webbase", scale=0.1),
                                   engine="numpy")
        result = sharded_semi_core_star(
            load_dataset("webbase", scale=0.1), 8, balance="arc",
            engine="numpy")
        assert list(result.cores) == list(unsharded.cores)
        assert result.node_computations <= \
            2 * unsharded.node_computations


class TestMemoryBound:
    def test_working_set_bounded_by_largest_shard(self):
        """python-kernel bound: 28 bytes/row of the largest shard plus
        the adjacency buffer."""
        edges, n = social_graph(400, 2, 8, seed=7)
        storage = GraphStorage.from_edges(edges, n)
        max_degree = max(storage.read_degrees())
        result = sharded_semi_core_star(storage, 4)
        assert result.model_memory_bytes <= \
            28 * result.max_shard_nodes + 8 * max_degree

    def test_memory_shrinks_below_unsharded_on_local_graphs(self):
        edges, n = path_graph(2400)
        full = semi_core_star(GraphStorage.from_edges(edges, n))
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        8)
        assert list(result.cores) == list(full.cores)
        assert result.max_shard_nodes < n // 4
        assert result.model_memory_bytes < full.model_memory_bytes

    def test_memory_independent_of_total_size(self):
        """Fixed shard size, growing graph: the working set stays put."""
        small_edges, small_n = path_graph(1200)
        big_edges, big_n = path_graph(2400)
        small = sharded_semi_core_star(
            GraphStorage.from_edges(small_edges, small_n), 4)
        big = sharded_semi_core_star(
            GraphStorage.from_edges(big_edges, big_n), 8)
        assert big.max_shard_nodes == small.max_shard_nodes
        assert big.model_memory_bytes == small.model_memory_bytes

    def test_numpy_working_set_shrinks_too(self):
        edges, n = path_graph(2400)
        full = semi_core_star(GraphStorage.from_edges(edges, n),
                              engine="numpy")
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        8, engine="numpy")
        assert list(result.cores) == list(full.cores)
        assert result.model_memory_bytes < full.model_memory_bytes


class TestResultShape:
    def test_round_trace_and_metadata(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 3, trace_changes=True)
        assert result.per_iteration_changes[-1] == 0
        assert len(result.per_iteration_changes) == result.iterations
        assert sum(result.per_iteration_changes) > 0
        assert result.num_boundary > 0
        assert result.max_shard_nodes >= (n + 2) // 3

    def test_single_shard_matches_reference_exactly(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 1)
        reference = semi_core_star(GraphStorage.from_edges(edges, n))
        assert list(result.cores) == list(reference.cores)
        assert result.num_boundary == 0
        # One convergence round plus the fixpoint-confirming round.
        assert result.iterations == 2

    def test_empty_graph(self):
        storage = GraphStorage.from_edges([], 0)
        result = sharded_semi_core_star(storage, 2)
        assert len(result.cores) == 0
        assert result.iterations == 1

    def test_io_accounting_shares_graph_stats(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        before = storage.io_stats.snapshot()
        result = sharded_semi_core_star(storage, 2)
        delta = storage.io_stats.delta_since(before)
        assert result.io == delta
        assert result.io.read_ios > 0
        assert result.io.write_ios > 0  # shard build + estimate tables
