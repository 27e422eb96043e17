"""Properties of the numpy engine's pass kernels.

The SemiCore family on the numpy engine carries its Eq. 2 counts through
a run as state and moves them by deltas (a dropper falling from ``a`` to
``b`` costs each neighbour whose threshold lies in ``(b, a]`` one unit);
its LocalCore is a counting h-index.  These tests pin both down against
the reference engine and a brute-force h-index, from upper bounds with
slack -- the case where hubs drop several times within one sweep -- and
bound how many adjacency entries one decomposition gathers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.engines import numpy_engine
from repro.core.semicore import semi_core
from repro.core.semicore_plus import semi_core_plus
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import shard_pass_python
from repro.datasets import generators
from repro.datasets.registry import generate_dataset
from repro.storage.csr import CSRGraph
from repro.storage.graphstore import GraphStorage

from tests.conftest import graphs_with_bounds, nx_core_numbers

SEMICORES = [semi_core, semi_core_plus, semi_core_star]


def observable(result):
    return (list(result.cores), result.iterations, result.node_computations,
            result.per_iteration_changes, result.computed_per_iteration,
            None if result.cnt is None else list(result.cnt), result.io)


class TestDeltaCountsMatchReference:
    @given(graphs_with_bounds())
    @settings(max_examples=60, deadline=None)
    def test_semicore_family_from_slack_bounds(self, case):
        edges, n, bound = case
        for algorithm in SEMICORES:
            reference, vectorized = (
                algorithm(GraphStorage.from_edges(edges, n, block_size=64),
                          initial_cores=bound, trace_changes=True,
                          trace_computed=True, engine=engine)
                for engine in ("python", "numpy"))
            assert observable(vectorized) == observable(reference)
            assert list(vectorized.cores) == nx_core_numbers(edges, n)

    @given(graphs_with_bounds(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_shard_pass_from_slack_bounds(self, case, rnd):
        """The halo-frozen pass (``limit``) on a graph's own table: rows
        at or past ``frozen_from`` keep their estimate."""
        edges, n, bound = case
        frozen_from = rnd.randint(0, n)
        reference, vectorized = (
            (kernel(storage, initial_cores=bound, frozen_from=frozen_from),
             storage.io_stats)
            for kernel, storage in (
                (shard_pass_python, GraphStorage.from_edges(
                    edges, n, block_size=64)),
                (numpy_engine.shard_pass_numpy, GraphStorage.from_edges(
                    edges, n, block_size=64))))
        (ref_cores, ref_computed, ref_rows, _, ref_counts), ref_io = reference
        (cores, computed, rows, _, counts), io = vectorized
        assert list(cores) == list(ref_cores)
        assert (computed, rows, io) == (ref_computed, ref_rows, ref_io)
        assert list(counts) == list(ref_counts)
        assert list(cores[frozen_from:]) == bound[frozen_from:]


def brute_h_index(weights, cap):
    return max(k for k in range(max(cap, 0) + 1)
               if sum(1 for w in weights if w >= k) >= k)


def random_csr(rnd, n):
    """A CSR with empty rows and a random adjacency."""
    rows = [sorted(rnd.sample([u for u in range(n) if u != v],
                              rnd.randint(0, n - 1)))
            if rnd.random() < 0.8 else [] for v in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return CSRGraph(indptr, [u for r in rows for u in r]), rows


class TestCountingHIndex:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_local_core_batch_is_the_brute_force_h_index(self, rnd):
        """Mixed sweep weights, clamped by the pass-start value; weights
        of 0 and weights far above the row length included."""
        n = rnd.randint(1, 14)
        csr, rows = random_csr(rnd, n)
        old = np.array([rnd.choice([0, rnd.randint(0, 3 * n)])
                        for _ in range(n)], dtype=np.int64)
        current = np.minimum(old, np.array(
            [rnd.randint(0, 3 * n) for _ in range(n)], dtype=np.int64))
        batch = np.array(sorted(rnd.sample(range(n), rnd.randint(0, n))),
                         dtype=np.int64)
        expected = [brute_h_index(
            [int(current[u]) if u < v else int(old[u]) for u in rows[v]],
            int(old[v])) for v in batch]
        assert numpy_engine._local_core_batch(
            csr, batch, current, old).tolist() == expected
        # rows=None: every row, against one value vector.
        assert numpy_engine._local_core_batch(csr, None, old, old).tolist() \
            == [brute_h_index([int(old[u]) for u in rows[v]], int(old[v]))
                for v in range(n)]

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=40),
                             max_size=12), max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_h_index_and_its_support(self, rows, rnd):
        """``_h_index`` returns the answer and the row's count of weights
        at or above it -- the support a dropper carries forward."""
        cap = np.array([rnd.randint(0, 20) for _ in rows], dtype=np.int64)
        counts = np.array([len(r) for r in rows], dtype=np.int64)
        w = np.array([x for r in rows for x in r], dtype=np.int64)
        h, support = numpy_engine._h_index(w, counts, cap)
        expected = [brute_h_index(r, int(c)) for r, c in zip(rows, cap)]
        assert h.tolist() == expected
        assert support.tolist() == [sum(1 for x in r if x >= k)
                                    for r, k in zip(rows, expected)]

    def test_degenerate_rows(self):
        empty = CSRGraph(np.zeros(4, dtype=np.int64), [])
        zeros = np.zeros(3, dtype=np.int64)
        assert numpy_engine._local_core_batch(
            empty, None, zeros, zeros).tolist() == [0, 0, 0]
        assert numpy_engine._local_core_batch(
            empty, np.zeros(0, dtype=np.int64), zeros, zeros).tolist() == []
        star, _ = generators.star_graph(6)
        csr = CSRGraph.from_graph(GraphStorage.from_edges(star, 6))
        high = np.full(6, 99, dtype=np.int64)
        assert numpy_engine._local_core_batch(
            csr, None, high, high).tolist() == [5, 1, 1, 1, 1, 1]


class TestGatherVolume:
    def test_semicore_star_gathers_only_dropping_rows(self, monkeypatch):
        """Adjacency entries gathered by one SemiCore* decomposition of
        the webbase proxy at scale 0.5 (7,000 nodes, 83,910 arcs): 584,114
        with the counts kept as state, 2,534,957 when every candidate's
        and every changed node's neighbour's row was recounted."""
        gathered = []
        gather = numpy_engine._gather_rows

        def counting(indptr, indices, rows):
            nbr, counts = gather(indptr, indices, rows)
            gathered.append(nbr.size)
            return nbr, counts

        monkeypatch.setattr(numpy_engine, "_gather_rows", counting)
        edges, n = generate_dataset("webbase", 0.5)
        result = semi_core_star(GraphStorage.from_edges(edges, n),
                                engine="numpy")
        assert list(result.cores) == nx_core_numbers(edges, n)
        assert sum(gathered) <= 650_000


def test_slack_bounds_make_nodes_drop_again(monkeypatch):
    """From slack bounds a node can drop more than once within one
    sweep, the case the summed ``(b, a]`` decrements exist for; this
    input has such re-drops and still lands on the true cores."""
    rnd = random.Random(3)
    edges, n = generators.web_graph(300, 4, 12, 20, seed=2)
    cores = nx_core_numbers(edges, n)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    bound = [min(c + rnd.randint(0, 8), d) for c, d in zip(cores, degree)]
    redrops = []
    drop = numpy_engine._drop

    def recording(csr, active, x, old, support, limit):
        redrops.append(int(np.count_nonzero(x[active] < old[active])))
        return drop(csr, active, x, old, support, limit)

    monkeypatch.setattr(numpy_engine, "_drop", recording)
    result = semi_core_star(GraphStorage.from_edges(edges, n),
                            initial_cores=bound, engine="numpy")
    assert list(result.cores) == cores
    assert sum(redrops) > 0
