"""SemiCore* passes agree on both sides of the scalar-pass cutoff.

On a resident snapshot the numpy engine runs a SemiCore* pass that
starts with at most ``SCALAR_PASS_MAX`` violators as a scalar worklist,
and any other pass as a vectorized sweep; inside the scalar pass, rows
longer than ``_SCALAR_ROW_MAX`` take an array h-index.  These tests force
every pass down one path (cutoff 0: every pass a sweep; cutoff ``n``:
every pass scalar) and every scalar row down either h-index, and hold
each run to the python reference: cores, ``cnt``, iterations, both
traces, node computations and ``IOStats``.  Model memory is the numpy
engine's own figure, so it is held equal across the cutoffs.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.engines import numpy_engine
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import (
    _FROZEN_SENTINEL,
    shard_pass_python,
    sharded_semi_core_star,
)
from repro.datasets.registry import load_dataset
from repro.storage.graphstore import GraphStorage

from tests.conftest import (
    graph_shapes,
    graphs_with_bounds,
    nx_core_numbers,
    scramble_ids,
)

ALL_SWEEPS = 0
ALL_SCALAR = 1 << 40
#: (pass cutoff, long-row cutoff) pairs: every pass a sweep; every pass
#: scalar with list h-indexes; every pass scalar with array h-indexes.
PATHS = [(ALL_SWEEPS, None), (ALL_SCALAR, None), (ALL_SCALAR, 0)]


@contextmanager
def forced(pass_max, row_max):
    """Send every pass (and every scalar row) down one path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numpy_engine, "SCALAR_PASS_MAX", pass_max)
        if row_max is not None:
            mp.setattr(numpy_engine, "_SCALAR_ROW_MAX", row_max)
        yield


def storage(edges, n):
    return GraphStorage.from_edges(edges, n, block_size=64)


def star_observables(edges, n, bound, engine):
    result = semi_core_star(storage(edges, n), initial_cores=bound,
                            trace_changes=True, trace_computed=True,
                            engine=engine)
    return ((list(result.cores), list(result.cnt), result.iterations,
             result.per_iteration_changes, result.computed_per_iteration,
             result.node_computations, result.io),
            result.model_memory_bytes)


def check_semicore_star(edges, n, bound):
    expected, _ = star_observables(edges, n, bound, "python")
    memory = set()
    for pass_max, row_max in PATHS:
        with forced(pass_max, row_max):
            observed, model_memory = star_observables(edges, n, bound,
                                                      "numpy")
        assert observed == expected, (pass_max, row_max)
        memory.add(model_memory)
    assert len(memory) == 1


def exact_counts(edges, n, core, frozen_from):
    """Eq. 2 counts of the owned rows; halo rows at the frozen sentinel."""
    cnt = [0] * n
    for u, v in edges:
        if core[u] >= core[v]:
            cnt[v] += 1
        if core[v] >= core[u]:
            cnt[u] += 1
    return cnt[:frozen_from] + [_FROZEN_SENTINEL] * (n - frozen_from)


def shard_pass_observables(kernel, edges, n, bound, frozen_from, cnt):
    graph = storage(edges, n)
    kwargs = {} if cnt is None else {"cnt": np.array(cnt, dtype=np.int64)}
    cores, computed, rows, memory, counts = kernel(
        graph, initial_cores=bound, frozen_from=frozen_from, **kwargs)
    return ((list(cores), computed, rows, list(counts), graph.io_stats),
            memory)


class TestSemiCoreStar:
    @given(graphs_with_bounds(), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_small_graphs_any_bound_any_id_order(self, case, degrees,
                                                 seed):
        """Stars, cliques, hubs over shared leaves and isolated nodes,
        from the degrees or from slack bounds, ids shuffled."""
        edges, n, bound = case
        edges, rank = scramble_ids(edges, n, seed)
        shuffled = [0] * n
        for v, b in enumerate(bound):
            shuffled[rank[v]] = b
        check_semicore_star(edges, n, None if degrees else shuffled)

    @given(graph_shapes(), st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=40, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_bounds_past_the_degree(self, shape, slack):
        """Any non-negative bound converges (Section IV-A), so a scalar
        row's h-index must stop at its length even when the bound is
        larger."""
        edges, n = shape
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        check_semicore_star(edges, n, [d + s for d, s in zip(degree, slack)])

    @pytest.mark.parametrize("ids", ["stored", "scrambled"])
    def test_hub_heavy_proxy(self, ids):
        """Rows far past the long-row cutoff, from the degrees and from
        a loose bound."""
        graph = load_dataset("webbase", scale=0.1)
        edges, n = list(graph.edges()), graph.num_nodes
        if ids == "scrambled":
            edges, _ = scramble_ids(edges, n, seed=7)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        assert max(degree) > numpy_engine._SCALAR_ROW_MAX
        cores = nx_core_numbers(edges, n)
        for bound in (None, [min(c + 5, d) for c, d in zip(cores, degree)]):
            check_semicore_star(edges, n, bound)


class TestShardPass:
    @given(graphs_with_bounds(), st.randoms(use_true_random=False),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_frozen_halo_with_and_without_counts(self, case, rnd,
                                                 carried):
        """Without ``cnt`` pass 1 comes from a scan of the owned rows and
        later passes may run scalar; with ``cnt`` every pass loads its
        rows, so the cutoff must not change anything there either."""
        edges, n, bound = case
        frozen_from = rnd.randint(0, n)
        cnt = exact_counts(edges, n, bound, frozen_from) if carried \
            else None
        expected, _ = shard_pass_observables(
            shard_pass_python, edges, n, bound, frozen_from, cnt)
        memory = set()
        for pass_max, row_max in PATHS:
            with forced(pass_max, row_max):
                observed, model_memory = shard_pass_observables(
                    numpy_engine.shard_pass_numpy, edges, n, bound,
                    frozen_from, cnt)
            assert observed == expected, (pass_max, row_max)
            memory.add(model_memory)
        assert len(memory) == 1

    def test_sharded_hub_heavy_proxy(self):
        """Whole sharded runs: first passes and carried-count passes."""
        graph = load_dataset("webbase", scale=0.1)
        edges, _ = scramble_ids(list(graph.edges()), graph.num_nodes,
                                seed=5)

        def run(engine):
            result = sharded_semi_core_star(
                GraphStorage.from_edges(edges, graph.num_nodes), 4,
                engine=engine, balance="arc", trace_changes=True)
            return ((list(result.cores), result.iterations,
                     result.per_iteration_changes, result.node_computations,
                     result.shard_passes, result.io),
                    result.model_memory_bytes)

        expected, _ = run("python")
        memory = set()
        for pass_max, row_max in PATHS:
            with forced(pass_max, row_max):
                observed, model_memory = run("numpy")
            assert observed == expected, (pass_max, row_max)
            memory.add(model_memory)
        assert len(memory) == 1
