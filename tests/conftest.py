"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from repro.datasets import generators
from repro.datasets.generators import paper_example_graph
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "concurrent: threaded reader/writer race tests (CI repeats "
        "them under `pytest -m concurrent` with varying seeds)")
    config.addinivalue_line(
        "markers",
        "faults: fault-injection / chaos tests (CI repeats them under "
        "`pytest -m faults` with varying REPRO_FAULT_SEED values)")


def make_random_edges(rng, n, p):
    """Gnp edges with an explicit RNG (deterministic test graphs)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def scramble_ids(edges, n, seed=0):
    """The same graph with its node ids shuffled: ``(edges, rank)``,
    where node ``v`` of the input is node ``rank[v]`` of the output."""
    rank = list(range(n))
    random.Random(seed).shuffle(rank)
    return [(rank[u], rank[v]) for u, v in edges], rank


def nx_core_numbers(edges, n):
    """Oracle core numbers via networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    table = nx.core_number(graph)
    return [table[v] for v in range(n)]


@st.composite
def graph_edges(draw, max_nodes=28, max_extra_edges=None):
    """Hypothesis strategy: a random simple graph as ``(edges, n)``."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return [], n
    count = draw(st.integers(min_value=0, max_value=len(possible)))
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(possible) - 1),
            min_size=count, max_size=count, unique=True,
        )
    )
    return [possible[i] for i in indexes], n


@pytest.fixture
def paper_graph():
    """Edges and node count of the Fig. 1 sample graph."""
    return paper_example_graph()


@pytest.fixture
def paper_storage(paper_graph):
    """The Fig. 1 graph as memory-backed storage."""
    edges, n = paper_graph
    return GraphStorage.from_edges(edges, n)


@pytest.fixture(params=["memory", "file"])
def storage_factory(request, tmp_path):
    """Build GraphStorage on either backend; parametrized over both."""
    counter = {"n": 0}

    def build(edges, n=None, **kwargs):
        if request.param == "memory":
            return GraphStorage.from_edges(edges, n, **kwargs)
        counter["n"] += 1
        prefix = tmp_path / ("graph_%d" % counter["n"])
        return GraphStorage.from_edges(edges, n, path=str(prefix), **kwargs)

    build.backend = request.param
    return build


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def medium_random_graph(rng):
    """A fixed 120-node random graph used by several integration tests."""
    n = 120
    edges = make_random_edges(rng, n, 0.06)
    return edges, n


def as_memgraph(edges, n):
    return MemoryGraph.from_edges(edges, n)


@st.composite
def disconnected_hubs(draw):
    """Hubs over a shared leaf pool, a few leaf-leaf edges and isolated
    nodes, under a random id permutation so hubs land anywhere in the
    scan order."""
    hubs = draw(st.integers(min_value=1, max_value=4))
    leaves = draw(st.integers(min_value=1, max_value=16))
    isolated = draw(st.integers(min_value=0, max_value=3))
    n = hubs + leaves + isolated
    edges = set()
    for hub in range(hubs):
        members = draw(st.sets(st.integers(min_value=0,
                                           max_value=leaves - 1),
                               min_size=1))
        edges.update((hub, hubs + leaf) for leaf in members)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        a, b = draw(st.tuples(st.integers(0, leaves - 1),
                              st.integers(0, leaves - 1)))
        if a != b:
            edges.add((hubs + min(a, b), hubs + max(a, b)))
    order = draw(st.permutations(range(n)))
    return sorted(tuple(sorted((order[u], order[v]))) for u, v in edges), n


def graph_shapes():
    return st.one_of(
        graph_edges(),
        st.integers(min_value=2, max_value=30).map(generators.star_graph),
        st.integers(min_value=1, max_value=12).map(generators.complete_graph),
        disconnected_hubs(),
    )


@st.composite
def graphs_with_bounds(draw):
    """A graph and a valid upper bound: the true core numbers plus
    non-negative slack, capped at the degree."""
    edges, n = draw(graph_shapes())
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    slack = draw(st.lists(st.integers(min_value=0, max_value=8),
                          min_size=n, max_size=n))
    bound = [min(core + extra, deg) for core, extra, deg in
             zip(nx_core_numbers(edges, n), slack, degree)]
    return edges, n, bound
