"""Direct unit tests of ``CoreService.stats()`` and its registry views."""

from __future__ import annotations

import pytest

from repro.errors import BatchQuarantinedError
from repro.faults import InjectedReadError
from repro.obs import MetricsRegistry
from repro.service import CoreService
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges


@pytest.fixture
def service(rng):
    edges = make_random_edges(rng, 40, 0.12)
    svc = CoreService.from_storage(GraphStorage.from_edges(edges, 40),
                                   retry_backoff=0.0, apply_retries=0)
    svc._test_edges = edges
    yield svc
    svc.close()


def _absent_edge(edges, n):
    present = {tuple(sorted(e)) for e in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                return (u, v)
    raise AssertionError("graph is complete")


def _quarantine_one_batch(service):
    real = service.maintainer.apply_batch

    def fail_once(ops, **kwargs):
        service.maintainer.apply_batch = real
        raise InjectedReadError("injected maintenance failure")

    service.maintainer.apply_batch = fail_once
    edge = _absent_edge(service._test_edges, service.num_nodes)
    with pytest.raises(BatchQuarantinedError):
        service.apply([("+",) + edge])


def test_hit_rate_is_zero_before_any_query(service):
    # Nothing was ever served from the memo; the rate must be a clean
    # 0.0, not NaN or a ZeroDivisionError.
    stats = service.stats()
    assert stats["cache"]["hits"] == 0
    assert stats["cache"]["hit_rate"] == 0.0


def test_hit_rate_after_queries(service):
    # Point reads are array lookups and leave the counters alone; a
    # repeated subgraph read hits the snapshot's memo.
    service.coreness(0)
    service.coreness(0)
    assert service.stats()["cache"]["hits"] == 0
    service.kcore_subgraph(1)
    service.kcore_subgraph(1)
    stats = service.stats()["cache"]
    assert (stats["hits"], stats["misses"]) == (1, 1)
    assert stats["hit_rate"] == 0.5
    assert (stats["evictions"], stats["invalidations"], stats["stale"]) \
        == (0, 0, 0)


def test_stats_healthy_shape(service):
    stats = service.stats()
    assert stats["degraded"] is None
    assert stats["quarantined"] == []
    assert stats["events_quarantined"] == 0
    assert stats["epoch"] == 0
    assert stats["snapshot"]["pins"] == 0  # stats' own pin not counted
    assert stats["snapshot"]["retired"] == 0


def test_stats_degraded_and_quarantine_fields(service):
    _quarantine_one_batch(service)
    stats = service.stats()
    assert "quarantined" in stats["degraded"]
    assert stats["quarantined"] == [1]
    assert stats["events_quarantined"] == 1
    # The next clean batch clears the degraded flag but the quarantine
    # record stays.
    edge = _absent_edge(service._test_edges, service.num_nodes)
    service.apply([("+",) + edge])
    stats = service.stats()
    assert stats["degraded"] is None
    assert stats["quarantined"] == [1]


def test_stats_pins_reflect_inflight_readers(service):
    with service.read_view() as view:
        assert service.stats()["snapshot"]["pins"] == 1
        view.coreness(0)
    assert service.stats()["snapshot"]["pins"] == 0


def test_registry_views_track_stats_dict(service):
    registry = MetricsRegistry()
    service.register_metrics(registry)
    assert registry.get("repro_service_degraded").value == 0
    assert registry.get("repro_cache_hit_rate").value == 0.0
    service.coreness(0)
    service.coreness(0)
    service.kcore_subgraph(1)
    assert registry.get("repro_cache_entries").value == 1
    _quarantine_one_batch(service)
    stats = service.stats()
    assert registry.get("repro_service_degraded").value == 1
    assert registry.get("repro_service_quarantined_batches").value == \
        len(stats["quarantined"])
    assert registry.get("repro_service_events_quarantined").value == \
        stats["events_quarantined"]
    assert registry.get("repro_cache_hit_rate").value == \
        pytest.approx(service.cache_stats.hit_rate)
    # Pull-mode views read the live counters at collection time.
    assert registry.get("repro_service_queries_served").value == \
        service.queries_served
    outcome = registry.get("repro_apply_total")
    assert outcome.labels(outcome="quarantined").value == 1


def test_register_metrics_is_idempotent(service):
    registry = MetricsRegistry()
    assert service.register_metrics(registry) is registry
    service.register_metrics(registry)  # same registry, no conflict
    assert registry.get("repro_service_epoch").value == 0
