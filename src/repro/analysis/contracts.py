"""The shipped contract tables: what `repro lint` enforces on this repo.

Everything here is *data* consumed by :mod:`repro.analysis.checkers`.
The tables are the single place where the repo's cross-cutting
invariants are written down in machine-checkable form:

* which modules live inside the charged-I/O boundary,
* which attributes are guarded by which locks,
* the two-lock publication orderings (none are declared today),
* the engine-aware entry points and the kernel registry behind them,
* the metric- and span-name inventories of the telemetry plane,
* which subtrees the determinism rules police.

Growing the system legitimately (a new metric, a new guarded field, a
new engine-aware algorithm) means extending a table here in the same PR
-- that is the point: the contract change is reviewed next to the code
change instead of drifting silently.
"""

from __future__ import annotations

from repro.analysis.framework import GuardSpec, LintConfig

# ---------------------------------------------------------------------------
# I/O charging (IO001).  Modules that implement or orchestrate the
# paper's algorithms must never open files themselves: every block read
# or write goes through BlockDevice / GraphStorage so IOStats stays an
# honest reproduction of the I/O model.  checkpoint/journal codecs live
# in repro.storage for exactly this reason.
# ---------------------------------------------------------------------------

IO_SCOPE = (
    "repro/core/",
    "repro/storage/csr.py",
)

# ---------------------------------------------------------------------------
# Lock discipline (LCK001).  GuardSpec.lock is the with-context
# expression, as source text, that must be held around writes to the
# attribute.  __init__ is always exempt (the object is not yet shared).
# ---------------------------------------------------------------------------

GUARDED_ATTRIBUTES = {
    "repro/service/core_service.py": {
        "CoreService": {
            "_snapshot": GuardSpec("self._swap_lock"),
            "_epoch": GuardSpec("self._swap_lock"),
            "_events_applied": GuardSpec("self._swap_lock"),
            "_queries_served": GuardSpec("self._counter_lock"),
            "_snapshots_retired": GuardSpec("self._counter_lock"),
        },
    },
    "repro/service/snapshot.py": {
        "EpochSnapshot": {
            "_refs": GuardSpec("self._lock"),
            "_retired": GuardSpec("self._lock"),
            "_subgraphs": GuardSpec(
                "self._lock", exempt_methods=("_drop",),
                reason="_drop runs exactly once, after the last "
                       "reference is gone; no reader can race it"),
            "_rows": GuardSpec(
                "self._lock", exempt_methods=("_drop",),
                reason="last-reference protocol, see _subgraphs"),
        },
    },
    "repro/obs/registry.py": {
        "MetricsRegistry": {
            "_families": GuardSpec("self._lock"),
            "_order": GuardSpec("self._lock"),
        },
        "MetricFamily": {
            "_children": GuardSpec(
                "self._registry._lock",
                reason="children share the registry lock so one "
                       "collect() sees a consistent family"),
        },
        "Counter": {
            "_value": GuardSpec("self._lock"),
        },
        "Gauge": {
            "_value": GuardSpec("self._lock"),
        },
        "Histogram": {
            "_counts": GuardSpec("self._lock"),
            "_sum": GuardSpec("self._lock"),
            "_count": GuardSpec("self._lock"),
        },
    },
}

# ---------------------------------------------------------------------------
# Engine parity (ENG001-ENG003).  Every public algorithm entry point
# accepts engine= and routes non-default engines through the registry;
# registered kernels mirror the reference signatures (minus engine=).
# ---------------------------------------------------------------------------

#: ``(module, function, registry algorithm key)``.
ENGINE_ENTRY_POINTS = (
    ("repro.core.semicore", "semi_core", "semicore"),
    ("repro.core.semicore_plus", "semi_core_plus", "semicore+"),
    ("repro.core.semicore_star", "semi_core_star", "semicore*"),
    ("repro.core.emcore", "em_core", "emcore"),
    ("repro.core.imcore", "im_core", "imcore"),
    ("repro.core.distributed", "distributed_core", "distributed"),
    ("repro.core.sharded", "sharded_semi_core_star", "shard-pass"),
)

ENGINE_REGISTRY_MODULE = "repro.core.engines"

# ---------------------------------------------------------------------------
# Observability naming (OBS001-OBS003).  The declared inventories; a
# ``%s`` entry is a template whose literal left operand must match.
# ---------------------------------------------------------------------------

METRIC_NAMES = frozenset({
    # service plane (core_service.register_metrics)
    "repro_service_epoch",
    "repro_service_events_applied",
    "repro_service_queries_served",
    "repro_service_degraded",
    "repro_service_poisoned",
    "repro_service_quarantined_batches",
    "repro_service_events_quarantined",
    "repro_cache_%s",
    "repro_cache_hit_rate",
    "repro_cache_entries",
    "repro_snapshot_epoch",
    "repro_snapshot_pins",
    "repro_snapshots_retired",
    "repro_io_%s",
    "repro_journal_fsyncs",
    "repro_journal_events",
    "repro_journal_segments",
    "repro_journal_disk_bytes",
    "repro_apply_seconds",
    "repro_apply_total",
    "repro_apply_retries",
    # shard executor plane (core.sharded.register_executor_metrics)
    "repro_executor_respawns",
    "repro_executor_processes",
    "repro_executor_pool_forks",
    "repro_shm_bytes",
    # tracing plane (obs.trace)
    "repro_span_seconds",
})

SPAN_NAMES = frozenset({
    "decompose",
    "semicore.pass",
    "semicore_plus.pass",
    "semicore_star.pass",
    "emcore.partition",
    "emcore.round",
    "imcore.load",
    "imcore.peel",
    "sharded.round",
    "sharded.gather",
    "sharded.scatter",
    "service.apply",
    "service.validate",
    "service.journal_append",
    "service.checkpoint",
    "service.maintain",
    "service.snapshot_advance",
    "service.publish",
})

# ---------------------------------------------------------------------------
# Determinism (DET001/DET002).  Algorithm code must be a pure function
# of its inputs: monotonic timers for *reporting* elapsed time are fine,
# wall-clock reads, unseeded randomness and set-iteration order are not.
# ---------------------------------------------------------------------------

DETERMINISM_SCOPE = (
    "repro/core/",
)


def default_config():
    """The :class:`LintConfig` enforcing this repo's shipped contracts."""
    return LintConfig(
        io_scope=IO_SCOPE,
        determinism_scope=DETERMINISM_SCOPE,
        guarded_attributes=GUARDED_ATTRIBUTES,
        engine_entry_points=ENGINE_ENTRY_POINTS,
        engine_registry_module=ENGINE_REGISTRY_MODULE,
        metric_names=METRIC_NAMES,
        span_names=SPAN_NAMES,
    )
