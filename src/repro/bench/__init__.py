"""Benchmark harness and reporting."""

from repro.bench.harness import (
    DECOMPOSITION_ALGORITHMS,
    decomposition_metrics,
    maintenance_trial,
    run_decomposition,
    sample_existing_edges,
    summarize_maintenance,
)
from repro.bench.reporting import (
    format_bytes,
    format_count,
    format_seconds,
    format_series,
    format_table,
    load_results,
    save_results,
)

__all__ = [
    "DECOMPOSITION_ALGORITHMS",
    "run_decomposition",
    "maintenance_trial",
    "sample_existing_edges",
    "summarize_maintenance",
    "decomposition_metrics",
    "format_count",
    "format_bytes",
    "format_seconds",
    "format_table",
    "format_series",
    "save_results",
    "load_results",
]
