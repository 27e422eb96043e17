"""Per-benchmark trend view over the ``BENCH_RESULTS.json`` trajectory.

``benchmarks/collect_results.py`` stamps every record with the
repository revision that produced it, so the trajectory accumulates one
row set per benchmark per PR.  This module turns that history into the
ROADMAP's "trend view": group records into *series* (figure + label
keys), order each series by revision and render sparkline tables
(:func:`render_trend`) -- ``repro report --trend`` prints them.  It is a
viewer, not a gate: ``benchmarks/perf/run.py --compare`` applies the
metric directions and bounds of ``BENCHMARK.json``.

A record looks like::

    {"figure": "fig3_convergence", "rev": "1.6.0", "scale": 1.0,
     "dataset": "twitter", "algorithm": "SemiCore", "engine": "numpy",
     "metrics": {"seconds": 1.23, "read_ios": 456, ...}}
"""

from __future__ import annotations

import json

__all__ = [
    "build_series",
    "load_trajectory",
    "render_trend",
    "sparkline",
]

#: Label keys identifying one series within a figure (mirrors
#: ``LABEL_KEYS`` in ``benchmarks/collect_results.py``).
SERIES_KEYS = ("dataset", "algorithm", "engine", "fraction", "mode")

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def load_trajectory(path):
    """Records of a ``BENCH_RESULTS.json``; [] when missing/unreadable."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return []
    if not isinstance(payload, dict):
        return []
    records = payload.get("records")
    if not isinstance(records, list):
        return []
    return [record for record in records
            if isinstance(record, dict)
            and isinstance(record.get("metrics"), dict)]


def rev_sort_key(rev):
    """Order revisions oldest-first: un-stamped, then non-numeric, then
    dotted numeric versions numerically."""
    if rev is None:
        return (0, ())
    parts = str(rev).split(".")
    if parts and all(part.isdigit() for part in parts):
        return (2, tuple(int(part) for part in parts))
    return (1, (str(rev),))


def series_key(record):
    """``(figure, (label, value), ...)`` identifying a record's series."""
    labels = tuple((key, str(record[key])) for key in SERIES_KEYS
                   if record.get(key) is not None)
    return (str(record.get("figure")),) + labels


def series_label(key):
    """Human form of a :func:`series_key`."""
    figure = key[0]
    labels = ", ".join("%s=%s" % pair for pair in key[1:])
    return "%s [%s]" % (figure, labels) if labels else figure


def build_series(records):
    """Group records into ordered series.

    Returns ``{series_key: [(rev, metrics_dict), ...]}`` with each list
    ordered oldest revision first.  When one revision contributed
    several records to the same series (re-runs), the last one wins.
    """
    series = {}
    for record in records:
        key = series_key(record)
        series.setdefault(key, {})[record.get("rev")] = record["metrics"]
    out = {}
    for key, by_rev in series.items():
        revs = sorted(by_rev, key=rev_sort_key)
        out[key] = [(rev, by_rev[rev]) for rev in revs]
    return out


def sparkline(values):
    """Unicode sparkline of a numeric sequence (min-max normalized)."""
    numbers = [float(v) for v in values]
    if not numbers:
        return ""
    low, high = min(numbers), max(numbers)
    if high == low:
        return _SPARK_CHARS[0] * len(numbers)
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((v - low) / (high - low) * top))]
        for v in numbers)


def _format_number(value):
    value = float(value)
    if value == int(value) and abs(value) < 1e12:
        return "%d" % int(value)
    if abs(value) >= 100:
        return "%.1f" % value
    if abs(value) >= 1:
        return "%.3f" % value
    return "%.4g" % value


def _numeric_points(points, metric):
    """``[(rev, value), ...]`` of a metric's numeric samples, in order."""
    out = []
    for rev, metrics in points:
        value = metrics.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((rev, float(value)))
    return out


def render_trend(records, *, metrics=None, min_points=1):
    """The trajectory as per-benchmark ASCII trend tables (a string).

    One block per figure, one line per series x metric: sparkline over
    revisions, first and last values, and the percent change of the
    last step.  ``metrics`` restricts the columns; ``min_points`` hides
    series with fewer revisions (e.g. 2 to show only real trends).
    """
    series = build_series(records)
    if not series:
        return "no benchmark trajectory (run the benchmarks first)\n"
    blocks = {}
    for key in sorted(series):
        figure = key[0]
        points = series[key]
        names = sorted({name for _, m in points for name in m
                        if metrics is None or name in metrics})
        lines = []
        for name in names:
            samples = _numeric_points(points, name)
            if len(samples) < min_points:
                continue
            values = [value for _, value in samples]
            spark = sparkline(values)
            step = ""
            if len(values) >= 2 and values[-2] != 0:
                pct = (values[-1] - values[-2]) / abs(values[-2]) * 100
                step = " (%+.1f%% vs %s)" % (pct, samples[-2][0])
            lines.append("  %-46s %-12s %s -> %s%s" % (
                series_label(key) + " " + name,
                spark,
                _format_number(values[0]), _format_number(values[-1]),
                step))
        if lines:
            revs = " ".join(str(rev) for rev, _ in points)
            blocks.setdefault(figure, []).append(
                ("revisions: %s" % revs, lines))
    if not blocks:
        return "no benchmark trajectory (run the benchmarks first)\n"
    out = []
    for figure in sorted(blocks):
        out.append("== %s ==" % figure)
        seen_revs = set()
        for revline, lines in blocks[figure]:
            if revline not in seen_revs:
                seen_revs.add(revline)
                out.append(revline)
            out.extend(lines)
        out.append("")
    return "\n".join(out)
