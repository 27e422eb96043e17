"""One-command performance benchmark: four workloads, end to end and per layer.

Run from the repository root::

    # one workload, as the regression gate runs it (last stdout line: JSON)
    python3 benchmarks/perf/run.py --workload serve-read --seed 1 \\
        --seconds 15 --trace 0

    # all four workloads; --trace adds the per-layer breakdown
    PYTHONPATH=src python -m benchmarks.perf.run --seed 1 [--trace] \\
        [--out results.json]

    # apply BENCHMARK.json's bounds to two result files
    PYTHONPATH=src python -m benchmarks.perf.run --compare A.json B.json

Each workload runs in its own subprocess (``--worker``), so peak RSS is
per workload.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones, each by name with its unit; both check every output
and exit non-zero when a check failed.  Metric names, units, directions
and bounds come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = HERE / ".work"
#: Seconds a workload subprocess may take (a whole run must end in 180).
CHILD_TIMEOUT = 170
#: Relative bound ``--compare`` applies to per-layer metrics, which
#: BENCHMARK.json gives no bound of their own.
PER_LAYER_BOUND = 0.10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(SPEC_PATH, "r", encoding="ascii") as handle:
        return json.load(handle)


def _workloads_module():
    """Import the workload code, with ``src/`` made importable first."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise BenchError("no repro package under %s; run from a full "
                         "checkout of the repository" % src)
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if __package__:
        from . import workloads
    else:
        from benchmarks.perf import workloads
    return workloads


# ----------------------------------------------------------------------
# running workloads
# ----------------------------------------------------------------------

def run_worker(args):
    """``--worker``: run one workload here, print its result as JSON."""
    workloads = _workloads_module()
    result = workloads.run_workload(
        args.worker, args.seed, seconds=args.seconds, trace=bool(args.trace),
        quick=args.quick, workdir=str(WORK_DIR / ("%s-%d" % (args.worker,
                                                              os.getpid()))))
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def run_in_subprocess(name, args):
    """Run one workload in a fresh interpreter and return its result."""
    command = [sys.executable, str(HERE / "run.py"), "--worker", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    # Own session, so a timeout can take down the pool workers too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(ROOT),
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError("%s: no result within %ds" % (name, CHILD_TIMEOUT))
    lines = out.decode("utf-8").strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError("%s: worker exited with status %d"
                         % (name, child.returncode))
    return json.loads(lines[-1])


def selected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def print_result(result, spec, trace, out):
    metrics = result["metrics"]
    print("== %s (seed %d, %d attempted, %d failed) =="
          % (result["workload"], result["seed"], result["attempted"],
             result["failed"]), file=out)
    for note in result["notes"]:
        print("  note: %s" % note, file=out)
    zero = 0
    for entry in selected_metrics(spec, trace):
        value = metrics[entry["name"]]
        if trace and not value:
            zero += 1
            continue
        print("  %-32s %14.6g %s" % (entry["name"], value, entry["unit"]),
              file=out)
    if trace:
        print("  (%d per-layer metrics are 0: layers this workload does "
              "not reach)" % zero, file=out)
        print_layer_table(result, out)
    for failure in result["failures"]:
        print("  FAILED: %s" % failure, file=sys.stderr)


def print_layer_table(result, out):
    """Self time per layer row; rows plus the residuals add up to wall."""
    workloads = _workloads_module()
    metrics = result["metrics"]
    wall = metrics["trace.wall_s"]
    print("  -- traced self time per operation (wall %.6g s) --" % wall,
          file=out)
    rows = [(row, metrics[row]) for row in workloads.ROWS]
    rows += [(row + " (residual)", metrics[row])
             for row in workloads.RESIDUALS]
    for row, seconds in rows:
        if seconds:
            print("  %-34s %12.6f s %6.1f%%"
                  % (row, seconds, 100.0 * seconds / wall if wall else 0.0),
                  file=out)
    print("  %-34s %12.6f s (sum error %.3f%%)"
          % ("sum", sum(s for _, s in rows),
             100.0 * workloads.layer_sum_error(metrics)), file=out)


def contract_line(results, spec, trace):
    """The final stdout line: correctness, counts and selected metrics."""
    units = {e["name"]: e["unit"] for e in selected_metrics(spec, trace)}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, unit in units.items():
            metrics[prefix + name] = {"value": result["metrics"][name],
                                      "unit": unit}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# result files (BENCH_RESULTS.json record shape)
# ----------------------------------------------------------------------

def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _filesystem(path):
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    path = os.path.realpath(path)
    best = ("", None)
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount, kind = fields[1], fields[2]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best[0]):
                    best = (mount, kind)
    except OSError:
        return None
    return best[1]


def machine():
    """Where the numbers were measured."""
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    WORK_DIR.mkdir(exist_ok=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_dir_filesystem": _filesystem(str(WORK_DIR)),
        "git_rev": _git_rev(),
    }


def to_record(result, rev):
    return {
        "figure": "perf." + result["workload"],
        "rev": rev,
        "scale": result["scale"],
        "dataset": result["dataset"],
        "engine": "numpy",
        "mode": "traced" if result["trace"] else "untraced",
        "seed": result["seed"],
        "quick": result["quick"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def _relative_spread(values):
    """Run-to-run spread as a share of the median.

    The interquartile range from four samples on; below that, the full
    range (quartiles of two or three samples are extrapolations).
    """
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _group(records):
    """``{(figure, mode): {metric: [values...]}}`` plus error counts."""
    groups = {}
    errors = {}
    for record in records:
        key = (record["figure"], record.get("mode", "untraced"))
        for name, value in record["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(value)
        failed, attempted = errors.get(key, (0, 0))
        errors[key] = (failed + record.get("failed", 0),
                       attempted + record.get("attempted", 0))
    return groups, errors


def write_results(path, results):
    """Merge this run's records into ``path`` and refresh the spreads."""
    path = Path(path)
    payload = {"schema": 1, "records": []}
    if path.exists():
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
    info = machine()
    rev = os.environ.get("REPRO_BENCH_REV")
    if not rev and info["git_rev"]:
        rev = info["git_rev"][:12]
    payload["machine"] = info
    payload["records"].extend(to_record(result, rev) for result in results)
    groups, _ = _group(payload["records"])
    payload["spread"] = {
        "%s/%s" % key: {name: _relative_spread(values)
                        for name, values in sorted(metrics.items())}
        for key, metrics in sorted(groups.items())}
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def verdict(before, after, better, bound):
    """ok / worse / better / unresolved for two sample lists.

    A change beyond ``bound`` (a share of the ``before`` median) in the
    metric's bad direction is worse.  When either side's own spread is
    wider than the bound, the verdict is unresolved unless every
    ``after`` sample beats every ``before`` sample.
    """
    a = statistics.median(before)
    b = statistics.median(after)
    if a == b:
        return "ok"
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        return "worse" if sign * (b - a) > 0 else "better"
    if max(_relative_spread(before), _relative_spread(after)) > bound:
        beats = all(sign * (y - x) < 0 for x in before for y in after)
        return "better" if beats else "unresolved"
    change = sign * (b - a) / abs(a) if a else float("inf")
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "ok"


def compare(path_a, path_b, spec, out=None):
    """Print one verdict row per (workload, metric); 1 if a gate failed.

    End-to-end metrics use their BENCHMARK.json bound.  A per-layer
    metric that repeated exactly across A's records is a deterministic
    count and must stay exact; other per-layer metrics get
    :data:`PER_LAYER_BOUND`.  The error rate may not rise.
    """
    with open(path_a, "r", encoding="ascii") as handle:
        groups_a, errors_a = _group(json.load(handle)["records"])
    with open(path_b, "r", encoding="ascii") as handle:
        groups_b, errors_b = _group(json.load(handle)["records"])
    out = out or sys.stdout
    gated = {e["name"]: e for e in spec["end_to_end"]}
    layered = {e["name"]: e for e in spec["per_layer"]}
    status = 0
    print("%-22s %-9s %-32s %13s %13s %8s %6s %s"
          % ("workload", "mode", "metric", "A", "B", "change", "bound",
             "verdict"), file=out)
    for key in sorted(set(groups_a) & set(groups_b)):
        figure, mode = key
        workload = figure.split(".", 1)[-1]
        failed_a, attempted_a = errors_a[key]
        failed_b, attempted_b = errors_b[key]
        rate_a = failed_a / attempted_a if attempted_a else 0.0
        rate_b = failed_b / attempted_b if attempted_b else 0.0
        rate_verdict = "worse" if rate_b > rate_a else "ok"
        if rate_verdict == "worse":
            status = 1
        print("%-22s %-9s %-32s %13.6g %13.6g %8s %6s %s"
              % (workload, mode, "error_rate", rate_a, rate_b, "", "0",
                 rate_verdict), file=out)
        for name in list(gated) + list(layered):
            if name not in groups_a[key] or name not in groups_b[key]:
                continue
            before = groups_a[key][name]
            after = groups_b[key][name]
            entry = gated.get(name) or layered[name]
            bound = entry.get("bound")
            if bound is None:
                exact = len(before) > 1 and len(set(before)) == 1
                bound = 0 if exact else PER_LAYER_BOUND
            result = verdict(before, after, entry["better"], bound)
            if name in gated and result == "worse":
                status = 1
            a = statistics.median(before)
            b = statistics.median(after)
            change = "%+.1f%%" % (100.0 * (b - a) / abs(a)) if a else ""
            print("%-22s %-9s %-32s %13.6g %13.6g %8s %6s %s"
                  % (workload, mode, name, a, b, change, "%g" % bound,
                     result), file=out)
    return status


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the performance benchmark (see README.md).")
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured seconds per workload (default "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report the per-layer "
                             "metrics of a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and fixed operation counts")
    parser.add_argument("--out", help="merge the results into this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files and exit")
    parser.add_argument("--worker", choices=names, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        spec = load_spec()
    except OSError as exc:
        print("error: cannot read %s: %s" % (SPEC_PATH, exc),
              file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    try:
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if args.worker:
            return run_worker(args)
        _workloads_module()  # fails fast outside a full checkout
        names = [args.workload] if args.workload else \
            [w["name"] for w in spec["workloads"]]
        results = []
        for name in names:
            result = run_in_subprocess(name, args)
            print_result(result, spec, args.trace, sys.stdout)
            results.append(result)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        write_results(args.out, results)
    line = contract_line(results, spec, args.trace)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
