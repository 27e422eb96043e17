"""Fixture-snippet tests: each checker against positive / negative /
suppressed miniature packages with injected contract tables."""

import pytest

from repro.analysis import GuardSpec, LintConfig, run_lint


def make_pkg(tmp_path, files):
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def lint(tmp_path, files, config, checker):
    return run_lint(make_pkg(tmp_path, files), config, checkers=[checker])


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


# ---------------------------------------------------------------------------
# IO001
# ---------------------------------------------------------------------------

IO_CONFIG = LintConfig(io_scope=("pkg/core/", "pkg/storage/csr.py"))


def test_io001_flags_open_os_and_pathlib_in_scope(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "import os\n"
            "import pathlib\n"
            "def f(path):\n"
            "    os.remove(path)\n"
            "    return open(path)\n"),
    }, IO_CONFIG, "io-charging")
    assert rule_ids(result) == ["IO001", "IO001", "IO001"]
    lines = [finding.line for finding in result.findings]
    assert lines == [2, 4, 5]  # pathlib import, os.remove, open


def test_io001_exact_file_scope_and_out_of_scope_clean(tmp_path):
    result = lint(tmp_path, {
        "storage/csr.py": "def f(p):\n    return open(p)\n",
        "storage/blockio.py": "def g(p):\n    return open(p)\n",
        "service/svc.py": "import pathlib\n",
    }, IO_CONFIG, "io-charging")
    assert [(f.path, f.rule_id) for f in result.findings] == [
        ("pkg/storage/csr.py", "IO001")]


def test_io001_allows_non_file_os_apis(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "import os\n"
            "def f():\n"
            "    return os.cpu_count(), os.getpid()\n"),
    }, IO_CONFIG, "io-charging")
    assert result.findings == []


def test_io001_suppressed(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "def f(path):\n"
            "    return open(path)  # repro: noqa[IO001]\n"),
    }, IO_CONFIG, "io-charging")
    assert result.findings == []
    assert rule_ids_of(result.suppressed) == ["IO001"]


def rule_ids_of(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# LCK001
# ---------------------------------------------------------------------------

LCK_GUARDS = {
    "pkg/svc.py": {
        "Service": {
            "_state": GuardSpec("self._lock"),
            "_buf": GuardSpec("self._lock", exempt_methods=("_drop",)),
        },
    },
}


def lck_config(**kwargs):
    return LintConfig(guarded_attributes=LCK_GUARDS, **kwargs)


def test_lck001_flags_unguarded_write(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def set(self, value):\n"
            "        self._state = value\n"),
    }, lck_config(), "lock-discipline")
    assert rule_ids(result) == ["LCK001"]
    assert "self._lock" in result.findings[0].message


def test_lck001_guarded_write_and_init_are_clean(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._state = 0\n"
            "    def set(self, value):\n"
            "        with self._lock:\n"
            "            self._state = value\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._state += 1\n"),
    }, lck_config(), "lock-discipline")
    assert result.findings == []


def test_lck001_wrong_lock_is_still_a_violation(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def set(self, value):\n"
            "        with self._other_lock:\n"
            "            self._state = value\n"),
    }, lck_config(), "lock-discipline")
    assert rule_ids(result) == ["LCK001"]


def test_lck001_exempt_method_and_subscript_write(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def _drop(self):\n"
            "        self._buf = None\n"          # exempt method
            "    def record(self, i):\n"
            "        self._buf[i] += 1\n"),       # subscript write, unguarded
    }, lck_config(), "lock-discipline")
    assert [(f.rule_id, f.line) for f in result.findings] == [("LCK001", 5)]


def test_lck001_suppressed(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def set(self, value):\n"
            "        self._state = value  # repro: noqa[LCK001]\n"),
    }, lck_config(), "lock-discipline")
    assert result.findings == []
    assert rule_ids_of(result.suppressed) == ["LCK001"]


# ---------------------------------------------------------------------------
# ENG001-ENG003
# ---------------------------------------------------------------------------

ENG_REGISTRY_OK = (
    "ENGINE_AWARE_ALGORITHMS = (\"alpha\",)\n"
    "def _load_python():\n"
    "    from pkg.alg import alpha\n"
    "    return {\"alpha\": alpha}\n"
    "def _load_fast():\n"
    "    from pkg.fast import alpha_fast\n"
    "    return {\"alpha\": alpha_fast}\n"
)


def eng_config():
    return LintConfig(
        engine_entry_points=(("pkg.alg", "alpha", "alpha"),),
        engine_registry_module="pkg.engines",
    )


def test_engine_checker_clean_world(tmp_path):
    result = lint(tmp_path, {
        "engines.py": ENG_REGISTRY_OK,
        "alg.py": (
            "def alpha(graph, *, depth=2, engine=None):\n"
            "    if engine is not None:\n"
            "        return engine_implementation(engine, \"alpha\")(\n"
            "            graph, depth=depth)\n"
            "    return graph\n"),
        "fast.py": "def alpha_fast(graph, *, depth=2):\n    return graph\n",
    }, eng_config(), "engine-parity")
    assert result.findings == []


def test_eng001_missing_engine_kwarg(tmp_path):
    result = lint(tmp_path, {
        "engines.py": ENG_REGISTRY_OK,
        "alg.py": (
            "def alpha(graph, *, depth=2):\n"
            "    return engine_implementation(None, \"alpha\")(graph)\n"),
        "fast.py": "def alpha_fast(graph, *, depth=2):\n    return graph\n",
    }, eng_config(), "engine-parity")
    assert "ENG001" in rule_ids(result)


def test_eng001_engine_param_never_routed(tmp_path):
    result = lint(tmp_path, {
        "engines.py": ENG_REGISTRY_OK,
        "alg.py": (
            "def alpha(graph, *, depth=2, engine=None):\n"
            "    return graph\n"),
        "fast.py": "def alpha_fast(graph, *, depth=2):\n    return graph\n",
    }, eng_config(), "engine-parity")
    assert rule_ids(result) == ["ENG001"]
    assert "engine_implementation" in result.findings[0].message


def test_eng002_signature_drift(tmp_path):
    result = lint(tmp_path, {
        "engines.py": ENG_REGISTRY_OK,
        "alg.py": (
            "def alpha(graph, *, depth=2, engine=None):\n"
            "    return engine_implementation(engine, \"alpha\")(graph)\n"),
        # drift: kernel renamed the kwarg and lost its default
        "fast.py": "def alpha_fast(graph, *, levels):\n    return graph\n",
    }, eng_config(), "engine-parity")
    assert rule_ids(result) == ["ENG002"]
    assert "signature" in result.findings[0].message


def test_eng003_declared_but_unrouted_algorithm(tmp_path):
    registry = (
        "ENGINE_AWARE_ALGORITHMS = (\"alpha\", \"beta\")\n"
        "def _load_python():\n"
        "    from pkg.alg import alpha\n"
        "    return {\"alpha\": alpha}\n"
    )
    result = lint(tmp_path, {
        "engines.py": registry,
        "alg.py": (
            "def alpha(graph, *, engine=None):\n"
            "    return engine_implementation(engine, \"alpha\")(graph)\n"),
    }, eng_config(), "engine-parity")
    # beta: missing from the entry-point table AND from _load_python
    assert rule_ids(result) == ["ENG003", "ENG003"]
    assert all("beta" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# EXC001 / EXC002
# ---------------------------------------------------------------------------

def test_exc001_bare_except(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"),
    }, LintConfig(), "exception-discipline")
    assert rule_ids(result) == ["EXC001"]


def test_exc002_swallowing_broad_except(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        return None\n"),
    }, LintConfig(), "exception-discipline")
    assert rule_ids(result) == ["EXC002"]


def test_exc002_reraise_and_bound_use_are_clean(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "def f(failures):\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        cleanup()\n"
            "        raise\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        failures.append(exc)\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"),   # narrow: always fine
    }, LintConfig(), "exception-discipline")
    assert result.findings == []


def test_exc002_suppressed(tmp_path):
    result = lint(tmp_path, {
        "svc.py": (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # repro: noqa[EXC002]\n"
            "        return None\n"),
    }, LintConfig(), "exception-discipline")
    assert result.findings == []
    assert rule_ids_of(result.suppressed) == ["EXC002"]


# ---------------------------------------------------------------------------
# OBS001-OBS003
# ---------------------------------------------------------------------------

OBS_CONFIG = LintConfig(
    metric_names=frozenset({"repro_reads_total", "repro_lat_seconds",
                            "repro_cache_%s"}),
    span_names=frozenset({"alg.pass"}),
)


def test_obs001_unprefixed_and_uninventoried_names(tmp_path):
    result = lint(tmp_path, {
        "obs.py": (
            "def wire(registry):\n"
            "    registry.counter(\"reads_total\")\n"
            "    registry.counter(\"repro_rogue_total\")\n"
            "    registry.counter(\"repro_reads_total\")\n"),
    }, OBS_CONFIG, "obs-naming")
    assert rule_ids(result) == ["OBS001", "OBS001"]
    assert "prefix" in result.findings[0].message
    assert "inventory" in result.findings[1].message


def test_obs001_template_names_checked_by_literal_text(tmp_path):
    result = lint(tmp_path, {
        "obs.py": (
            "def wire(registry, fields):\n"
            "    for field in fields:\n"
            "        registry.gauge(\"repro_cache_%s\" % field)\n"
            "        registry.gauge(\"repro_io_%s\" % field)\n"),
    }, OBS_CONFIG, "obs-naming")
    # the cache template is declared, the io one is not
    assert [(f.rule_id, f.line) for f in result.findings] == [("OBS001", 4)]


def test_obs002_histogram_needs_unit_suffix(tmp_path):
    result = lint(tmp_path, {
        "obs.py": (
            "def wire(registry):\n"
            "    registry.histogram(\"repro_lat_seconds\")\n"
            "    registry.histogram(\"repro_reads_total\")\n"),
    }, OBS_CONFIG, "obs-naming")
    assert rule_ids(result) == ["OBS002"]
    assert result.findings[0].line == 3


def test_obs003_span_inventory(tmp_path):
    result = lint(tmp_path, {
        "alg.py": (
            "def run(tracer):\n"
            "    with span(\"alg.pass\"):\n"
            "        pass\n"
            "    with tracer.span(\"alg.rogue\"):\n"
            "        pass\n"),
    }, OBS_CONFIG, "obs-naming")
    assert [(f.rule_id, f.line) for f in result.findings] == [("OBS003", 4)]


def test_obs_dynamic_names_out_of_static_reach_are_skipped(tmp_path):
    result = lint(tmp_path, {
        "obs.py": (
            "def wire(registry, name):\n"
            "    registry.counter(name)\n"),
    }, OBS_CONFIG, "obs-naming")
    assert result.findings == []


# ---------------------------------------------------------------------------
# DET001 / DET002
# ---------------------------------------------------------------------------

DET_CONFIG = LintConfig(determinism_scope=("pkg/core/",))


def test_det001_wall_clock_and_unseeded_random(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "import random\n"
            "import time\n"
            "def f(items):\n"
            "    random.shuffle(items)\n"
            "    rng = random.Random()\n"
            "    return time.time()\n"),
    }, DET_CONFIG, "determinism")
    assert rule_ids(result) == ["DET001", "DET001", "DET001"]


def test_det001_monotonic_timers_and_seeded_random_are_clean(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "import random\n"
            "import time\n"
            "def f():\n"
            "    rng = random.Random(42)\n"
            "    started = time.perf_counter()\n"
            "    return time.perf_counter() - started, rng.random()\n"),
    }, DET_CONFIG, "determinism")
    assert result.findings == []


def test_det001_out_of_scope_is_clean(tmp_path):
    result = lint(tmp_path, {
        "bench/timing.py": (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"),
    }, DET_CONFIG, "determinism")
    assert result.findings == []


def test_det002_set_iteration(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "def f(graph):\n"
            "    frontier = {1, 2, 3}\n"
            "    for v in frontier:\n"
            "        graph.visit(v)\n"
            "    for v in {4, 5}:\n"
            "        graph.visit(v)\n"),
    }, DET_CONFIG, "determinism")
    assert rule_ids(result) == ["DET002", "DET002"]


def test_det002_sorted_iteration_is_clean(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "def f(graph, nodes):\n"
            "    frontier = set(nodes)\n"
            "    for v in sorted(frontier):\n"
            "        graph.visit(v)\n"
            "    for v in nodes:\n"
            "        graph.visit(v)\n"),
    }, DET_CONFIG, "determinism")
    assert result.findings == []


def test_det002_suppressed(tmp_path):
    result = lint(tmp_path, {
        "core/alg.py": (
            "def f(graph):\n"
            "    frontier = {1, 2}\n"
            "    for v in frontier:  # repro: noqa[DET002]\n"
            "        graph.visit(v)\n"),
    }, DET_CONFIG, "determinism")
    assert result.findings == []
    assert rule_ids_of(result.suppressed) == ["DET002"]
