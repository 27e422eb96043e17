"""Pluggable engine registry for the full algorithm surface.

An *engine* is a set of interchangeable kernel implementations keyed by
algorithm name: the decomposition family (``"semicore"``,
``"semicore+"``, ``"semicore*"``, ``"emcore"``, ``"imcore"``,
``"distributed"``), the maintenance operations (``"insert"``,
``"insert*"``, ``"delete*"``), and orchestrated kernels such as
``"shard-pass"`` (the per-shard sweep driven by
:func:`repro.core.sharded.sharded_semi_core_star`).
The registry decouples the algorithm API (``semi_core(graph,
engine=...)``, ``CoreMaintainer(..., engine=...)``) from how the
per-node work is executed, so future backends (GPU, distributed) plug
in without touching the algorithm modules again.

Two engines ship today:

``python``
    The reference pure-Python implementations -- the default, and the
    semantics every other engine must reproduce bit-for-bit (core
    numbers, iteration counts, node computations, per-iteration traces
    and block-I/O figures).

``numpy``
    Vectorized batch kernels over :class:`~repro.storage.csr.CSRGraph`
    snapshots (:mod:`repro.core.engines.numpy_engine`).  numpy is a hard
    install requirement; the kernels are still loaded lazily, on first
    use.

The contract an engine implementation must honour is documented in
``docs/ARCHITECTURE.md`` and enforced by ``tests/test_engines.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ReproError

#: An engine kernel: algorithm entry point of one implementation.
Kernel = Callable[..., Any]

DEFAULT_ENGINE = "python"

#: Decomposition algorithm names that accept an ``engine=`` argument.
ENGINE_AWARE_ALGORITHMS = ("semicore", "semicore+", "semicore*", "emcore",
                           "imcore", "distributed")

#: Kernel names resolvable through the registry but driven by a higher
#: level orchestrator rather than called as stand-alone algorithms
#: (``"shard-pass"`` runs under :func:`repro.core.sharded.
#: sharded_semi_core_star`).
ENGINE_KERNELS = ("shard-pass",)

#: Maintenance operation names resolvable through the registry
#: (routed via the maintenance functions' ``engine=`` argument and
#: :class:`~repro.core.maintenance.maintainer.CoreMaintainer`).
ENGINE_AWARE_MAINTENANCE = ("insert", "insert*", "delete*")


class EngineSpec:
    """A named engine: metadata plus a lazy implementation loader."""

    def __init__(self, name: str, description: str,
                 loader: Callable[[], Mapping[str, Kernel]]) -> None:
        self.name = name
        self.description = description
        self._loader = loader
        self._impls: dict[str, Kernel] | None = None

    def implementations(self) -> dict[str, Kernel]:
        """Load (once) and return ``{algorithm: callable}``."""
        if self._impls is None:
            self._impls = dict(self._loader())
        return self._impls

    def __repr__(self) -> str:
        return "EngineSpec(%r)" % (self.name,)


_REGISTRY: dict[str, "EngineSpec"] = {}


def register_engine(name: str, description: str,
                    loader: Callable[[], Mapping[str, Kernel]]) -> EngineSpec:
    """Register (or replace) an engine under ``name``.

    ``loader`` is a zero-argument callable returning the implementation
    mapping; it runs on first use so engines with heavy dependencies cost
    nothing until requested.
    """
    spec = EngineSpec(name.lower(), description, loader)
    _REGISTRY[spec.name] = spec
    return spec


def engine_names() -> list[str]:
    """All registered engine names, sorted."""
    return sorted(_REGISTRY)


def get_engine(name: str | None) -> EngineSpec:
    """Look up an :class:`EngineSpec`; raises on unknown names."""
    try:
        return _REGISTRY[(name or DEFAULT_ENGINE).lower()]
    except KeyError:
        raise ReproError(
            "unknown engine %r (registered: %s)"
            % (name, ", ".join(engine_names()))
        ) from None


def engine_implementation(engine: str | None,
                          algorithm: str) -> Kernel:
    """Resolve one algorithm kernel of one engine.

    Raises :class:`ReproError` for unknown engines and algorithms the
    engine does not implement.
    """
    spec = get_engine(engine)
    impls = spec.implementations()
    try:
        return impls[algorithm]
    except KeyError:
        raise ReproError(
            "engine %r does not implement algorithm %r (supported: %s)"
            % (spec.name, algorithm, ", ".join(sorted(impls)))
        ) from None


def _load_python() -> dict[str, Kernel]:
    from repro.core.distributed import distributed_core
    from repro.core.emcore import em_core
    from repro.core.imcore import im_core
    from repro.core.maintenance.delete_star import semi_delete_star
    from repro.core.maintenance.insert import semi_insert
    from repro.core.maintenance.insert_star import semi_insert_star
    from repro.core.semicore import semi_core
    from repro.core.semicore_plus import semi_core_plus
    from repro.core.semicore_star import semi_core_star
    from repro.core.sharded import shard_pass_python

    return {
        "semicore": semi_core,
        "semicore+": semi_core_plus,
        "semicore*": semi_core_star,
        "emcore": em_core,
        "imcore": im_core,
        "distributed": distributed_core,
        "shard-pass": shard_pass_python,
        "insert": semi_insert,
        "insert*": semi_insert_star,
        "delete*": semi_delete_star,
    }


def _load_numpy() -> dict[str, Kernel]:
    from repro.core.engines import (
        numpy_emcore,
        numpy_engine,
        numpy_maintenance,
    )

    return {
        "semicore": numpy_engine.semi_core_numpy,
        "semicore+": numpy_engine.semi_core_plus_numpy,
        "semicore*": numpy_engine.semi_core_star_numpy,
        "emcore": numpy_emcore.em_core_numpy,
        "imcore": numpy_engine.im_core_numpy,
        "distributed": numpy_engine.distributed_core_numpy,
        "shard-pass": numpy_engine.shard_pass_numpy,
        "insert": numpy_maintenance.semi_insert_numpy,
        "insert*": numpy_maintenance.semi_insert_star_numpy,
        "delete*": numpy_maintenance.semi_delete_star_numpy,
    }


register_engine(
    "python",
    "reference pure-Python kernels (the semantics other engines must "
    "match)",
    _load_python,
)

register_engine(
    "numpy",
    "NumPy-vectorized batch kernels over CSR snapshots",
    _load_numpy,
)
