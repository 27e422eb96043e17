"""Core decomposition and maintenance algorithms."""

from repro.core.distributed import distributed_core
from repro.core.emcore import em_core
from repro.core.engines import (
    DEFAULT_ENGINE,
    ENGINE_AWARE_ALGORITHMS,
    engine_implementation,
    engine_names,
    get_engine,
    register_engine,
)
from repro.core.imcore import im_core
from repro.core.kcore import (
    core_distribution,
    core_histogram,
    degeneracy,
    k_core_nodes,
    k_core_subgraph,
)
from repro.core.locality import compute_cnt, local_core, satisfies_locality
from repro.core.ordering import (
    clique_number_upper_bound,
    degeneracy_ordering,
    densest_core,
    greedy_coloring,
)
from repro.core.validate import validate_cores, verify_storage
from repro.core.maintenance import (
    CoreMaintainer,
    im_delete,
    im_insert,
    semi_delete_star,
    semi_insert,
    semi_insert_star,
)
from repro.core.result import DecompositionResult, MaintenanceResult
from repro.core.semicore import semi_core
from repro.core.semicore_plus import semi_core_plus
from repro.core.semicore_star import converge_star, semi_core_star
from repro.core.sharded import (
    PersistentShardExecutor,
    SerialShardExecutor,
    executor_names,
    get_executor,
    sharded_semi_core_star,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_AWARE_ALGORITHMS",
    "engine_names",
    "engine_implementation",
    "get_engine",
    "register_engine",
    "im_core",
    "em_core",
    "distributed_core",
    "degeneracy_ordering",
    "greedy_coloring",
    "clique_number_upper_bound",
    "densest_core",
    "validate_cores",
    "verify_storage",
    "semi_core",
    "semi_core_plus",
    "semi_core_star",
    "sharded_semi_core_star",
    "SerialShardExecutor",
    "PersistentShardExecutor",
    "executor_names",
    "get_executor",
    "converge_star",
    "local_core",
    "compute_cnt",
    "satisfies_locality",
    "k_core_nodes",
    "k_core_subgraph",
    "core_histogram",
    "core_distribution",
    "degeneracy",
    "semi_delete_star",
    "semi_insert",
    "semi_insert_star",
    "im_insert",
    "im_delete",
    "CoreMaintainer",
    "DecompositionResult",
    "MaintenanceResult",
]
