"""WIMPI cluster substrate: partitioning, network, distributed driver,
memory model, and the cluster facade."""

from .cluster import ClusterQueryRun, WimPiCluster, thrash_multiplier
from .nam import NamCluster
from .distplan import (
    NotDistributableError,
    SplitPlan,
    concat_frames,
    single_node_reason,
    split_for_partial_aggregation,
)
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultingNode,
    InjectedFault,
    NodeAttempt,
    TransientNetworkError,
)
from .network import NetworkModel
from .node import PI4_NODE, MemoryModel, NodeSpec, collect_scan_columns
from .partition import (
    ReplicatedLayout,
    partition_table,
    replicate_database,
)
from .resilient import (
    RecoveryEvent,
    RecoveryLog,
    RecoveryPolicy,
    ResilientDriver,
    ResilientRun,
    ShardOutcome,
)
from .scheduler import PowerPolicy, QueryArrival, SimulationResult, WorkloadSimulator, poisson_workload
from .frameworks import FRAMEWORKS, Framework, feasible_cluster_size, framework_pressure
from .reliability import (
    MemoryOutcome,
    NodeUnresponsiveError,
    QueryOutOfMemoryError,
    SwapPolicy,
    classify_pressure,
    reliability_report,
)

__all__ = [
    "ClusterQueryRun", "MemoryModel",
    "NamCluster", "MemoryOutcome", "NodeUnresponsiveError",
    "QueryOutOfMemoryError", "SwapPolicy", "classify_pressure", "reliability_report",
    "PowerPolicy", "QueryArrival", "SimulationResult", "WorkloadSimulator",
    "poisson_workload", "FRAMEWORKS", "Framework", "feasible_cluster_size",
    "framework_pressure", "PI4_NODE",
    "NetworkModel", "NodeSpec", "NotDistributableError", "SplitPlan",
    "WimPiCluster", "collect_scan_columns", "concat_frames",
    "partition_table", "split_for_partial_aggregation",
    "thrash_multiplier",
    "FAULT_KINDS", "FaultPlan", "FaultingNode", "InjectedFault", "NodeAttempt",
    "TransientNetworkError", "ReplicatedLayout", "replicate_database",
    "RecoveryEvent", "RecoveryLog", "RecoveryPolicy", "ResilientDriver",
    "ResilientRun", "ShardOutcome", "single_node_reason",
]
