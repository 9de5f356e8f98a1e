"""Study harness: profiling, experiments, paper data, comparisons."""

from .compare import ShapeComparison, compare_grids
from .paperdata import (
    SF10_QUERIES,
    TABLE2_SF1_RUNTIMES,
    TABLE3_SF10_RUNTIMES,
    TABLE3_WIMPI_RUNTIMES,
    WIMPI_CLUSTER_SIZES,
)
from .profiler import ProfiledQuery, TPCHProfiler
from .results import runtimes_to_csv, save_json, to_jsonable
from .claims import CLAIMS, Claim, ClaimResult, evaluate_claims
from .report import full_report
from .study import EXPERIMENT_IDS, ExperimentStudy, StudyConfig

__all__ = [
    "EXPERIMENT_IDS", "ExperimentStudy", "ProfiledQuery", "SF10_QUERIES",
    "ShapeComparison", "StudyConfig", "TABLE2_SF1_RUNTIMES",
    "TABLE3_SF10_RUNTIMES", "TABLE3_WIMPI_RUNTIMES", "TPCHProfiler",
    "WIMPI_CLUSTER_SIZES", "compare_grids", "runtimes_to_csv", "save_json", "to_jsonable",
    "CLAIMS", "Claim", "ClaimResult", "evaluate_claims", "full_report",
]
