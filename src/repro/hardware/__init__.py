"""Platform catalog, performance model, and energy model.

This package is the reproduction's substitute for the paper's physical
testbed: platform specs come from the paper's Table I, and a calibrated
roofline model converts engine work profiles into per-platform runtimes.
"""

from .calibration import (
    CalibrationConstants,
    DEFAULT_CONSTANTS,
    DEFAULT_PLATFORM_FACTORS,
    fit_constants,
)
from .energy import EnergyEstimate, EnergyModel
from .perfmodel import (
    PerformanceModel,
    RuntimeBreakdown,
    measure_parallel_scaling,
)
from .platforms import (
    ALL_KEYS,
    CLOUD,
    KWH_PRICE_USD,
    ON_PREMISES,
    PI_KEY,
    PI4_KEY,
    PLATFORMS,
    SBC,
    SERVER_KEYS,
    PlatformSpec,
    get_platform,
)

__all__ = [
    "ALL_KEYS", "CLOUD", "CalibrationConstants", "DEFAULT_CONSTANTS",
    "DEFAULT_PLATFORM_FACTORS", "EnergyEstimate", "EnergyModel",
    "KWH_PRICE_USD", "ON_PREMISES", "PI_KEY", "PI4_KEY",
    "PLATFORMS", "PerformanceModel", "PlatformSpec", "RuntimeBreakdown",
    "SBC", "SERVER_KEYS", "fit_constants",
    "get_platform", "measure_parallel_scaling",
]
