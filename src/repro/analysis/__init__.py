"""Cost, energy, and speedup analyses (Section III / Figs. 3, 5-7)."""

from .cost import break_even_nodes, hourly_improvement, msrp_improvement, normalized_improvement
from .energy import energy_improvement, energy_joules
from .report import render_matrix, render_runtime_table, render_series
from .speedup import median_relative, relative_performance, speedup_table

__all__ = [
    "break_even_nodes", "energy_improvement", "energy_joules",
    "hourly_improvement", "median_relative", "msrp_improvement",
    "normalized_improvement", "relative_performance", "render_matrix",
    "render_runtime_table", "render_series", "speedup_table",
]
