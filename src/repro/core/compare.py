"""Paper-vs-measured shape comparison.

The reproduction's claim is *shape* fidelity — who wins, by roughly what
factor, where crossovers fall — not digit fidelity (the substrate is a
calibrated model, not the authors' silicon). These helpers quantify it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

__all__ = ["ShapeComparison", "compare_grids"]


@dataclass(frozen=True)
class ShapeComparison:
    """Aggregate agreement between two runtime grids."""

    cells: int
    median_abs_log_ratio: float
    p90_abs_log_ratio: float
    spearman_like: float

    @property
    def median_factor(self) -> float:
        """Median multiplicative discrepancy (1.0 = perfect)."""
        return math.exp(self.median_abs_log_ratio)

    @property
    def p90_factor(self) -> float:
        return math.exp(self.p90_abs_log_ratio)


def _rank(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    for rank, idx in enumerate(order):
        ranks[idx] = float(rank)
    return ranks


def compare_grids(
    measured: dict[str, dict[int, float]],
    published: dict[str, dict[int, float]],
) -> ShapeComparison:
    """Compare two {platform: {query: seconds}} grids cell by cell."""
    logs: list[float] = []
    m_flat: list[float] = []
    p_flat: list[float] = []
    for platform, per in published.items():
        if platform not in measured:
            continue
        for query, obs in per.items():
            if query in measured[platform]:
                pred = measured[platform][query]
                logs.append(abs(math.log(pred / obs)))
                m_flat.append(pred)
                p_flat.append(obs)
    if not logs:
        raise ValueError("grids share no cells")
    # Rank correlation across all cells (does the measured grid order
    # runtimes the same way the paper does?).
    mr, pr = _rank(m_flat), _rank(p_flat)
    n = len(mr)
    mean = (n - 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(mr, pr))
    var = sum((a - mean) ** 2 for a in mr)
    rho = cov / var if var else 1.0
    logs.sort()
    return ShapeComparison(
        cells=n,
        median_abs_log_ratio=statistics.median(logs),
        p90_abs_log_ratio=logs[min(n - 1, int(0.9 * n))],
        spearman_like=rho,
    )
