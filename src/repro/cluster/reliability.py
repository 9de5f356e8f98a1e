"""Reliability model (paper §III-C4).

The paper reports that WIMPI node failures "almost always resulted from
virtual memory thrashing": with swap enabled, an over-committed node
becomes unresponsive (effectively a failure); after *disabling swap*,
over-commit produces an isolated out-of-memory error for the offending
query while the node survives. No hardware failures occurred at all.

This module models both policies so the cluster can be run either way:

* ``SwapPolicy.SWAP`` — over-commit degrades into thrashing (the
  multiplier in :mod:`repro.cluster.cluster`); severe over-commit makes
  the node unresponsive.
* ``SwapPolicy.NO_SWAP`` — over-commit past the hard limit raises
  :class:`QueryOutOfMemoryError`; the node itself stays healthy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "SwapPolicy",
    "QueryOutOfMemoryError",
    "NodeUnresponsiveError",
    "MemoryOutcome",
    "classify_pressure",
]

# At or beyond this over-commit, a swapping node stops answering (the
# paper's "generally unresponsive" nodes); without swap the query simply
# dies as soon as allocation fails (just past 1.0). Both thresholds are
# *inclusive*: a pressure exactly at the ratio already fails — the
# boundary working set has already exhausted what the node can give.
# The thrash boundary stays exclusive (pressure == 1.0 still fits).
_UNRESPONSIVE_RATIO = 3.0
_OOM_RATIO = 1.05


class SwapPolicy(enum.Enum):
    SWAP = "swap"
    NO_SWAP = "no-swap"


class QueryOutOfMemoryError(MemoryError):
    """A query exceeded node memory with swap disabled: the query fails,
    the node survives (the paper's preferred failure mode)."""

    def __init__(self, node: int, pressure: float):
        self.node = node
        self.pressure = pressure
        super().__init__(
            f"node {node}: working set {pressure:.2f}x of available memory "
            "(swap disabled; query aborted, node healthy)"
        )


class NodeUnresponsiveError(RuntimeError):
    """A node thrashed so badly it stopped responding — the cluster-level
    failure mode the paper eliminated by disabling swap."""

    def __init__(self, node: int, pressure: float):
        self.node = node
        self.pressure = pressure
        super().__init__(
            f"node {node}: unresponsive under {pressure:.2f}x memory "
            "over-commit (swap enabled)"
        )


@dataclass(frozen=True)
class MemoryOutcome:
    """How one node fares at a given memory pressure under a policy."""

    node: int
    pressure: float
    outcome: str  # "ok" | "thrash" | "oom" | "unresponsive"

    @property
    def completes(self) -> bool:
        return self.outcome in ("ok", "thrash")


def classify_pressure(node: int, pressure: float, policy: SwapPolicy) -> MemoryOutcome:
    """Classify a node's fate at ``pressure`` (working set / available).

    Boundary semantics are explicit and pinned by tests: pressures
    exactly at ``_OOM_RATIO`` / ``_UNRESPONSIVE_RATIO`` classify as the
    *failure* (``>=``), while a working set exactly filling memory
    (pressure == 1.0) still completes without thrashing (``>``).
    """
    if pressure < 0:
        raise ValueError("pressure must be non-negative")
    if policy is SwapPolicy.NO_SWAP:
        outcome = "oom" if pressure >= _OOM_RATIO else "ok"
    else:
        if pressure >= _UNRESPONSIVE_RATIO:
            outcome = "unresponsive"
        elif pressure > 1.0:
            outcome = "thrash"
        else:
            outcome = "ok"
    return MemoryOutcome(node=node, pressure=pressure, outcome=outcome)

