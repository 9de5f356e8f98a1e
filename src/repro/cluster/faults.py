"""Deterministic fault injection for the WIMPI cluster (paper §III-C4).

The paper's node failures were not hardware deaths: "node failures
almost always resulted from virtual memory thrashing" — with swap on, an
over-committed node became unresponsive; with swap off the offending
query died with an isolated OOM while the node survived. This module
turns those observations (plus the transient network drops and
stragglers any commodity-switch cluster sees) into an *injectable*,
seeded fault model so the resilient driver can be exercised and tested
without a physical cluster.

Everything is deterministic: a :class:`FaultPlan` is a pure value built
either explicitly or from a seed (:meth:`FaultPlan.chaos`), and a
:class:`FaultingNode` consults it on every execution attempt. Injected
hangs and stragglers never sleep on the wall clock — they surface as
exceptions or modeled-time multipliers, so chaos tests stay fast and
bit-identical across machines.

Fault kinds:

* ``oom`` — every attempt on the node raises
  :class:`~repro.cluster.reliability.QueryOutOfMemoryError` (sticky; the
  paper's swap-off failure mode).
* ``hang`` — every attempt raises
  :class:`~repro.cluster.reliability.NodeUnresponsiveError` (sticky; the
  swap-on thrashing failure mode — the driver pays a timeout).
* ``drop`` — the first ``drops`` attempts raise
  :class:`TransientNetworkError`, then the node recovers (retryable).
* ``straggler`` — attempts succeed but report a modeled ``slowdown``
  (e.g. a node paging lightly or thermally throttled).

``oom``, ``hang`` and ``drop`` strike the node as it takes the request,
before its fragment runs and so before anything decides where the
fragment's work is done: they apply to a NAM cluster's nodes as to a
plain one's. A straggler's slowdown is the node's own slowness, so it
does not apply to a fragment a NAM memory server ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.engine import Database, Executor, Frame, WorkProfile
from repro.engine.plan import PlanNode
from repro.hardware import PLATFORMS, PI_KEY, PerformanceModel
from repro.obs.metrics import metrics

from .reliability import NodeUnresponsiveError, QueryOutOfMemoryError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultingNode",
    "InjectedFault",
    "NodeAttempt",
    "TransientNetworkError",
]

FAULT_KINDS = ("oom", "hang", "drop", "straggler")


class TransientNetworkError(ConnectionError):
    """A request/response exchange with a node was lost (a dropped TCP
    connection, a switch hiccup). Retrying the same node usually works —
    the recovery the resilient driver's backoff loop provides."""

    def __init__(self, node: int, attempt: int):
        self.node = node
        self.attempt = attempt
        super().__init__(f"node {node}: connection dropped (attempt {attempt})")


@dataclass(frozen=True)
class InjectedFault:
    """One node's scripted misbehaviour.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        node: node index the fault applies to.
        drops: for ``drop`` — how many attempts fail before the link
            recovers.
        slowdown: for ``straggler`` — modeled runtime multiplier.
        pressure: memory over-commit ratio reported by ``oom``/``hang``
            errors (cosmetic; mirrors §III-C4's failure reports).
    """

    kind: str
    node: int
    drops: int = 1
    slowdown: float = 8.0
    pressure: float = 1.30

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.node < 0:
            raise ValueError("fault node index must be non-negative")
        if self.drops < 1:
            raise ValueError("drop faults need drops >= 1")
        if self.slowdown <= 1.0:
            raise ValueError("straggler slowdown must exceed 1.0")
        if self.pressure <= 1.0:
            raise ValueError("failure pressure must exceed 1.0 (over-commit)")

    @property
    def sticky(self) -> bool:
        """True when no amount of retrying this node can succeed."""
        return self.kind in ("oom", "hang")


@dataclass(frozen=True)
class FaultPlan:
    """The complete, deterministic fault script for one run.

    At most one fault per node; an empty plan injects nothing. Plans are
    values — the same plan replayed against the same layout yields the
    same outcomes, events, and results.
    """

    faults: tuple[InjectedFault, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        nodes = [f.node for f in self.faults]
        if len(nodes) != len(set(nodes)):
            raise ValueError("at most one injected fault per node")

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def chaos(
        cls,
        seed: int,
        n_nodes: int,
        p_oom: float = 0.08,
        p_hang: float = 0.05,
        p_drop: float = 0.12,
        p_straggler: float = 0.15,
        slowdown_range: tuple[float, float] = (4.0, 12.0),
    ) -> "FaultPlan":
        """Draw a random-but-reproducible plan: same seed, node count and
        probabilities -> the same faults, always."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if min(p_oom, p_hang, p_drop, p_straggler) < 0 or (
            p_oom + p_hang + p_drop + p_straggler
        ) > 1.0:
            raise ValueError("fault probabilities must be non-negative and sum to <= 1")
        rng = random.Random(seed)
        faults = []
        for node in range(n_nodes):
            r = rng.random()
            slowdown = rng.uniform(*slowdown_range)
            pressure = rng.uniform(1.1, 2.5)
            drops = rng.randint(1, 2)
            if r < p_oom:
                faults.append(InjectedFault("oom", node, pressure=pressure))
            elif r < p_oom + p_hang:
                faults.append(InjectedFault("hang", node, pressure=pressure))
            elif r < p_oom + p_hang + p_drop:
                faults.append(InjectedFault("drop", node, drops=drops))
            elif r < p_oom + p_hang + p_drop + p_straggler:
                faults.append(InjectedFault("straggler", node, slowdown=slowdown))
        return cls(faults=tuple(faults), seed=seed)

    def fault_for(self, node: int) -> InjectedFault | None:
        for fault in self.faults:
            if fault.node == node:
                return fault
        return None

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes no retry can save (oom / hang)."""
        return frozenset(f.node for f in self.faults if f.sticky)

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: none"
        parts = []
        for f in sorted(self.faults, key=lambda f: f.node):
            if f.kind == "straggler":
                parts.append(f"node {f.node}: straggler x{f.slowdown:.1f}")
            elif f.kind == "drop":
                parts.append(f"node {f.node}: drop x{f.drops}")
            else:
                parts.append(f"node {f.node}: {f.kind} @ {f.pressure:.2f}x")
        seed = f" (seed {self.seed})" if self.seed is not None else ""
        return f"fault plan{seed}: " + "; ".join(parts)


def _measured_pi_price(
    node: int, db: Database, plan: PlanNode, profile: WorkProfile
) -> tuple[float, float, bool]:
    """A bare driver's clock, for driving it without a cluster (tests,
    the chaos smoke): the measured profile as-is on one Pi 3B+, with no
    memory model (pressure 0.0). A cluster passes its own
    :meth:`~repro.cluster.cluster.WimPiCluster._price` instead."""
    pi = PLATFORMS[PI_KEY]
    return PerformanceModel().predict(profile, pi, pi.total_cores), 0.0, True


@dataclass
class NodeAttempt:
    """One successful execution attempt and its modeled cost.

    ``estimate_s`` and ``pressure`` are the attempt's price on the
    driver's clock, and ``on_node`` is whether the node itself ran it;
    ``simulated_s`` additionally pays any injected straggler slowdown.
    Both are modeled time — real wall-clock stays at test speed.
    """

    node: int
    shard: int
    attempt: int
    frame: Frame
    profile: WorkProfile
    estimate_s: float
    pressure: float
    on_node: bool = True
    slowdown: float = 1.0

    @property
    def simulated_s(self) -> float:
        return self.estimate_s * self.slowdown


class FaultingNode:
    """Per-node execution wrapper that consults the fault plan.

    Each successful attempt is priced once, by ``price`` — ``(node, db,
    plan, profile) -> (seconds, pressure, on_node)``. ``on_node`` is
    False when the fragment ran off the node (a NAM memory server): a
    straggler's slowdown is the node's own slowness, so it applies only
    to fragments the node ran.

    The wrapper is stateless across calls (safe to share between pool
    threads); attempt indices are supplied by the driver so that
    ``drop`` faults can distinguish first tries from retries.
    """

    def __init__(
        self,
        node: int,
        fault_plan: FaultPlan | None = None,
        price: Callable[..., tuple[float, float, bool]] = _measured_pi_price,
    ):
        self.node = node
        self.fault = (fault_plan or FaultPlan.none()).fault_for(node)
        self.price = price

    def execute(
        self,
        db: Database,
        plan: PlanNode,
        shard: int = 0,
        attempt: int = 0,
        tracer=None,
        parent_span=None,
    ) -> NodeAttempt:
        """Run ``plan`` against ``db`` as this node, or fail as scripted.
        With a ``tracer``, the execution's operator spans nest under
        ``parent_span`` (the driver's shard span)."""
        fault = self.fault
        if fault is not None:
            if fault.kind == "oom":
                metrics.counter("cluster.faults.oom").inc()
                raise QueryOutOfMemoryError(self.node, fault.pressure)
            if fault.kind == "hang":
                metrics.counter("cluster.faults.hang").inc()
                raise NodeUnresponsiveError(self.node, fault.pressure)
            if fault.kind == "drop" and attempt < fault.drops:
                metrics.counter("cluster.faults.drop").inc()
                raise TransientNetworkError(self.node, attempt)
        result = Executor(db, tracer=tracer).execute(
            plan, label=f"node{self.node}", parent_span=parent_span
        )
        estimate, pressure, on_node = self.price(self.node, db, plan, result.profile)
        slowdown = (
            fault.slowdown
            if on_node and fault is not None and fault.kind == "straggler"
            else 1.0
        )
        return NodeAttempt(
            node=self.node,
            shard=shard,
            attempt=attempt,
            frame=result.frame,
            profile=result.profile,
            estimate_s=estimate,
            pressure=pressure,
            on_node=on_node,
            slowdown=slowdown,
        )
