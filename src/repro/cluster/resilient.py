"""The distributed driver: scatter, execute locally, gather, merge —
with retries, timeouts, speculation and replicas.

A re-creation of the paper's Python driver program: it runs the
rewritten local plan on every node, collects the (small) partial
results, and finalizes on one node. Results are *real* — the merged rows
equal a single-node execution of the original query. Over a replication-1
layout with no fault plan that is all it does. It is also the runtime
the paper's reliability findings (§III-C4) call for: per-shard
execution fans out on a thread pool, transient faults are retried with
capped exponential backoff, unresponsive nodes are abandoned after a
timeout derived from the modeled seconds of the successful attempts,
stragglers past a latency threshold get a speculative copy on
a buddy replica, and shards lost with their primaries are recovered
from replicas (:func:`~repro.cluster.partition.replicate_database`).
Only when every replica of a shard is exhausted does the driver degrade
gracefully: it still returns an answer, but one carrying a coverage
fraction < 1 and a per-shard outcome report instead of a crash.

Two clocks are in play. *Wall clock*: execution is real (results are
checkable bit-for-bit against single-node runs) and fast — injected
hangs and backoff waits never sleep. *Modeled clock*: each successful
attempt is priced once, by the driver's ``price`` hook — a
:class:`~repro.cluster.cluster.WimPiCluster` passes its own (the
target SF on the node's platform, with thrash); a bare driver, as
tests drive it, prices the measured profile on one Pi — and every recovery action (backoff
waits, abandoned attempts, paid timeouts, speculative duplicates) is
charged on that same clock and lands in the :class:`RecoveryLog`, so
Table III-style wall-clock numbers stay honest under faults. Given the
same fault plan the run is fully deterministic: same events, same
charges, bit-identical results.

A query that cannot be distributed over the layout — no partitioned
table in it (the paper's Q13 on its lineitem layout), a top-level
aggregate that does not decompose (Q15/Q20), or a step that would
diverge per shard (Q17's per-part AVG — see
:func:`~repro.cluster.distplan.single_node_reason`) — is the
one-shard case of the same path: it runs over
:meth:`~repro.cluster.partition.ReplicatedLayout.unpartitioned`, the
full catalog held by every node, and needs no merge. So every one of
the 22 queries matches single-node execution.
"""

from __future__ import annotations

import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.engine import Database, Executor, Result, WorkProfile
from repro.engine.plan import PlanNode
from repro.obs.metrics import metrics
from repro.obs.trace import NULL_TRACER
from repro.serve.policy import RetryPolicy
from repro.tpch.queries import QueryDef

from .distplan import (
    NotDistributableError,
    SplitPlan,
    concat_frames,
    single_node_reason,
    split_for_partial_aggregation,
)
from .faults import (
    FaultPlan, FaultingNode, NodeAttempt, TransientNetworkError, _measured_pi_price,
)
from .network import NetworkModel
from .partition import ReplicatedLayout
from .reliability import NodeUnresponsiveError, QueryOutOfMemoryError

__all__ = [
    "RecoveryEvent",
    "RecoveryLog",
    "RecoveryPolicy",
    "ResilientDriver",
    "ResilientRun",
    "ShardOutcome",
]


@dataclass(frozen=True)
class RecoveryPolicy(RetryPolicy):
    """Knobs for the retry / timeout / speculation machinery.

    The retry fields and ``backoff_s`` are the serving layer's capped
    exponential backoff; here the waits are charged to the modeled
    clock, never slept. Every time below is on the driver's one clock —
    for a :class:`~repro.cluster.cluster.WimPiCluster`, seconds a node
    pays at the target SF.

    Attributes:
        max_retries: transient-fault retries per node before failing
            over to the next replica.
        backoff_base_s: first retry wait (modeled seconds); doubles per
            retry up to ``backoff_cap_s``.
        backoff_cap_s: backoff ceiling.
        timeout_factor: a node is abandoned (or speculated against) once
            its modeled time exceeds this multiple of the median modeled
            seconds of the successful attempts.
        fallback_timeout_s: the estimate OOM and timeout charges use when
            no attempt succeeded (e.g. every first-wave attempt hung).
        speculate: launch speculative copies of stragglers on replicas.
    """

    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    timeout_factor: float = 4.0
    fallback_timeout_s: float = 5.0
    speculate: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.timeout_factor <= 1.0:
            raise ValueError("timeout_factor must exceed 1.0")
        if self.fallback_timeout_s <= 0:
            raise ValueError("fallback_timeout_s must be positive")


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action, with its modeled-time charge."""

    kind: str  # "retry" | "oom" | "timeout" | "failover" | "speculate" | "lost"
    shard: int
    node: int
    attempt: int
    charged_s: float
    detail: str


@dataclass
class RecoveryLog:
    """Structured, deterministic record of everything the runtime did to
    keep the query alive. Same fault plan -> same log."""

    events: list[RecoveryEvent] = field(default_factory=list)

    def record(self, kind: str, shard: int, node: int, attempt: int,
               charged_s: float, detail: str) -> None:
        self.events.append(RecoveryEvent(kind, shard, node, attempt, charged_s, detail))
        metrics.counter("cluster.recovery." + kind).inc()

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def charged_s(self) -> float:
        """Total modeled seconds charged to recovery actions."""
        return sum(e.charged_s for e in self.events)

    def signature(self) -> tuple:
        """Deterministic identity of the log (for replay assertions)."""
        return tuple((e.kind, e.shard, e.node, e.attempt) for e in self.events)

    def render(self) -> str:
        if not self.events:
            return "recovery log: clean run, no recovery actions"
        lines = [
            f"recovery log: {len(self.events)} events, "
            f"{self.charged_s:.3f} modeled s charged"
        ]
        for e in self.events:
            lines.append(
                f"  [{e.kind:<9}] shard {e.shard} node {e.node} "
                f"attempt {e.attempt}: {e.detail} (+{e.charged_s:.3f}s)"
            )
        return "\n".join(lines)


@dataclass
class _AttemptRecord:
    """Chronological record of one execution attempt on one node.

    ``speculative`` attempts run concurrently with the original task, so
    their failures never extend the shard's completion chain — their
    cost surfaces only through the adopted copy's ``speculate`` event.
    """

    node: int
    attempt: int
    outcome: str  # "ok" | "drop" | "oom" | "hang"
    result: NodeAttempt | None = None
    speculative: bool = False


@dataclass
class ShardOutcome:
    """How one shard's execution ended after all recovery machinery.

    ``completion_s`` is the shard's modeled finish on the driver's
    clock: ``overhead_s`` — every failed attempt's charge (backoff and
    re-send, abandoned OOM work, paid timeouts) plus, when a speculative
    copy was adopted, the straggler-detection wait — then the winning
    attempt's ``simulated_s`` (straggler slowdown included).
    """

    shard: int
    status: str  # "ok" | "recovered" | "lost"
    winner: NodeAttempt | None
    attempts: list[_AttemptRecord]
    completion_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def covered(self) -> bool:
        return self.winner is not None


@dataclass
class ResilientRun:
    """Everything observed while running one query on the cluster.

    ``layout`` is the placement the fragments actually ran over: the
    driver's own for a distributed run, its
    :meth:`~repro.cluster.partition.ReplicatedLayout.unpartitioned` form
    for a single-node one. ``node_profiles`` and ``exec_nodes`` are
    aligned, one entry per answered shard; ``partial_bytes_per_node``
    and ``node_results_rows`` describe the gathered partials and are
    empty when there was nothing to merge. The recovery surface is
    ``coverage``, ``shard_outcomes`` and ``recovery``.
    """

    query_number: int
    n_nodes: int
    replication: int
    layout: ReplicatedLayout
    result: Result | None
    coverage: float
    shard_outcomes: list[ShardOutcome]
    recovery: RecoveryLog
    node_profiles: list[WorkProfile]
    exec_nodes: list[int]
    merge_profile: WorkProfile | None
    partial_bytes_per_node: list[float]
    single_node: bool
    local_plan: PlanNode
    node_results_rows: list[int]

    @property
    def degraded(self) -> bool:
        return self.coverage < 1.0

    @property
    def completion_s(self) -> float:
        """Modeled node-phase completion: the slowest shard chain."""
        if not self.shard_outcomes:
            return 0.0
        return max(o.completion_s for o in self.shard_outcomes)

    def report(self) -> str:
        """Human-readable outcome summary (the CLI's --chaos output)."""
        lines = [
            f"Q{self.query_number} on {self.n_nodes} nodes "
            f"(replication {self.replication}): "
            + ("DEGRADED" if self.degraded else "complete")
            + f", coverage {self.coverage:.3f}"
        ]
        for o in self.shard_outcomes:
            where = f"node {o.winner.node}" if o.winner else "unrecovered"
            lines.append(
                f"  shard {o.shard}: {o.status:<9} on {where} "
                f"({len(o.attempts)} attempts, {o.completion_s:.3f} modeled s)"
            )
        lines.append(self.recovery.render())
        return "\n".join(lines)


class ResilientDriver:
    """Fault-tolerant scatter/gather over a replicated layout.

    Args:
        layout: replicated data placement
            (:func:`~repro.cluster.partition.replicate_database`).
        fault_plan: deterministic fault script (``None`` injects nothing).
        policy: retry/timeout/speculation knobs.
        price: prices each successful attempt — ``(node, db, plan,
            profile) -> (seconds, pressure, on_node)`` (see
            :class:`~repro.cluster.faults.FaultingNode`); timeouts, OOM
            charges and the straggler threshold all derive from these
            seconds. The default, the measured profile on one Pi, is a
            test clock for a driver run without a cluster.
        network: network model used to charge re-sent messages.
        tracer: optional :class:`~repro.obs.trace.Tracer`. Each run
            contributes one ``query`` root span (``cluster:Q<n>``) with
            per-shard child spans holding the node's operator spans and
            per-attempt events, and — mirrored 1:1 from the
            :class:`RecoveryLog` — one root-span event per recovery
            action.
    """

    def __init__(
        self,
        layout: ReplicatedLayout,
        fault_plan: FaultPlan | None = None,
        policy: RecoveryPolicy | None = None,
        price: Callable[..., tuple[float, float, bool]] = _measured_pi_price,
        network: NetworkModel | None = None,
        tracer=None,
    ):
        self.layout = layout
        self.fault_plan = fault_plan or FaultPlan.none()
        self.policy = policy or RecoveryPolicy()
        self.network = network or NetworkModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._nodes = {
            node: FaultingNode(node, self.fault_plan, price)
            for node in range(layout.n_nodes)
        }

    @property
    def n_nodes(self) -> int:
        return self.layout.n_nodes

    # ------------------------------------------------------------------

    def run(
        self,
        query: QueryDef,
        params: dict | None = None,
        fallback_host: int = 0,
    ) -> ResilientRun:
        """Run ``query``: distributed when its top aggregate decomposes
        into partials and :func:`~repro.cluster.distplan.single_node_reason`
        finds its local plan sound under the layout's ``partition_keys``;
        on one node (``fallback_host`` first, any other on failover)
        otherwise — the paper's Q13 behaviour on its lineitem layout."""
        params = params or {}
        tracer = self.tracer
        qspan = None
        if tracer.enabled:
            qspan = tracer.start("query", f"cluster:Q{query.number}")
        try:
            split = self._split(query, params)
            if split is None:
                layout = self.layout.unpartitioned(fallback_host)
                local = query.build(layout.base, params).node
            else:
                layout, local = self.layout, split.local
            run = self._scatter_gather(query, layout, local, split, qspan)
        except BaseException:
            if qspan is not None:
                qspan.annotate(error=True)
                tracer.finish(qspan)
                tracer.finalize(qspan)
            raise
        if qspan is not None:
            qspan.annotate(
                coverage=run.coverage,
                recovery_events=len(run.recovery.events),
                single_node=run.single_node,
            )
            tracer.finish(qspan)
            tracer.finalize(qspan)
        return run

    def _split(self, query: QueryDef, params: dict) -> SplitPlan | None:
        """The local/final rewrite of ``query`` over this layout, or
        ``None`` when it has to run on a single node."""
        layout = self.layout
        if layout.n_nodes == 1:
            return None
        plan = query.build(layout.node_dbs[0], params)
        try:
            split = split_for_partial_aggregation(plan.node)
        except NotDistributableError:
            return None
        if single_node_reason(split.local, layout.partition_keys) is not None:
            return None
        return split

    @staticmethod
    def _mirror_log(span, log: RecoveryLog) -> None:
        """Mirror every RecoveryLog event onto the root query span, in
        log order — the trace's event sequence IS the log's, so chaos
        tests can assert exact equality."""
        if span is None:
            return
        for e in log.events:
            span.event(
                e.kind, shard=e.shard, node=e.node, attempt=e.attempt,
                charged_s=e.charged_s, detail=e.detail,
            )

    # Shard execution ---------------------------------------------------

    def _attempt_chain(
        self, shard: int, node: int, plan: PlanNode, db: Database, span=None
    ) -> tuple[list[_AttemptRecord], NodeAttempt | None]:
        """All attempts on one node for one shard: transient faults are
        retried up to ``max_retries`` times; sticky faults end the chain.

        ``span`` (the shard span, when tracing) parents the node's
        operator spans and gets one "attempt" event per execution
        attempt; speculative chains pass no span and run untraced —
        their outcome surfaces through the log-mirrored "speculate"
        event.
        """
        tracer = self.tracer if span is not None else None
        records: list[_AttemptRecord] = []
        for attempt in range(self.policy.max_retries + 1):
            try:
                result = self._nodes[node].execute(
                    db, plan, shard=shard, attempt=attempt,
                    tracer=tracer, parent_span=span,
                )
            except TransientNetworkError:
                records.append(_AttemptRecord(node, attempt, "drop"))
                if span is not None:
                    span.event("attempt", node=node, attempt=attempt, outcome="drop")
                continue
            except QueryOutOfMemoryError:
                records.append(_AttemptRecord(node, attempt, "oom"))
                if span is not None:
                    span.event("attempt", node=node, attempt=attempt, outcome="oom")
                return records, None
            except NodeUnresponsiveError:
                records.append(_AttemptRecord(node, attempt, "hang"))
                if span is not None:
                    span.event("attempt", node=node, attempt=attempt, outcome="hang")
                return records, None
            records.append(_AttemptRecord(node, attempt, "ok", result))
            if span is not None:
                span.event("attempt", node=node, attempt=attempt, outcome="ok")
            return records, result
        return records, None

    def _run_shard(
        self, layout: ReplicatedLayout, shard: int, plan: PlanNode, parent=None
    ) -> ShardOutcome:
        """Execute one shard, failing over along its replica holders."""
        sspan = None
        if self.tracer.enabled:
            sspan = self.tracer.start("shard", f"shard:{shard}", parent=parent)
        try:
            outcome = self._run_shard_inner(layout, shard, plan, sspan)
        finally:
            if sspan is not None:
                self.tracer.finish(sspan)
        if sspan is not None:
            sspan.annotate(status=outcome.status, attempts=len(outcome.attempts))
        return outcome

    def _run_shard_inner(
        self, layout: ReplicatedLayout, shard: int, plan: PlanNode, sspan
    ) -> ShardOutcome:
        records: list[_AttemptRecord] = []
        for node in layout.holders[shard]:
            chain, winner = self._attempt_chain(
                shard, node, plan, layout.db_for(shard, node), span=sspan
            )
            records.extend(chain)
            if winner is not None:
                status = "ok" if node == layout.holders[shard][0] else "recovered"
                return ShardOutcome(shard, status, winner, records)
        return ShardOutcome(shard, "lost", None, records)

    def _speculate(
        self,
        layout: ReplicatedLayout,
        outcome: ShardOutcome,
        plan: PlanNode,
        threshold_s: float,
    ) -> float | None:
        """Launch a speculative copy of a straggling shard on the next
        healthy replica and adopt it if its modeled finish is earlier.
        Returns the adopted copy's modeled start — the threshold plus
        its own backoffs — or ``None`` when the straggler stands."""
        shard = outcome.shard
        assert outcome.winner is not None
        tried = {r.node for r in outcome.attempts}
        backup = next(
            (
                node
                for node in layout.holders[shard]
                if node not in tried and node not in self.fault_plan.dead_nodes
            ),
            None,
        )
        if backup is None:
            return None
        chain, spec = self._attempt_chain(
            shard, backup, plan, layout.db_for(shard, backup)
        )
        for rec in chain:
            rec.speculative = True
        outcome.attempts.extend(chain)
        if spec is None:
            return None
        start_s = threshold_s + sum(self._attempt_s(rec, threshold_s) for rec in chain)
        if start_s + spec.simulated_s >= outcome.winner.simulated_s:
            return None
        outcome.winner = spec
        outcome.status = "recovered"
        return start_s

    # Modeled-time charging --------------------------------------------

    def _attempt_s(self, rec: _AttemptRecord, est_s: float) -> float:
        """Modeled seconds a failed attempt costs, given the estimate
        ``est_s``: a drop its backoff plus a re-send, an OOM the
        estimate (its work is lost), a hang the timeout. A successful
        attempt costs nothing here; its own price is the result's."""
        if rec.outcome == "drop":
            return self.policy.backoff_s(rec.attempt) + self.network.resend_time()
        if rec.outcome == "oom":
            return est_s
        if rec.outcome == "hang":
            return self.policy.timeout_factor * est_s
        return 0.0

    def _charge(
        self,
        layout: ReplicatedLayout,
        outcomes: list[ShardOutcome],
        speculated: dict[int, float],
        log: RecoveryLog,
        est_s: float,
    ) -> None:
        """Walk every shard's attempt history in deterministic order,
        recording recovery events and computing modeled completions.
        ``speculated`` maps each shard whose speculative copy was
        adopted to that copy's modeled start."""
        for outcome in outcomes:
            overhead = 0.0
            prev_node: int | None = None
            for rec in outcome.attempts:
                if rec.speculative:
                    continue
                if prev_node is not None and rec.node != prev_node:
                    log.record(
                        "failover", outcome.shard, rec.node, rec.attempt, 0.0,
                        f"shard {outcome.shard} failed over node {prev_node} -> {rec.node}",
                    )
                prev_node = rec.node
                charged = self._attempt_s(rec, est_s)
                overhead += charged
                if rec.outcome == "drop":
                    log.record(
                        "retry", outcome.shard, rec.node, rec.attempt, charged,
                        f"transient network drop; backing off "
                        f"{self.policy.backoff_s(rec.attempt):.3f}s",
                    )
                elif rec.outcome == "oom":
                    log.record(
                        "oom", outcome.shard, rec.node, rec.attempt, charged,
                        "query OOM (swap off); abandoning node's attempt",
                    )
                elif rec.outcome == "hang":
                    log.record(
                        "timeout", outcome.shard, rec.node, rec.attempt, charged,
                        f"node unresponsive; abandoned after modeled "
                        f"{charged:.3f}s timeout "
                        f"({self.policy.timeout_factor:.1f}x estimate)",
                    )
                # "ok" attempts are charged below: the winner's own time
                # (or the speculative completion) ends the chain.
            winner_s = 0.0
            if outcome.winner is None:
                log.record(
                    "lost", outcome.shard, -1, len(outcome.attempts), 0.0,
                    f"shard {outcome.shard}: all "
                    f"{len(layout.holders[outcome.shard])} replicas exhausted",
                )
            else:
                winner_s = outcome.winner.simulated_s
                if outcome.shard in speculated:
                    # Detection waited until the straggler threshold; the
                    # adopted copy then ran (plus any of its own backoffs).
                    start_s = speculated[outcome.shard]
                    overhead += start_s
                    log.record(
                        "speculate", outcome.shard, outcome.winner.node,
                        outcome.winner.attempt, start_s + winner_s,
                        f"straggler past "
                        f"{self.policy.timeout_factor * est_s:.3f}s threshold; "
                        f"speculative copy on node {outcome.winner.node} "
                        f"finished at modeled {start_s + winner_s:.3f}s",
                    )
            outcome.overhead_s = overhead
            outcome.completion_s = overhead + winner_s

    # Scatter / gather ---------------------------------------------------

    def _scatter_gather(
        self,
        query: QueryDef,
        layout: ReplicatedLayout,
        local: PlanNode,
        split: SplitPlan | None,
        qspan=None,
    ) -> ResilientRun:
        """Run ``local`` on every shard of ``layout`` with recovery, then
        merge the partials through ``split`` — or, with no ``split``
        (one shard holding everything), take its answer as it is."""
        policy = self.policy
        # Fragments are CPU-bound: threads beyond the cores only contend.
        with ThreadPoolExecutor(
            max_workers=min(layout.n_shards, os.cpu_count() or 1)
        ) as pool:
            outcomes = list(pool.map(
                lambda s: self._run_shard(layout, s, local, parent=qspan),
                range(layout.n_shards),
            ))

        # Timeout / straggler threshold from the modeled seconds of the
        # successful attempts (median is robust to the stragglers
        # themselves).
        estimates = [o.winner.estimate_s for o in outcomes if o.winner is not None]
        est_s = statistics.median(estimates) if estimates else policy.fallback_timeout_s
        threshold_s = policy.timeout_factor * est_s

        speculated: dict[int, float] = {}
        if policy.speculate and estimates:
            for outcome in outcomes:  # deterministic shard order
                if outcome.winner is not None and outcome.winner.simulated_s > threshold_s:
                    start_s = self._speculate(layout, outcome, local, threshold_s)
                    if start_s is not None:
                        speculated[outcome.shard] = start_s

        log = RecoveryLog()
        self._charge(layout, outcomes, speculated, log, est_s)
        self._mirror_log(qspan, log)

        covered = [o for o in outcomes if o.covered]
        total_rows = layout.total_rows
        coverage = (
            sum(layout.shard_rows(o.shard) for o in covered) / total_rows
            if total_rows
            else (1.0 if covered else 0.0)
        )
        frames = [o.winner.frame for o in covered]
        profiles = [o.winner.profile for o in covered]
        result = merge_profile = None
        partial_bytes: list[float] = []
        rows: list[int] = []
        if split is None:
            # The attempt already carries the full result; nothing is
            # gathered as partials and nothing merged.
            if covered:
                result = Result(frame=frames[0], profile=profiles[0])
        elif frames:
            partial_bytes = [float(f.nbytes) for f in frames]
            rows = [f.nrows for f in frames]
            partials_db = Database("driver")
            partials_db.add(concat_frames(frames))
            result = Executor(partials_db, tracer=self.tracer).execute(
                split.build_final(partials_db), optimize=False,
                label=f"merge:Q{query.number}", parent_span=qspan,
            )
            merge_profile = result.profile
        return ResilientRun(
            query_number=query.number,
            n_nodes=self.layout.n_nodes,
            replication=self.layout.replication,
            layout=layout,
            result=result,
            coverage=coverage,
            shard_outcomes=outcomes,
            recovery=log,
            node_profiles=profiles,
            exec_nodes=[o.winner.node for o in covered],
            merge_profile=merge_profile,
            partial_bytes_per_node=partial_bytes,
            single_node=split is None,
            local_plan=local,
            node_results_rows=rows,
        )
