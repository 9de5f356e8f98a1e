"""Admission control: bounded queue, concurrency limits, load shedding.

The admission controller answers one question at the front door: *if we
accept this request, will it be served within its patience?* Three
checks, all O(1) under one lock:

1. **Concurrency + queue bound** — at most ``max_concurrent`` queries
   execute at once (derived from the engine's worker count: each
   in-flight query multiplexes the same morsel pool, so more concurrent
   queries than workers only adds queueing inside the engine), and at
   most ``queue_capacity`` requests wait behind them. A full queue
   sheds with ``Overloaded("queue-full")``.
2. **Projected queue delay** — an EWMA of recent service times projects
   how long the backlog will take to drain
   (``waiting * ewma_service_s / max_concurrent``). When that exceeds
   ``max_queue_delay_s`` the request is shed with
   ``Overloaded("queue-delay")`` *before* it wastes queue residency —
   shedding early is the difference between a latency cliff and a
   throughput plateau.
3. **Circuit breaker** — repeated unexpected executor failures trip the
   breaker (see :mod:`repro.serve.policy`); while open, requests shed
   with :class:`~repro.serve.errors.CircuitOpen` without touching the
   queue.

Every decision lands in the process-wide metrics registry:
``serve.admitted`` / ``serve.shed`` counters (plus per-reason shed
counters), a ``serve.queue_depth`` gauge, and a
``serve.queue_delay_s`` histogram of realized waits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import metrics

from .errors import CircuitOpen, Overloaded
from .policy import CircuitBreaker

__all__ = ["AdmissionController", "AdmissionPolicy"]


# Weight of the newest observation in the service-time EWMA. High enough
# to track load shifts within a few requests, low enough not to whipsaw
# on one slow query.
_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the admission controller.

    Attributes:
        max_concurrent: queries executing simultaneously. ``None``
            derives it from the engine worker count at server build
            time (one query per worker: the morsel pool is the shared
            resource being protected).
        queue_capacity: requests allowed to wait beyond the concurrent
            ones. ``None`` derives ``4 * max_concurrent``.
        max_queue_delay_s: shed once the projected time a new request
            would wait in queue exceeds this.
        initial_service_s: seed for the service-time EWMA before any
            request has completed (pessimistic-ish so a cold server
            does not over-admit).
    """

    max_concurrent: int | None = None
    queue_capacity: int | None = None
    max_queue_delay_s: float = 2.0
    initial_service_s: float = 0.05

    def __post_init__(self):
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.max_queue_delay_s <= 0:
            raise ValueError("max_queue_delay_s must be positive")
        if self.initial_service_s <= 0:
            raise ValueError("initial_service_s must be positive")

    def resolve(self, workers: int) -> "AdmissionPolicy":
        """Fill the derived fields from the engine worker count."""
        max_concurrent = self.max_concurrent or max(1, workers)
        queue_capacity = (
            self.queue_capacity
            if self.queue_capacity is not None
            else 4 * max_concurrent
        )
        return AdmissionPolicy(
            max_concurrent=max_concurrent,
            queue_capacity=queue_capacity,
            max_queue_delay_s=self.max_queue_delay_s,
            initial_service_s=self.initial_service_s,
        )


class AdmissionController:
    """Thread-safe admit/release ledger implementing the policy above."""

    def __init__(self, policy: AdmissionPolicy, breaker: CircuitBreaker | None = None):
        if policy.max_concurrent is None or policy.queue_capacity is None:
            raise ValueError("policy must be resolved (max_concurrent set)")
        self.policy = policy
        self.breaker = breaker
        self._lock = threading.Lock()
        self._running = 0
        self._waiting = 0
        self._ewma_service_s = policy.initial_service_s
        self._admitted = metrics.counter("serve.admitted")
        self._shed = metrics.counter("serve.shed")
        self._queue_depth = metrics.gauge("serve.queue_depth")
        self._queue_delay = metrics.histogram("serve.queue_delay_s")

    # -- the front-door decision ---------------------------------------

    def admit(self) -> None:
        """Claim a slot for one request or raise a typed shed error.

        On success the request counts as *waiting* until
        :meth:`start` moves it to *running*; every admit must be paired
        with exactly one :meth:`release` (even on failure paths).
        """
        if self.breaker is not None and not self.breaker.allow():
            self._count_shed("circuit-open")
            raise CircuitOpen(
                "circuit breaker open after repeated executor failures; "
                "failing fast until cooldown"
            )
        policy = self.policy
        with self._lock:
            if self._waiting >= policy.queue_capacity:
                self._count_shed("queue-full")
                raise Overloaded(
                    f"admission queue full "
                    f"({self._waiting} waiting, capacity {policy.queue_capacity})",
                    reason="queue-full",
                )
            projected = self._projected_delay_locked()
            if projected > policy.max_queue_delay_s:
                self._count_shed("queue-delay")
                raise Overloaded(
                    f"projected queue delay {projected:.3f}s exceeds bound "
                    f"{policy.max_queue_delay_s:.3f}s",
                    reason="queue-delay",
                )
            self._waiting += 1
            self._queue_depth.set(self._waiting)
        self._admitted.inc()

    def _projected_delay_locked(self) -> float:
        # Requests ahead of a new arrival: everything waiting plus the
        # running excess over the concurrency limit (never negative).
        backlog = self._waiting + max(
            0, self._running - self.policy.max_concurrent
        )
        return backlog * self._ewma_service_s / self.policy.max_concurrent

    def _count_shed(self, reason: str) -> None:
        self._shed.inc()
        metrics.counter(f"serve.shed.{reason}").inc()

    # -- lifecycle transitions -----------------------------------------

    def start(self, queued_s: float) -> None:
        """A worker picked the request up after ``queued_s`` in queue."""
        with self._lock:
            self._waiting = max(0, self._waiting - 1)
            self._running += 1
            self._queue_depth.set(self._waiting)
        self._queue_delay.observe(queued_s)

    def finish(self, service_s: float) -> None:
        """The request finished executing (any outcome); feeds the EWMA."""
        with self._lock:
            self._running = max(0, self._running - 1)
            if service_s >= 0:
                self._ewma_service_s = (
                    (1 - _EWMA_ALPHA) * self._ewma_service_s
                    + _EWMA_ALPHA * service_s
                )

    def release_unstarted(self) -> None:
        """An admitted request never ran (cancelled in queue, drain)."""
        with self._lock:
            self._waiting = max(0, self._waiting - 1)
            self._queue_depth.set(self._waiting)

    # -- introspection --------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic (key-sorted) controller state."""
        with self._lock:
            return {
                "ewma_service_s": self._ewma_service_s,
                "max_concurrent": self.policy.max_concurrent,
                "queue_capacity": self.policy.queue_capacity,
                "running": self._running,
                "waiting": self._waiting,
            }
