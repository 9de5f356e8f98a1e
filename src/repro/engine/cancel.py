"""Cooperative cancellation and deadlines for query execution.

A :class:`CancelToken` is the one object a client, a server front door,
and a deep morsel pipeline all agree on. The client (or an expired
deadline) flips it; the executors *check* it at natural preemption
points — every operator dispatch, and every morsel boundary of a
multi-worker executor — so a cancelled query stops consuming worker
threads within one morsel of work and its slot frees immediately.
Checking is cooperative by design: a morsel in flight finishes (numpy
kernels are not interruptible), but no *new* morsel of a cancelled
query ever starts.

Cancellation surfaces as one of two exception types under a common
base: :class:`QueryCancelled` (an explicit client cancel) or
:class:`DeadlineExceeded` (the token's deadline passed). Both derive
from :class:`QueryInterrupted`, which the single-flight result cache
treats specially — an interrupted execution must never populate the
cache, and waiters piggybacking on an interrupted owner recompute
instead of inheriting an error that was personal to the owner.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "CancelToken",
    "DeadlineExceeded",
    "QueryCancelled",
    "QueryInterrupted",
]


class QueryInterrupted(RuntimeError):
    """Base for interruptions that are *about the caller*, not the query:
    the plan is fine, this particular execution was told to stop."""


class QueryCancelled(QueryInterrupted):
    """The client (or the server on its behalf) cancelled the query."""


class DeadlineExceeded(QueryInterrupted):
    """The query's deadline passed before execution finished."""


class CancelToken:
    """Thread-safe cooperative cancellation flag with an optional deadline.

    Args:
        deadline_s: absolute ``time.monotonic()`` instant after which
            :meth:`check` raises :class:`DeadlineExceeded`. ``None``
            means no deadline.

    The fast path (:meth:`check` on a live token) is one event check
    plus, when a deadline exists, one clock read — cheap enough for a
    per-operator / per-morsel call site.
    """

    __slots__ = ("_event", "_reason", "deadline_s")

    def __init__(self, deadline_s: float | None = None):
        self._event = threading.Event()
        self._reason: str | None = None
        self.deadline_s = deadline_s

    @classmethod
    def from_timeout(cls, timeout_s: float | None) -> "CancelToken":
        """A token whose deadline is ``timeout_s`` seconds from now
        (``None`` -> no deadline)."""
        if timeout_s is None:
            return cls()
        if timeout_s < 0:
            raise ValueError("timeout_s must be non-negative")
        return cls(deadline_s=time.monotonic() + timeout_s)

    def cancel(self, reason: str = "cancelled") -> None:
        """Flip the token. Idempotent; the first reason wins."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (deadline not counted)."""
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        return self._reason

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (``None`` without one; can go
        negative once expired)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.deadline_s is not None and time.monotonic() >= self.deadline_s

    def check(self) -> None:
        """Raise if this execution should stop; otherwise a cheap no-op."""
        if self._event.is_set():
            raise QueryCancelled(self._reason or "cancelled")
        if self.deadline_s is not None and time.monotonic() >= self.deadline_s:
            raise DeadlineExceeded(
                f"query deadline exceeded "
                f"({-self.remaining_s():.3f}s past deadline)"
            )
