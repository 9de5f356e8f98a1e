"""Retry and circuit-breaker policies for the serving layer.

Transient failures retry with capped exponential backoff, and repeated
*unexpected* failures trip a circuit breaker so a sick executor fails
fast (typed :class:`~repro.serve.errors.CircuitOpen`) instead of
queueing doomed work behind a bounded queue. :class:`RetryPolicy` is the
one backoff implementation: the cluster driver's
:class:`~repro.cluster.resilient.RecoveryPolicy` extends it and charges
the waits to its modeled clock, while the server lives on the wall
clock — backoffs really sleep (they are bounded small) and the breaker
cooldown is real elapsed time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["CircuitBreaker", "RetryPolicy", "TransientServeError"]


class TransientServeError(RuntimeError):
    """An execution failure worth retrying (resource blips, torn
    shared state from a concurrent fault). Anything else is assumed
    deterministic and fails the request immediately."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient executor failures.

    Attributes:
        max_retries: retries after the first attempt (0 disables).
        backoff_base_s: first retry wait; doubles per retry.
        backoff_cap_s: backoff ceiling.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")

    def backoff_s(self, retry: int) -> float:
        """Wait before retry number ``retry`` (0-based), capped."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** retry))


class CircuitBreaker:
    """Three-state breaker over consecutive unexpected failures.

    *closed* — normal service; failures count, any success resets.
    *open* — :meth:`allow` refuses until ``cooldown_s`` elapses.
    *half-open* — after cooldown one probe request is let through;
    its success closes the breaker, its failure re-opens it.

    Thread-safe; every transition lands in the caller-visible
    :meth:`state` property so tests and metrics can assert on it.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 1.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a new request may proceed right now. In half-open
        state only the first caller after cooldown gets through."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if time.monotonic() - self._opened_at < self.cooldown_s:
                    return False
                self._state = "half-open"
                self._probing = False
            # half-open: admit exactly one probe at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._state = "open"
                self._opened_at = time.monotonic()
                self._probing = False
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = time.monotonic()
