"""Unified fault-injection registry and bounded-retry helper.

Crash-matrix tests inject failures through one registry and one
crash-child ``os._exit`` idiom:

* :class:`FaultInjector` — a named registry of fault points.  Production
  code calls :meth:`FaultInjector.fire` at well-known points; tests
  :meth:`~FaultInjector.register` a callback (raise to inject an error,
  :func:`crash` to kill the process, nothing to just count).  Unregistered
  points are a counter bump and nothing else, so the hooks are free in
  production.
* :func:`retry_with_backoff` — the bounded, jittered, deadline-capped
  retry loop used for transient replication failures (the same
  never-hang-the-committer discipline as the ``IN_DOUBT`` evidence
  probes).

Fault points the sharded manager fires (hooks receive the arguments in
parentheses; see :mod:`repro.core.sharding` and
:mod:`repro.core.replication`).  Split, merge and failover share one slot
handover (``ShardedTransactionManager._hand_over_slots``): a split or a
merge fires ``migration`` at its phase boundaries, a failover the two
``promote_*`` points.

=================== =======================================================
``migration``       ``(phase)`` at the handover's durable phase
                    boundaries: ``"copy"`` after the off-latch copy,
                    ``"catchup"`` after the target checkpoint, ``"flip"``
                    after the flip record is durable
``prepare``         ``(shard_index)`` per 2PC participant once every
                    participant prepared and all votes are durable
``vote``            ``(shard_index)`` right after that participant's
                    prepare was enqueued (partial-prepare images)
``decision``        ``(txn_id)`` after the coordinator decision became
                    durable, before any participant applied phase two
``ship``            ``(shard_index, replica_id)`` before a shipped batch
                    is appended to a replica WAL
``replica_apply``   ``(shard_index, replica_id)`` after the replica WAL
                    append, before the in-memory apply +
                    durable-confirmation step
``promote_pre_flip``  ``(shard_index)`` during ``failover()``, once the
                    replica to promote is caught up and chosen, before its
                    rows reach the new primary (no flip is logged yet)
``promote_post_flip`` ``(shard_index)`` at the handover's ``"flip"``
                    boundary: the flip record is durable, the new slot map
                    is not yet published/saved
=================== =======================================================
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Callable


class FaultInjector:
    """Named fault points: production fires, tests register.

    Thread-safe; callbacks run on the firing thread, so a raising callback
    injects its exception exactly where the production code would see a
    real failure, and :func:`crash` kills the process at that point.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hooks: dict[str, Callable[..., None]] = {}
        #: point -> number of times it fired (registered or not).
        self.fired: dict[str, int] = {}

    def register(self, point: str, hook: Callable[..., None] | None) -> None:
        """Install ``hook`` at ``point`` (``None`` clears it)."""
        with self._lock:
            if hook is None:
                self._hooks.pop(point, None)
            else:
                self._hooks[point] = hook

    def hook(self, point: str) -> Callable[..., None] | None:
        with self._lock:
            return self._hooks.get(point)

    def clear(self) -> None:
        with self._lock:
            self._hooks.clear()

    def fire(self, point: str, *args: Any) -> None:
        """Count the hit and invoke the registered hook, if any.

        The hook call happens outside the registry lock: hooks may crash,
        sleep, or re-enter the injector.
        """
        with self._lock:
            self.fired[point] = self.fired.get(point, 0) + 1
            hook = self._hooks.get(point)
        if hook is not None:
            hook(*args)

    # --------------------------------------------------- canned test hooks

    @staticmethod
    def crash(code: int = 41) -> Callable[..., None]:
        """Hook that kills the process immediately (crash-child tests)."""

        def _hook(*_args: Any) -> None:
            os._exit(code)

        return _hook

    @staticmethod
    def crash_after(n: int, code: int = 41) -> Callable[..., None]:
        """Hook that lets ``n`` firings pass, then kills the process."""
        remaining = [n]

        def _hook(*_args: Any) -> None:
            if remaining[0] <= 0:
                os._exit(code)
            remaining[0] -= 1

        return _hook

    @staticmethod
    def fail_times(n: int, exc_factory: Callable[[], BaseException]) -> Callable[..., None]:
        """Hook that raises ``n`` times, then passes (transient failures)."""
        remaining = [n]

        def _hook(*_args: Any) -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                raise exc_factory()

        return _hook


def retry_with_backoff(
    fn: Callable[[], Any],
    *,
    attempts: int = 5,
    base_delay: float = 0.001,
    max_delay: float = 0.05,
    deadline: float | None = None,
    jitter: float = 0.5,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
) -> Any:
    """Call ``fn`` with bounded exponential backoff; return its result.

    Retries only on ``retry_on`` exceptions, at most ``attempts`` times
    total, sleeping ``base_delay * 2**i`` (capped at ``max_delay``) with
    uniform jitter of ±``jitter`` fraction between tries.  ``deadline`` is
    an absolute cap in seconds from the first call: once exceeded, the
    last failure re-raises even with attempts left — a replica that keeps
    failing must never wedge its caller.  The final failure always
    propagates to the caller, which decides the degrade policy (e.g. mark
    the replica lagging).
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive: {attempts}")
    start = time.monotonic()
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on:
            last_try = attempt == attempts - 1
            out_of_time = (
                deadline is not None and time.monotonic() - start >= deadline
            )
            if last_try or out_of_time:
                raise
            delay = min(base_delay * (2.0**attempt), max_delay)
            if jitter:
                delay *= 1.0 + random.uniform(-jitter, jitter)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - (time.monotonic() - start)))
            if delay > 0.0:
                time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
