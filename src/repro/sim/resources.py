"""Capacity-limited resources with FIFO queueing.

Devices, network links, and CPU cores are modelled as resources: a request
is granted when a slot frees up, in arrival order.  Service time is imposed
by the holder (request -> timeout -> release), for which :meth:`Resource.use`
provides the common pattern.

Grant events ride the engine's zero-delay now ring: a grant always fires
at the instant of the request or release that produced it, so it never
needs the heap.  Released requests are parked on an engine-wide free list
and recycled (refcount-gated) by later requests, making the steady-state
request/release cycle allocation-free.
"""

from __future__ import annotations

import sys
import typing
from collections import deque
from collections.abc import Generator

from repro.errors import SimulationError
from repro.sim.events import _PENDING, _PROCESSED, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_getrefcount = getattr(sys, "getrefcount", None) or (lambda obj: -1)

_POOL_LIMIT = 512

#: Gate for :meth:`Resource.acquire_now` synchronous grants.  The fast
#: path fires only when skipping the ring round trip is provably
#: order-identical, so flipping this off must not change virtual time,
#: counters, or bytes anywhere; tests fuzz that identity
#: (tests/test_bulk_runs_fuzz.py).
SYNC_GRANTS = True


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Requests are created for every device/NIC access: initialize the
        # Event slots in place rather than through super().__init__.
        self.engine = resource.engine
        self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self.resource = resource


class Resource:
    """``capacity`` interchangeable slots, granted first-come first-served."""

    __slots__ = (
        "engine", "capacity", "name", "_queue", "_users",
        "_busy_time", "_last_change", "_last_users",
    )

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._queue: deque[Request] = deque()
        self._users: set[Request] = set()
        # Utilization accounting.
        self._busy_time = 0.0
        self._last_change = engine.now
        self._last_users = 0

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def busy_seconds(self) -> float:
        """Aggregate slot-seconds of service delivered so far."""
        self._account()
        return self._busy_time

    def _account(self) -> None:
        """Settle busy-time up to now; callers must re-sync ``_last_users``
        after mutating the user set."""
        now = self.engine.now
        self._busy_time += self._last_users * (now - self._last_change)
        self._last_change = now
        self._last_users = len(self._users)

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim is granted."""
        engine = self.engine
        pool = engine._request_pool
        req: Request | None = None
        if pool:
            candidate = pool.pop()
            # Recycle only if the pool held the last reference.  A granted
            # request's value is the request itself, so the self-reference
            # adds one to the expected count (local binding + getrefcount
            # argument + self-ref); a cancelled-then-parked request has no
            # grant value and expects two.
            expected = 3 if candidate._value is candidate else 2
            if _getrefcount(candidate) == expected:
                req = candidate
                req.callbacks = None
                req._value = _PENDING
                req._ok = True
                req._scheduled = False
                req.resource = self
        if req is None:
            req = Request(self)
        users = self._users
        if len(users) < self.capacity:
            now = engine._now
            if now != self._last_change:
                self._busy_time += self._last_users * (now - self._last_change)
                self._last_change = now
            users.add(req)
            self._last_users += 1
            # Inline Event.succeed without its already-triggered/delay
            # checks: a freshly built Request cannot have fired yet.
            req._value = req
            req._scheduled = True
            engine._ring.append(req)
        else:
            self._queue.append(req)
        return req

    def acquire_now(self) -> Request | None:
        """Grant a slot synchronously when that is provably unobservable.

        A ``request()`` whose grant rides the now-ring parks the caller
        and resumes it after everything already queued at this instant
        has run.  When nothing is queued — the ring is empty and no heap
        event is due at ``now`` — the caller would have been the sole
        ring entry and resumed immediately with nothing running in
        between, so continuing inline is order-identical to the parked
        path and merely skips one event dispatch plus a full
        generator-chain resume.  Returns ``None`` whenever any of that
        cannot be guaranteed (slot contention, pending same-instant
        work); callers must then fall back to ``request()`` + ``yield``.
        """
        users = self._users
        if len(users) >= self.capacity or not SYNC_GRANTS:
            return None
        engine = self.engine
        if engine._ring:
            return None
        heap = engine._heap
        now = engine._now
        if heap and heap[0][0] <= now:
            return None
        pool = engine._request_pool
        req: Request | None = None
        if pool:
            candidate = pool.pop()
            expected = 3 if candidate._value is candidate else 2
            if _getrefcount(candidate) == expected:
                req = candidate
                req._ok = True
                req.resource = self
        if req is None:
            req = Request(self)
        if now != self._last_change:
            self._busy_time += self._last_users * (now - self._last_change)
            self._last_change = now
        users.add(req)
        self._last_users += 1
        # The grant never needs dispatching: mark it already processed so
        # release() can park it for reuse, and self-referenced so the
        # pool's refcount gate treats it like any dispatched grant.
        req._value = req
        req._scheduled = True
        req.callbacks = _PROCESSED
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        users = self._users
        try:
            users.remove(request)
        except KeyError:
            raise SimulationError(
                f"release of a request that does not hold {self.name or 'resource'}"
            ) from None
        engine = self.engine
        now = engine._now
        if now != self._last_change:
            self._busy_time += self._last_users * (now - self._last_change)
            self._last_change = now
        queue = self._queue
        if queue:
            capacity = self.capacity
            ring_append = engine._ring.append
            while queue and len(users) < capacity:
                nxt = queue.popleft()
                users.add(nxt)
                # Inline succeed: a still-queued request cannot have fired.
                nxt._value = nxt
                nxt._scheduled = True
                ring_append(nxt)
            self._last_users = len(users)
        else:
            self._last_users -= 1
        # Park the released request for reuse.  Only once its grant has
        # been dispatched: a request released before its grant left the
        # ring (cancel of an unawaited grant) must keep its identity.
        pool = engine._request_pool
        if request.callbacks is _PROCESSED and len(pool) < _POOL_LIMIT:
            pool.append(request)

    def cancel(self, request: Request) -> None:
        """Withdraw a request: releases it if granted, dequeues it if not."""
        if request in self._users:
            self.release(request)
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # never enqueued or already granted+released

    def use(self, duration: float) -> Generator[Event, object, None]:
        """Generator: hold one slot for ``duration`` virtual seconds.

        Usage inside a process: ``yield from resource.use(t)``.  The slot
        (or queue position) is given back even if the caller is aborted
        while waiting for the grant.
        """
        req = self.acquire_now()
        try:
            if req is None:
                req = self.request()
                yield req
            yield self.engine.timeout(duration)
        except BaseException:
            self.cancel(req)
            raise
        else:
            # Happy path: the grant fired, so the slot is held — release
            # directly instead of re-deriving that through cancel().
            self.release(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name or id(self):#x} {self.in_use}/{self.capacity}"
            f" queued={self.queue_length}>"
        )
