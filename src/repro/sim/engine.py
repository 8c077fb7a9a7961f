"""The event loop: a time heap drained in per-instant runs plus a
zero-delay "now ring" drained in pure batches.

Two structures hold triggered events:

- ``_heap`` — ``(time, seq, event)`` entries for strictly-future events.
- ``_ring`` — an append-only FIFO of events that fire *at the current
  instant* (``delay == 0``, or a positive delay too small to advance the
  float clock).  The zero-delay fast path skips the heap round-trip that
  would otherwise dominate resource grants, channel handoffs, and
  immediate ``succeed()`` chains, and needs neither a sequence number
  nor an entry tuple.

Ordering invariant (the reason virtual results stay bit-identical with a
plain heapq kernel): at any instant ``t``, every heap event at time ``t``
was scheduled *before* processing of ``t`` began — the ring was empty
when ``t`` started, and any schedule during ``t`` that lands at ``t``
goes to the ring, never the heap (``schedule``/``succeed``/``fail``/
``Timeout`` all route ``time <= now`` onto the ring, and a positive
delay can only produce ``time > now``).  Hence the dispatch rule
"drain the heap's run of events at ``now`` first, then the ring, then
advance time" reproduces exact global ``(time, seq)`` FIFO order.

Batched dispatch: that invariant means the heap can never interleave
with the ring *within* an instant, so the run loop drains each queue in
uninterrupted runs — the heap is probed only while draining the
at-``now`` run (a small minority of events), and ring events cost one
``popleft`` plus the callback dispatch, with **no** heap peek at all.
The previous kernel paid a ``heap and heap[0][0] <= now`` probe before
every single event; on grant/handoff-heavy workloads the ring carries
60–70 % of all events, so dropping that probe is the bulk of the win.
"""

from __future__ import annotations

import sys
import typing
from collections import deque
from collections.abc import Generator, Iterable, Sequence
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import _PROCESSED, Event, Timeout
from repro.sim.process import Process

#: CPython's refcount probe gates free-list reuse: a pooled object is
#: recycled only when the pool held the last reference.  On runtimes
#: without refcounts the pools stay cold and every object is fresh.
_getrefcount = getattr(sys, "getrefcount", None) or (lambda obj: -1)

#: Free lists never grow beyond this many parked objects.
_POOL_LIMIT = 512


class Engine:
    """Discrete-event simulation engine.

    Maintains the virtual clock and the pending-event queues.  Create one
    per experiment; all simulation objects (devices, links, processes)
    hold a reference to it.
    """

    __slots__ = (
        "_now", "_heap", "_ring", "_seq", "_events",
        "_timeout_pool", "_request_pool", "_active_processes", "tracer",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ring: deque[Event] = deque()
        self._seq = 0
        self._events = 0
        self._timeout_pool: list[Timeout] = []
        self._request_pool: list[Event] = []
        self._active_processes = 0
        # Optional repro.obs.Tracer.  None (the default) keeps every
        # instrumented call site on its raw fast path; spans only read
        # the clock, so attaching one never perturbs virtual results.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events this engine has dispatched so far."""
        return self._events

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event to be processed after ``delay``."""
        if delay == 0.0:
            self._ring.append(event)
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        else:
            now = self._now
            time = now + delay
            if time <= now:
                self._ring.append(event)
            else:
                self._seq += 1
                heappush(self._heap, (time, self._seq, event))

    def schedule_batch(
        self, events: Sequence[Event], delays: Iterable[float]
    ) -> None:
        """Schedule many triggered events in one pass.

        Timestamps are computed with one vectorized numpy add over the
        whole cohort, then events are binned (ring vs heap) in input
        order — bit-identical to calling :meth:`schedule` once per
        event.  The open-loop traffic swarm uses it to insert a whole
        arrival schedule at once.
        """
        import numpy as np

        now = self._now
        darr = np.asarray(
            delays if isinstance(delays, np.ndarray) else list(delays),
            dtype=np.float64,
        )
        if darr.shape != (len(events),):
            raise SimulationError(
                f"schedule_batch: {len(events)} events but {darr.size} delays"
            )
        if darr.size and float(darr.min()) < 0:
            raise SimulationError("cannot schedule into the past (batch)")
        times = now + darr
        ring_append = self._ring.append
        heap = self._heap
        seq = self._seq
        for event, time in zip(events, times.tolist()):
            if time <= now:
                ring_append(event)
            else:
                seq += 1
                heappush(heap, (time, seq, event))
        self._seq = seq

    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Recycles processed timeouts from a free list when nothing else
        still references them, so steady-state simulation loops allocate
        no timeout objects at all.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            # Reusable only if the pool held the last reference: the local
            # binding plus getrefcount's argument make exactly two.
            if _getrefcount(timeout) == 2:
                if delay < 0:
                    pool.append(timeout)
                    raise SimulationError(f"negative timeout delay: {delay}")
                timeout.callbacks = None
                timeout._value = value
                timeout._ok = True
                timeout._scheduled = True
                timeout.delay = delay
                if delay == 0.0:
                    self._ring.append(timeout)
                else:
                    now = self._now
                    time = now + delay
                    if time <= now:
                        self._ring.append(timeout)
                    else:
                        self._seq += 1
                        heappush(self._heap, (time, self._seq, timeout))
                return timeout
        return Timeout(self, delay, value)

    def timeouts(self, delays: Iterable[float]) -> list[Timeout]:
        """A cohort of timeouts, one per delay, timestamped in one pass.

        Equivalent to ``[self.timeout(d) for d in delays]`` — same events
        in the same schedule order, bit-identical — but with the
        timestamp arithmetic vectorized over the whole cohort and the
        free-list recycling inlined.
        """
        import numpy as np

        darr = np.asarray(
            delays if isinstance(delays, np.ndarray) else list(delays),
            dtype=np.float64,
        )
        if darr.size and float(darr.min()) < 0:
            raise SimulationError("negative timeout delay in batch")
        now = self._now
        pool = self._timeout_pool
        ring_append = self._ring.append
        heap = self._heap
        out: list[Timeout] = []
        append = out.append
        for delay, time in zip(darr.tolist(), (now + darr).tolist()):
            timeout = None
            if pool:
                candidate = pool.pop()
                if _getrefcount(candidate) == 2:
                    timeout = candidate
                    timeout.callbacks = None
                    timeout._value = None
                    timeout._ok = True
                    timeout._scheduled = True
                    timeout.delay = delay
                    if time <= now:
                        ring_append(timeout)
                    else:
                        self._seq += 1
                        heappush(heap, (time, self._seq, timeout))
            if timeout is None:
                timeout = Timeout(self, delay)
            append(timeout)
        return out

    def process(self, generator: Generator[Event, object, object]) -> Process:
        """Register ``generator`` as a simulation process and start it."""
        return Process(self, generator)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        heap = self._heap
        now = self._now
        if heap and heap[0][0] <= now:
            _, _, event = heappop(heap)
        elif self._ring:
            event = self._ring.popleft()
        elif heap:
            time, _, event = heappop(heap)
            self._now = time
        else:
            raise SimulationError("no more events to process")
        self._events += 1
        event._process()

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        - ``until is None``: run until both event queues are exhausted.
        - ``until`` is a number: run until virtual time reaches it.
        - ``until`` is an :class:`Event` (e.g. a :class:`Process`): run until
          that event fires, then return its value (re-raising a failure).

        The dispatch body is inlined into each branch; the ``None`` and
        horizon branches drain each queue in uninterrupted runs (module
        docstring): the heap's run at the new instant first, then the
        ring with no per-event heap probe, then one heap pop to advance.
        """
        heap = self._heap
        ring = self._ring
        ring_popleft = ring.popleft
        tpool = self._timeout_pool
        tpool_append = tpool.append
        n = 0
        if isinstance(until, Event):
            # Same run-drain structure as below, with the stop condition
            # re-checked between events (it can flip mid-run).  The ring
            # drain still sheds the per-event heap probe.
            stop_event = until
            stop = stop_event
            now = self._now
            try:
                while stop.callbacks is not _PROCESSED:
                    if heap and heap[0][0] <= now:
                        _, _, event = heappop(heap)
                        n += 1
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not None:
                            callbacks(event)
                        if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                            tpool_append(event)
                        continue
                    if ring:
                        # Pure ring run: only the stop check interleaves.
                        while True:
                            event = ring_popleft()
                            n += 1
                            callbacks = event.callbacks
                            event.callbacks = _PROCESSED
                            if callbacks.__class__ is list:
                                for callback in callbacks:
                                    callback(event)
                            elif callbacks is not None:
                                callbacks(event)
                            if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                                tpool_append(event)
                            if stop.callbacks is _PROCESSED or not ring:
                                break
                        continue
                    if heap:
                        time, _, event = heappop(heap)
                        self._now = now = time
                        n += 1
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not None:
                            callbacks(event)
                        if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                            tpool_append(event)
                        continue
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired (deadlock: a process is waiting on an "
                        "event nothing will trigger)"
                    )
            finally:
                self._events += n
            if not stop_event.ok:
                value = stop_event.value
                assert isinstance(value, BaseException)
                raise value
            return stop_event.value
        if until is None:
            try:
                while True:
                    # Pure ring run: no heap probe per event — the
                    # ordering invariant guarantees the heap holds nothing
                    # for the current instant once the at-``now`` run
                    # below has drained.
                    while ring:
                        event = ring_popleft()
                        n += 1
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not None:
                            callbacks(event)
                        if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                            tpool_append(event)
                    if not heap:
                        break
                    # Advance to the next instant and drain the heap's run
                    # of events at exactly that instant.  Their dispatch
                    # can only append to the ring (a positive delay lands
                    # strictly in the future), never ahead of this run.
                    time, _, event = heappop(heap)
                    self._now = now = time
                    while True:
                        n += 1
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not None:
                            callbacks(event)
                        if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                            tpool_append(event)
                        if heap and heap[0][0] <= now:
                            _, _, event = heappop(heap)
                        else:
                            break
            finally:
                self._events += n
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"until={horizon} is in the past (now={self._now})"
            )
        try:
            while True:
                while ring:
                    event = ring_popleft()
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(event)
                    elif callbacks is not None:
                        callbacks(event)
                    if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                        tpool_append(event)
                if not heap or heap[0][0] > horizon:
                    break
                time, _, event = heappop(heap)
                self._now = now = time
                while True:
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(event)
                    elif callbacks is not None:
                        callbacks(event)
                    if event.__class__ is Timeout and len(tpool) < _POOL_LIMIT:
                        tpool_append(event)
                    if heap and heap[0][0] <= now:
                        _, _, event = heappop(heap)
                    else:
                        break
        finally:
            self._events += n
        self._now = max(self._now, horizon)
        return None

    def run_all(self, processes: typing.Sequence[Process]) -> list[object]:
        """Run until every process in ``processes`` completes; return values."""
        from repro.sim.events import AllOf

        self.run(AllOf(self, list(processes)))
        return [p.value for p in processes]
