"""Unbounded FIFO message channels for process communication.

The simulated MPI layer (:mod:`repro.parallel`) builds its point-to-point
and collective operations on channels: ``put`` never blocks, ``get`` returns
an event that fires when a message is available.  Handoffs ride the
engine's zero-delay now ring — a matched put/get pair costs one ring
append, no heap traffic.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Channel:
    """An unbounded FIFO of messages with blocking receive."""

    __slots__ = ("engine", "name", "_items", "_getters")

    def __init__(self, engine: "Engine", name: object = "") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: object) -> None:
        """Deposit ``item``; wakes the oldest waiting receiver, if any."""
        getters = self._getters
        if getters:
            event = getters.popleft()
            # Inline Event.succeed: a still-queued getter cannot have fired.
            event._value = item
            event._scheduled = True
            self.engine._ring.append(event)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next message."""
        engine = self.engine
        event = Event(engine)
        items = self._items
        if items:
            event._value = items.popleft()
            event._scheduled = True
            engine._ring.append(event)
        else:
            self._getters.append(event)
        return event

    @property
    def idle(self) -> bool:
        """True when no message is queued and no receiver is waiting."""
        return not self._items and not self._getters

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        label = self.name if self.name != "" else f"{id(self):#x}"
        return (
            f"<Channel {label} items={len(self._items)}"
            f" waiting={len(self._getters)}>"
        )
