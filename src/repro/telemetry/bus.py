"""In-process event bus with pluggable sinks and a one-branch idle cost.

The serving hot paths guard every emission with ``if bus.active:`` — a plain
attribute read on a zero-subscriber bus, so instrumentation costs one branch
per would-be event and *no event object is even constructed*.  The benchmark
suite asserts the resulting throughput is within a few percent of the
uninstrumented engine.

A sink is any callable taking one :class:`~repro.telemetry.events.Event`
(:class:`~repro.telemetry.log.EventLogWriter` is the canonical one); sinks
run synchronously in emission order on the emitting thread, so a sink that
may be fed from several threads brings its own lock.
"""

from __future__ import annotations

from repro.telemetry.events import Event

__all__ = ["EventBus", "NULL_BUS"]


class EventBus:
    """Synchronous fan-out of events to subscribed sinks."""

    __slots__ = ("active", "_sinks", "_frozen")

    def __init__(self) -> None:
        #: True iff at least one sink is subscribed — the hot-path guard.
        self.active = False
        self._sinks: "list" = []
        self._frozen = False

    def subscribe(self, sink) -> None:
        """Attach ``sink`` (a callable of one event); activates the bus."""
        if self._frozen:
            raise RuntimeError("NULL_BUS is shared and immutable; create an EventBus()")
        if not callable(sink):
            raise TypeError(f"sink must be callable, got {type(sink).__name__}")
        self._sinks.append(sink)
        self.active = True

    def unsubscribe(self, sink) -> None:
        """Detach ``sink``; deactivates the bus when none remain."""
        self._sinks.remove(sink)
        self.active = bool(self._sinks)

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every sink, in subscription order."""
        for sink in self._sinks:
            sink(event)


#: Shared inert bus the engines default to — ``active`` is permanently False
#: (subscribing raises), so ``bus = bus or NULL_BUS`` keeps the hot path to
#: one attribute read without per-call None checks.
NULL_BUS = EventBus()
NULL_BUS._frozen = True
