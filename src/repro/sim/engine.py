"""Discrete-event simulation engine.

Events execute in strict ``(time, insertion sequence)`` order; all times
are in *memory clock cycles* (see DESIGN.md §5). Insertion order breaks
ties, making runs fully deterministic.

The ordering structure is pluggable (``backend=``): the default is the
bucketed timer wheel of :mod:`repro.sim.events`, with the seed's global
binary heap kept as the reference implementation. Both share tombstone
cancellation: :meth:`Engine.at` returns the scheduled entry itself as an
opaque handle, which :meth:`Engine.cancel` invalidates in O(1) by
blanking the entry's callback slot; a tombstoned entry is discarded
unexecuted — and uncounted — when it surfaces, so superseded wake-ups
cost one pop instead of a full callback, and :attr:`live_event_count`
stays exact.

Hot callers that already know their time is not in the past (a
non-negative delay from ``now``, a crossbar arrival, a data burst end)
schedule through :attr:`Engine.push`, the backend's own push, and skip
the clamp and the extra call of :meth:`at`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import make_scheduler

Event = Callable[[], None]

#: Environment override for the default scheduling backend (the
#: wheel/heap differential runs set this instead of threading a
#: parameter through every system constructor).
_BACKEND_ENV = "REPRO_ENGINE_BACKEND"


class Engine:
    """Deterministic event-driven simulation core."""

    def __init__(self, backend: Optional[str] = None) -> None:
        if backend is None:
            backend = os.environ.get(_BACKEND_ENV, "wheel")
        self.backend = backend
        self._sched = make_scheduler(backend)
        #: ``push(time, fn) -> handle`` for a ``time`` not before
        #: :attr:`now` (unchecked): the backend's bound push, so a hot
        #: caller pays one call per event.
        self.push = self._sched.push
        self.now: float = 0.0
        self.events_processed = 0
        self.events_cancelled = 0
        #: Optional callable returning extra context (e.g. per-bank
        #: pending-request counts) appended to the ``max_events``
        #: overflow error, so a deadlock is debuggable from the failure
        #: manifest alone. The engine itself knows nothing about DRAM;
        #: :class:`~repro.sim.system.GPUSystem` installs its snapshot.
        self.diagnostics: Optional[Callable[[], str]] = None

    def at(self, time: float, fn: Event) -> Any:
        """Schedule ``fn`` to run at absolute ``time`` (clamped to now).

        Returns a handle accepted by :meth:`cancel`.
        """
        if time < self.now:
            time = self.now
        return self.push(time, fn)

    def after(self, delay: float, fn: Event) -> Any:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.push(self.now + delay, fn)

    def cancel(self, handle: Any) -> None:
        """Invalidate a scheduled event; it is dropped when it surfaces.

        Cancelling a handle that already executed or was already
        cancelled, or a value that is no handle at all, is harmless: it
        counts in neither :attr:`events_cancelled` nor the live-event
        count.
        """
        if type(handle) is list and self._sched.cancel(handle):
            self.events_cancelled += 1

    @property
    def idle(self) -> bool:
        """True when no live events remain."""
        return self._sched.head() is None

    @property
    def live_event_count(self) -> int:
        """Number of scheduled-but-unexecuted events, cancellations
        excluded. Telemetry's window recorder uses this to decide
        whether re-arming itself would keep an otherwise-drained
        schedule alive."""
        return self._sched.live

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (monotonic, includes cancelled).

        ``events_processed`` is folded in from a hot-loop local only
        when :meth:`run` returns, so this is the counter to sample for
        *live* activity telemetry — reading it costs nothing on the
        event loop.
        """
        return self._sched.seq

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when idle."""
        entry = self._sched.head()
        return entry[0] if entry is not None else None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until the schedule drains, ``until`` is passed,
        or ``max_events`` have run (a deadlock/runaway guard).

        The loop itself lives in the backend's ``drain`` (each backend
        inlines its own structures); this wrapper folds the processed
        count in and raises the livelock guard.
        """
        processed, overflowed = self._sched.drain(self, until, max_events)
        self.events_processed += processed
        if overflowed:
            raise SimulationError(self._overflow_message(max_events))
        if until is not None and self.now < until:
            self.now = until

    def _overflow_message(self, max_events: int) -> str:
        """Diagnostic snapshot for the ``max_events`` livelock guard."""
        detail = (
            f"exceeded max_events={max_events}; possible simulation "
            f"livelock (cycle={self.now:.0f}, "
            f"live_events={self._sched.live}, "
            f"total_processed={self.events_processed})"
        )
        if self.diagnostics is not None:
            # A broken diagnostics probe must never mask the real error.
            try:
                detail += "; " + self.diagnostics()
            except Exception as exc:
                detail += f"; (diagnostics probe failed: {exc!r})"
        return detail
