"""Event-scheduling backends for the simulation engine.

One scheduling interface, two implementations (see DESIGN.md §5):

* :class:`WheelScheduler` — the default. A bucketed timer wheel: a ring
  of ``horizon`` one-cycle buckets indexed by the quantized event time
  (``int(time) & mask``), each bucket a tiny binary heap ordered by the
  exact ``(time, seq)`` key, plus an overflow heap for events beyond the
  horizon. Popping scans forward from the cursor bucket, which
  *batch-advances* the wheel across empty cycles instead of sifting a
  global heap per event; almost every DRAM timing event lands within a
  few dozen cycles of ``now``, so the scan is short and each bucket heap
  holds a handful of entries.
* :class:`HeapScheduler` — the seed implementation's single global
  ``heapq`` ordered by ``(time, seq)``. Kept as the reference backend:
  the Hypothesis suite in ``tests/test_event_scheduling.py`` asserts
  both backends execute any schedule in the identical order.

Both share the same cancellation design: an O(1) *slot tombstone*. An
entry is a mutable 3-list ``[time, seq, fn]`` and is itself the handle
``push`` returns, so no side table maps handles to entries. ``cancel``
blanks the entry's callback in place — no heap surgery, no set scan when
events surface — and a tombstoned slot is discarded unexecuted when it
reaches the head. An entry's callback is blanked the same way when it
runs, so cancelling an executed handle is a no-op and the live count
stays exact. List comparison never reaches the callback slot because
``seq`` is unique.

:meth:`head` prunes tombstones and returns the next live entry without
removing it, so idle/peek queries can check the head time without
committing to a pop. The engine's run loop itself goes through
:meth:`drain`, which each backend implements with its own structures
inlined: the dispatch overhead of a call per event is measurable at the
simulator's event rates, and ``drain`` is the only place allowed to
know the backend's internals.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.errors import SimulationError

Event = Callable[[], None]

#: Entry = [time, seq, fn]; ``fn is None`` marks a tombstone.
Entry = list

#: Default wheel horizon (buckets / cycles). Power of two. Must cover
#: the common DRAM timing windows (tRC=40, data bursts, interconnect
#: hops); longer-range events (tREFI, profiling windows) overflow to a
#: heap and are folded back in as the cursor advances.
WHEEL_HORIZON = 512


class HeapScheduler:
    """Single global binary heap ordered by ``(time, seq)``."""

    __slots__ = ("_heap", "seq", "live")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        #: Sequence number of the next pushed entry (the tie-break).
        self.seq = 0
        #: Live (scheduled, uncancelled, unexecuted) entry count.
        self.live = 0

    def push(self, time: float, fn: Event) -> Entry:
        seq = self.seq
        self.seq = seq + 1
        entry = [time, seq, fn]
        heappush(self._heap, entry)
        self.live += 1
        return entry

    def cancel(self, entry: Entry) -> bool:
        if entry[2] is None:
            return False
        entry[2] = None
        self.live -= 1
        return True

    def head(self) -> Optional[Entry]:
        heap = self._heap
        while heap:
            if heap[0][2] is None:
                heappop(heap)
            else:
                return heap[0]
        return None

    def drain(
        self,
        engine,
        until: Optional[float],
        max_events: Optional[int],
    ) -> tuple[int, bool]:
        """Run the event loop; returns ``(processed, hit_max_events)``.

        Same ``(time, seq)`` order and the same ``until`` cutoff
        *before* the pop as repeated :meth:`head` calls, with the heap
        inlined into the loop.
        """
        heap = self._heap
        processed = 0
        while heap:
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            entry[2] = None
            self.live -= 1
            engine.now = time
            fn()
            processed += 1
            if max_events is not None and processed >= max_events:
                return processed, True
        return processed, False


class WheelScheduler:
    """Bucketed timer wheel keyed by quantized cycle (see module doc)."""

    __slots__ = (
        "_buckets", "_mask", "_horizon", "_base", "_overflow",
        "_in_wheel", "seq", "live",
    )

    def __init__(self, horizon: int = WHEEL_HORIZON) -> None:
        if horizon <= 0 or horizon & (horizon - 1):
            raise SimulationError(
                f"wheel horizon must be a power of two, got {horizon}"
            )
        self._buckets: list[list[Entry]] = [[] for _ in range(horizon)]
        self._mask = horizon - 1
        self._horizon = horizon
        #: Quantized cycle of the cursor bucket; buckets cover
        #: ``[base, base + horizon)``.
        self._base = 0
        self._overflow: list[Entry] = []
        #: Entries (live + tombstoned) currently in wheel buckets.
        self._in_wheel = 0
        #: Sequence number of the next pushed entry (the tie-break).
        self.seq = 0
        self.live = 0

    def push(self, time: float, fn: Event) -> Entry:
        seq = self.seq
        self.seq = seq + 1
        entry = [time, seq, fn]
        self.live += 1
        base = self._base
        if time - base < self._horizon:
            q = int(time)
            if q < base:  # clamped-to-now events land on the cursor
                q = base
            heappush(self._buckets[q & self._mask], entry)
            self._in_wheel += 1
        else:
            if time != time or time == float("inf"):
                raise SimulationError(f"non-finite event time: {time!r}")
            heappush(self._overflow, entry)
        return entry

    def cancel(self, entry: Entry) -> bool:
        if entry[2] is None:
            return False
        entry[2] = None
        self.live -= 1
        return True

    def head(self) -> Optional[Entry]:
        if self.live == 0:
            return None
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        base = self._base
        while True:
            # Fold overflow entries that the advancing cursor has
            # brought inside the horizon back into the wheel.
            while overflow and overflow[0][0] - base < horizon:
                entry = heappop(overflow)
                if entry[2] is None:
                    continue
                q = int(entry[0])
                if q < base:
                    q = base
                heappush(buckets[q & mask], entry)
                self._in_wheel += 1
            bucket = buckets[base & mask]
            while bucket:
                if bucket[0][2] is None:
                    heappop(bucket)
                    self._in_wheel -= 1
                else:
                    self._base = base
                    return bucket[0]
            if not bucket:
                if self._in_wheel == 0:
                    if not overflow:
                        self._base = base
                        return None  # only tombstones remained
                    # Batch-advance: jump the cursor straight to the
                    # earliest overflow entry instead of stepping.
                    q = int(overflow[0][0])
                    if q > base:
                        base = q
                        continue
                base += 1

    def drain(
        self,
        engine,
        until: Optional[float],
        max_events: Optional[int],
    ) -> tuple[int, bool]:
        """Run the event loop; returns ``(processed, hit_max_events)``.

        The :meth:`head` walk inlined: fold eligible overflow entries,
        advance the cursor over empty/tombstoned buckets, execute the
        cursor bucket's heap in exact ``(time, seq)`` order. ``_base``
        is written back before every callback — the callback may push,
        and a push quantizes against the *current* cursor.
        """
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        processed = 0
        while self.live:
            base = self._base
            while overflow and overflow[0][0] - base < horizon:
                entry = heappop(overflow)
                if entry[2] is None:
                    continue
                q = int(entry[0])
                if q < base:
                    q = base
                heappush(buckets[q & mask], entry)
                self._in_wheel += 1
            bucket = buckets[base & mask]
            if not bucket:
                if self._in_wheel == 0:
                    if not overflow:
                        break
                    # Batch-advance: jump the cursor straight to the
                    # earliest overflow entry instead of stepping.
                    q = int(overflow[0][0])
                    if q > base:
                        self._base = q
                        continue
                self._base = base + 1
                continue
            # Execute this bucket's events in (time, seq) order; the
            # cursor cannot move while its bucket has live entries (a
            # push during a callback lands at or after the cursor).
            while bucket:
                entry = bucket[0]
                fn = entry[2]
                if fn is None:
                    heappop(bucket)
                    self._in_wheel -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    return processed, False
                heappop(bucket)
                entry[2] = None
                self._in_wheel -= 1
                self.live -= 1
                engine.now = time
                fn()
                processed += 1
                if max_events is not None and processed >= max_events:
                    return processed, True
        return processed, False


#: Registry of engine scheduling backends (the wheel/heap choice).
SCHEDULER_BACKENDS = {
    "wheel": WheelScheduler,
    "heap": HeapScheduler,
}


def make_scheduler(name: str):
    """Instantiate the scheduling backend ``name`` (``wheel``/``heap``)."""
    try:
        cls = SCHEDULER_BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine backend {name!r}; "
            f"known: {', '.join(sorted(SCHEDULER_BACKENDS))}"
        ) from None
    return cls()
