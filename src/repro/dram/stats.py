"""DRAM-side statistics: activations, RBL accounting, bus utilisation.

Row Buffer Locality (RBL) terminology follows paper Section II-D:

* ``RBL(X)`` — an activation during which exactly X requests were served
  back-to-back from the open row before it was closed.
* ``Avg-RBL`` — total requests served by DRAM / total activations.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


class BusUtilizationTracker:
    """Tracks data-bus busy intervals and answers windowed queries.

    The channel's data bus serialises bursts, so intervals arrive sorted
    and non-overlapping. Two kinds of query coexist:

    * :meth:`busy_since_last_query` — the Dyn-DMS profiler's cursor
      query, advancing monotonically in time. The cursor is the
      profiler's *private* state: it moves only here.
    * :meth:`busy_in` — a pure windowed query for telemetry readers.
      It never touches the cursor, so sampling the bus concurrently
      with the profiler cannot reset the profiling window's counter.

    Intervals are retained for the life of the run (they also back the
    telemetry exporters); the cursor is an index, not a drain. The
    tracker is live simulator state owned by the channel
    (``Channel.bus``): reports keep only the busy total
    (:attr:`ChannelStats.bus_busy`).
    """

    def __init__(self) -> None:
        self._intervals: list[tuple[float, float]] = []
        self._cursor: float = 0.0
        self._cursor_idx: int = 0

    def add(self, start: float, end: float) -> None:
        """Record a data burst occupying the bus on ``[start, end)``."""
        if end <= start:
            return
        self._intervals.append((start, end))

    @property
    def last_end(self) -> float:
        """End time of the latest recorded burst (0.0 when none)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    def busy_since_last_query(self, now: float) -> float:
        """Busy cycles in ``[previous query time, now)``; advances the cursor."""
        busy = 0.0
        intervals = self._intervals
        i = self._cursor_idx
        n = len(intervals)
        while i < n:
            start, end = intervals[i]
            if start >= now:
                break
            if end <= now:
                busy += end - max(start, self._cursor)
                i += 1
            else:
                busy += now - max(start, self._cursor)
                break
        self._cursor_idx = i
        self._cursor = now
        return busy

    def busy_in(self, start: float, end: float) -> float:
        """Busy cycles overlapping ``[start, end)`` — non-destructive.

        Safe to call in any order and concurrently with the profiler's
        cursor query; neither observes the other.
        """
        if end <= start:
            return 0.0
        intervals = self._intervals
        # First interval that could overlap: the last one starting at or
        # before ``start`` (it may extend past it), else the next one.
        i = bisect_right(intervals, (start, float("inf"))) - 1
        if i < 0 or intervals[i][1] <= start:
            i += 1
        busy = 0.0
        n = len(intervals)
        while i < n:
            iv_start, iv_end = intervals[i]
            if iv_start >= end:
                break
            busy += min(iv_end, end) - max(iv_start, start)
            i += 1
        return busy


@dataclass
class ChannelStats:
    """Results of one memory channel: counters and RBL histograms.

    A results-only record — every field is an aggregate, so a report
    stays a few kB however long the run. The live state behind the
    aggregates (the data-bus intervals, ``Channel.bus``, and the
    optional command log) stays on the :class:`~repro.dram.channel.Channel`.
    """

    reads_served: int = 0
    writes_served: int = 0
    activations: int = 0
    precharges: int = 0
    refreshes: int = 0
    requests_dropped: int = 0
    reads_arrived: int = 0
    writes_arrived: int = 0
    rbl_histogram: Counter = field(default_factory=Counter)
    #: RBL histogram over the activations that served no write (Fig. 6).
    read_only_rbl_histogram: Counter = field(default_factory=Counter)
    #: Data-bus busy cycles summed over every burst (``SimReport.bwutil``).
    bus_busy: float = 0.0
    #: Bank -> ``[rbl, writes]`` of its activation in progress. Empty
    #: once :meth:`finalize` ran, so it is neither compared nor stored.
    _open: dict[int, list[int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def on_activate(self, bank: int) -> None:
        """Record an ACT; closes accounting for the bank's previous row."""
        self._close(bank)
        self.activations += 1
        self._open[bank] = [0, 0]

    def on_precharge(self, bank: int) -> None:
        """Record a PRE that closes the bank without a follow-up ACT yet."""
        self.precharges += 1
        self._close(bank)

    def on_column(self, bank: int, is_write: bool) -> None:
        """Record a column access served from the open row of ``bank``."""
        rec = self._open.get(bank)
        if rec is not None:
            rec[0] += 1
            if is_write:
                rec[1] += 1
        if is_write:
            self.writes_served += 1
        else:
            self.reads_served += 1

    def finalize(self) -> None:
        """Flush accounting for rows still open at the end of simulation."""
        for bank in list(self._open):
            self._close(bank)

    def _close(self, bank: int) -> None:
        rec = self._open.pop(bank, None)
        if rec is None:
            return
        rbl, writes = rec
        self.rbl_histogram[rbl] += 1
        if not writes:
            self.read_only_rbl_histogram[rbl] += 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def requests_served(self) -> int:
        """Column accesses actually served by the DRAM banks."""
        return self.reads_served + self.writes_served

    @property
    def avg_rbl(self) -> float:
        """Average row buffer locality (requests / activations)."""
        if not self.activations:
            return 0.0
        return self.requests_served / self.activations

    # ------------------------------------------------------------------
    # Serialization (persistent result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-serializable snapshot of the channel statistics.

        RBL histogram keys become strings (JSON object keys);
        :meth:`from_dict` restores them to ints.
        """
        return {
            "reads_served": self.reads_served,
            "writes_served": self.writes_served,
            "activations": self.activations,
            "precharges": self.precharges,
            "refreshes": self.refreshes,
            "requests_dropped": self.requests_dropped,
            "reads_arrived": self.reads_arrived,
            "writes_arrived": self.writes_arrived,
            "rbl_histogram": _encode_histogram(self.rbl_histogram),
            "read_only_rbl_histogram": _encode_histogram(
                self.read_only_rbl_histogram
            ),
            "bus_busy": self.bus_busy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            reads_served=data["reads_served"],
            writes_served=data["writes_served"],
            activations=data["activations"],
            precharges=data["precharges"],
            refreshes=data["refreshes"],
            requests_dropped=data["requests_dropped"],
            reads_arrived=data["reads_arrived"],
            writes_arrived=data["writes_arrived"],
            rbl_histogram=_decode_histogram(data["rbl_histogram"]),
            read_only_rbl_histogram=_decode_histogram(
                data["read_only_rbl_histogram"]
            ),
            bus_busy=data["bus_busy"],
        )


def _encode_histogram(histogram: Counter) -> dict[str, int]:
    return {str(k): v for k, v in sorted(histogram.items())}


def _decode_histogram(data: dict[str, int]) -> Counter:
    return Counter({int(k): v for k, v in data.items()})


def merge_rbl_histograms(stats: Iterable[ChannelStats]) -> Counter:
    """Combine per-channel RBL histograms into one."""
    total: Counter = Counter()
    for s in stats:
        total.update(s.rbl_histogram)
    return total
