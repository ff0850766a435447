"""The memory controller: a thin command-issue engine over the policy
pipeline.

This module implements the design of paper Fig. 9. Request flow:

* (A) L2 misses arrive via :meth:`MemoryController.submit` and buffer in
  the pending queue.
* (B) The *candidate selector* (plugin, ``SchedulerConfig.arbiter``)
  proposes the best next DRAM command — FR-FCFS by default: row-buffer
  hits first (oldest hit first), otherwise the oldest request per bank
  opens its row, *gated by the activation gate* (C): under DMS the
  oldest request must have aged at least X cycles before its activation
  may issue.
* (D/E) When a row switch is about to happen, the *drop policy* (AMS)
  may instead drop the request and all pending same-row requests; the VP
  unit picks a donor line and the requests are answered immediately with
  approximate data.
* (F) Normally-served reads reply when their data burst completes.

The controller is event-driven: the service loop issues every command
whose ready time has arrived and schedules a wake-up at the earliest time
the next command could issue. The policies themselves live in
:mod:`repro.sched.policies`; this class only sequences them and talks to
the channel.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.gpu import GPUConfig
from repro.config.scheduler import AMSMode, DMSMode, SchedulerConfig
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.sched.pending_queue import PendingQueue
from repro.sched.policies import (
    CandidateSelector,
    make_drop_policy,
    make_gate,
    make_selector,
)
from repro.sim.engine import Engine
from repro.telemetry.hub import NULL_HUB, MetricsHub
from repro.vp.predictor import DropRecord, ValuePredictor

#: reply_fn(request, approx, donor_line_addr) — called at data-return time.
ReplyFn = Callable[[MemoryRequest, bool, Optional[int]], None]

_EPS = 1e-9


class MemoryController:
    """One per memory channel."""

    def __init__(
        self,
        channel: Channel,
        *,
        config: GPUConfig,
        sched_config: SchedulerConfig,
        engine: Engine,
        reply_fn: ReplyFn,
        predictor: Optional[ValuePredictor] = None,
        telemetry: Optional[MetricsHub] = None,
    ) -> None:
        self.channel = channel
        self.config = config
        self.sched_config = sched_config
        self.engine = engine
        self.reply_fn = reply_fn
        self.predictor = predictor
        #: Per-tenant accounting; installed by ``attach_tenants`` for
        #: multi-tenant runs, ``None`` (zero-cost guards) otherwise.
        self.tenants = None
        # Counters/gauges fire only at low-frequency points (window
        # ticks, drops); with the default NULL_HUB every call is a no-op.
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.queue = PendingQueue(
            config.pending_queue_size, config.mapping.banks_per_channel
        )
        # The policy pipeline: gate (C) and drop policy (D/E) are always
        # the paper's DMS/AMS units — their OFF modes are pass-throughs —
        # while the selector (B) is chosen by ``sched_config.arbiter``.
        self.dms = make_gate("dms", sched_config.dms)
        self.ams = make_drop_policy("ams", sched_config.ams)
        self.selector = make_selector(sched_config.arbiter, sched_config)
        self.selector.bind(queue=self.queue, channel=channel, gate=self.dms)
        # Stateless selectors don't override on_issue; skip the call
        # entirely for them (the service loop is the hottest path).
        self._notify_issue: Optional[Callable] = (
            self.selector.on_issue
            if type(self.selector).on_issue is not CandidateSelector.on_issue
            else None
        )
        self.drops: list[DropRecord] = []
        self._next_wake: Optional[float] = None
        self._wake_handle = None
        # Candidate memo between a service pass and its wake-up: the
        # wake issues the candidate the last pass selected instead of
        # folding again. Every mutation path into the queue/channel/
        # gate re-enters ``_service`` (submit, the window tick, command
        # issue inside the loop), and ``_service`` rewrites the memo at
        # each of its return points, so ``_on_wake`` reads the latest
        # selection. The memo is part of the model, not a cache of a
        # re-select: a fresh fold at the wake time can return another
        # key. A column candidate's ready time is shifted by the data
        # bus (``t += bus_free - ds``), and that sum rounds differently
        # for different ``now``; and a wake within ``_EPS`` of a
        # pending one fires at the pending time. Both make near-equal
        # ready times trade places (scale 0.5, seed 1: 66 of the Fig. 12
        # matrix's wakes see a different key, 6 a different command).
        # The same rounding is why ``submit`` runs the full fold: one
        # that folded only the new request's bank against the memo
        # changes LPS's reports (see DESIGN.md §5).
        self._cached_candidate = None
        self._line_bytes = config.l2.line_bytes
        self.ams.set_halted(self.dms.wants_ams_halted)
        # The profiling tick follows the *dynamic* units' window size;
        # a disabled unit's (default) window must not stretch it.
        windows = []
        if sched_config.dms.mode is DMSMode.DYNAMIC:
            windows.append(sched_config.dms.window_cycles)
        if sched_config.ams.mode is AMSMode.DYNAMIC:
            windows.append(sched_config.ams.window_cycles)
        self._window_cycles = min(windows) if windows else max(
            sched_config.dms.window_cycles, sched_config.ams.window_cycles
        )
        self._needs_windows = (
            sched_config.dms.mode is DMSMode.DYNAMIC
            or sched_config.ams.mode is AMSMode.DYNAMIC
        )
        # Profiling ticks are armed lazily on traffic and disarmed only
        # after a *fully idle* window (no arrivals, no bus activity), so
        # an idle simulation can terminate while bursty delayed traffic —
        # whose gaps are part of the utilisation being measured — keeps
        # the profiler running.
        self._ticks_armed = False
        self._window_arrivals = 0

    # ------------------------------------------------------------------
    # Multi-tenant attachment
    # ------------------------------------------------------------------
    def attach_tenants(self, tracker, mix) -> None:
        """Install per-tenant accounting and the mix's arbiter.

        Swaps the selector for the arbiter named by the
        :class:`~repro.config.tenants.TenantMixSpec` (re-bound to this
        controller's queue/channel/gate) and hooks the shared
        :class:`~repro.sched.tenants.TenantTracker` into the arrival /
        issue / drop paths. Called only for multi-tenant runs, before
        any traffic — single-tenant controllers never take this path.
        """
        from repro.sched.policies import make_arbiter

        self.tenants = tracker
        selector = make_arbiter(mix.arbiter, self.sched_config, mix)
        selector.bind(
            queue=self.queue, channel=self.channel, gate=self.dms
        )
        self.selector = selector
        self._notify_issue = (
            selector.on_issue
            if type(selector).on_issue is not CandidateSelector.on_issue
            else None
        )
        self._cached_candidate = None

    # ------------------------------------------------------------------
    # Ingress (A)
    # ------------------------------------------------------------------
    def submit(self, request: MemoryRequest) -> None:
        """A request (an L2 miss or write-back) arrives at this MC."""
        now = self.engine.now
        request.arrival_time = now
        stats = self.channel.stats
        if request.is_write:
            stats.writes_arrived += 1
        else:
            stats.reads_arrived += 1
            self.ams.on_read_arrival()
        if self.tenants is not None:
            self.tenants.on_arrival(request)
        admitted = self.queue.offer(request, now)
        self._window_arrivals += 1
        if self._needs_windows and not self._ticks_armed:
            self._ticks_armed = True
            self.engine.at(now + self._window_cycles, self._window_tick)
        # A deferred request sits in the ingress FIFO, invisible to the
        # selector: the schedulable state is exactly what the previous
        # service pass saw, and that pass — the queue is non-empty —
        # already armed its wake-up. Re-servicing would re-derive the
        # identical candidate and dedup against the same wake.
        if admitted:
            self._service()

    # ------------------------------------------------------------------
    # Profiling window tick (Dyn-DMS / Dyn-AMS)
    # ------------------------------------------------------------------
    def _window_tick(self) -> None:
        now = self.engine.now
        busy = self.channel.bus.busy_since_last_query(now)
        bwutil = busy / self._window_cycles
        self.dms.on_window(bwutil)
        self.ams.set_halted(self.dms.wants_ams_halted)
        self.ams.on_window()
        telemetry = self.telemetry
        if telemetry.enabled:
            ch = self.channel.channel_id
            telemetry.inc(f"mc{ch}.profile_ticks")
            telemetry.gauge(f"mc{ch}.profile.bwutil", bwutil)
            telemetry.gauge(f"mc{ch}.dms.x", self.dms.current_delay)
            telemetry.gauge(f"mc{ch}.ams.th_rbl", float(self.ams.th_rbl))
        idle_window = (
            self.queue.empty and self._window_arrivals == 0 and busy == 0.0
        )
        self._window_arrivals = 0
        if idle_window:
            # Disarm after a dead window; the next submit() re-arms.
            self._ticks_armed = False
        else:
            self.engine.at(now + self._window_cycles, self._window_tick)
        # A lowered delay may make gated activations eligible right away.
        self._service()

    # ------------------------------------------------------------------
    # Service loop (B)
    # ------------------------------------------------------------------
    def _service(self, cached=None) -> None:
        # Every engine event lands here; one selector call per issued
        # command, with the candidate fold inlined inside the selector.
        # ``cached`` short-circuits the wake-up path: the candidate the
        # previous pass already selected (and scheduled this wake for)
        # is reused verbatim — see ``_cached_candidate`` — and any
        # command issue below falls back to a fresh selection.
        now = self.engine.now
        channel = self.channel
        select = self.selector.select
        notify = self._notify_issue
        tenants = self.tenants
        refresh_enabled = channel.refresh_enabled
        best = cached
        while True:
            if refresh_enabled and channel.refresh_due(now):
                channel.issue_refresh(now)
                best = None
                continue
            if best is None:
                best = select(now)
            if best is None:
                self._cached_candidate = None
                return  # queue empty: next arrival re-kicks us
            key, kind, bank, request = best
            ready = key[0]
            if refresh_enabled:
                ready = min(ready, channel.next_refresh_time())
            if ready > now + _EPS:
                self._cached_candidate = best
                self._wake_at(ready)
                return
            if kind == "col":
                is_write = request.is_write
                _, data_end = channel.issue_column(
                    bank, is_write, now, request.rid
                )
                self.queue.remove(request, now)
                if tenants is not None:
                    tenants.on_served(request)
                if not is_write:
                    if self.predictor is not None:
                        self.predictor.on_fill(
                            request.addr // self._line_bytes
                        )
                    self.engine.push(
                        data_end,
                        lambda r=request: self.reply_fn(r, False, None),
                    )
            elif kind == "close":
                channel.issue_precharge(bank, now)
            elif kind == "pre":
                # Dropping instead of precharging leaves the row open.
                if self.ams.may_drop(self.queue, bank.index, request.row):
                    self._drop_row(bank.index, request.row)
                else:
                    channel.issue_precharge(bank, now)
            else:  # "act"
                if self.ams.may_drop(self.queue, bank.index, request.row):
                    self._drop_row(bank.index, request.row)
                else:
                    channel.issue_activate(bank, request.row, now)
                    if tenants is not None:
                        tenants.on_activate(request.tenant_id)
            if notify is not None:
                notify(kind, bank.index, request)
            best = None  # state changed: the next pass re-selects

    def _drop_row(self, bank_idx: int, row: int) -> None:
        """Drop every pending request to (bank, row); VP answers them.

        The paper drops one request per memory cycle; we remove them from
        the queue atomically (avoiding re-decisions on a half-dropped row)
        and stagger the replies one cycle apart to preserve the timing.
        """
        now = self.engine.now
        victims = self.queue.hits_for(bank_idx, row)
        if self.tenants is not None:
            # Counts per-tenant drops and enforces the class contract
            # (a latency/bandwidth tenant's request must never land
            # here) before any victim is removed from the queue.
            self.tenants.on_drops(victims)
        for i, victim in enumerate(victims):
            self.queue.remove(victim, now)
            donor = (
                self.predictor.predict(victim)
                if self.predictor is not None
                else None
            )
            self.drops.append(
                DropRecord(
                    rid=victim.rid,
                    addr=victim.addr,
                    tag=victim.tag,
                    donor_line_addr=donor,
                    time=now + i,
                    channel=self.channel.channel_id,
                )
            )
            self.engine.push(
                now + i,
                lambda r=victim, d=donor: self.reply_fn(r, True, d),
            )
        self.ams.on_drop(len(victims))
        self.channel.stats.requests_dropped += len(victims)
        # Dropped reads are answered by the VP unit and never issue a
        # column command — by construction they cannot observe a faulty
        # cell, the interaction the error-tolerance argument relies on.
        if self.channel.read_path is not None:
            self.channel.read_path.on_spared(len(victims))
        if self.telemetry.enabled:
            self.telemetry.inc(
                f"mc{self.channel.channel_id}.ams.drops", len(victims)
            )

    # ------------------------------------------------------------------
    def _wake_at(self, time: float) -> None:
        """Ensure a service wake-up at ``time``, keeping one live event.

        A pending earlier-or-equal wake already covers this request.
        When the new time is strictly earlier, the superseded later
        event is *cancelled* instead of being left to fire as a no-op —
        otherwise every tightening of the wake time would accumulate a
        dead callback on the engine heap.
        """
        if self._next_wake is not None:
            if self._next_wake <= time + _EPS:
                return
            self.engine.cancel(self._wake_handle)
        self._next_wake = time
        # ``time`` is a ready time past ``now``: no clamp needed.
        self._wake_handle = self.engine.push(time, self._on_wake)

    def _on_wake(self) -> None:
        self._next_wake = None
        self._service(self._cached_candidate)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no requests are pending or deferred at this MC."""
        return self.queue.empty
