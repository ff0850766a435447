"""Spans around the program's public entry points, recorded from outside.

The benchmark may not change the program, so :func:`instrument` wraps
the public calls a cell or a read-back goes through (``get_workload``,
``Workload.warp_streams``, ``GPUSystem.from_spec``/``.run``,
``measure_application_error``, ``SimReport.to_dict``/``from_dict``,
``ResultCache.store``/``load``, ``Runner.run``, the runner's content-key
hash and ``Warehouse.ingest_cache``) for the length of a traced segment
and puts the originals back afterwards. Spans are kept in memory and
written once, at the end, as Chrome trace-event JSON.

A span's *self* time is its duration minus the time its child spans
cover; children always nest on the caller's thread, so the subtraction
never goes negative. Work the benchmark adds at a boundary (counting
trace accesses, sizing blobs) runs in a ``bench.probe`` span so it is
charged to the benchmark, not to the layer around it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

#: Span name for work the benchmark itself adds at a layer boundary.
PROBE = "bench.probe"


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "unit", "tid")

    def __init__(self, span_id, name, start, parent, unit, tid):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with named counters at the same boundaries.

    ``active`` switches recording per thread (a thread that never set it
    records), so one process can interleave traced and untraced work to
    measure the tracer's own overhead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return getattr(self._local, "active", True)

    @active.setter
    def active(self, value: bool) -> None:
        self._local.active = value

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        """Record one span; ``unit`` names the cell or job it serves
        (inherited from the enclosing span when omitted)."""
        if not self.active:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = parent.unit
        span = Span(
            next(self._ids), name, time.perf_counter(),
            parent.span_id if parent is not None else None,
            unit, threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += value

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        unit: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span.

        ``unit(args, kwargs)`` labels the span; ``after(args, kwargs,
        result)`` runs in a probe span once the call returns. Plain
        functions, methods and classmethods are handled; :meth:`restore`
        puts every original back.
        """
        original = vars(owner)[attr]
        func = original.__func__ if isinstance(original, classmethod) \
            else original
        tracer = self

        def traced(*args, **kwargs):
            label = unit(args, kwargs) if unit is not None else None
            with tracer.span(name, label):
                result = func(*args, **kwargs)
            if after is not None and tracer.active:
                with tracer.span(PROBE):
                    after(args, kwargs, result)
            return result

        traced.__name__ = getattr(func, "__name__", attr)
        traced.__doc__ = getattr(func, "__doc__", None)
        setattr(
            owner, attr,
            classmethod(traced) if isinstance(original, classmethod)
            else traced,
        )
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - child_time[span.span_id]
        return table

    def write_chrome_trace(self, path: Path, *, metadata: dict) -> int:
        """Write the spans as Chrome trace-event JSON (Perfetto-loadable);
        returns the number of events."""
        tids: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "unit": span.unit,
                },
            })
        for tid in tids.values():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": f"thread {tid}"},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        return len(events)


def _cell_label(args, kwargs) -> str:
    # Runner.run(self, app, scheme, *, label=None, measure_error=False)
    label = kwargs.get("label") or args[2].name
    return f"{args[1]}/{label}"


def instrument(tracer: Tracer) -> None:
    """Wrap every public entry point a cell or a read-back crosses."""
    from repro.analytics.warehouse import Warehouse
    from repro.approx import replay
    from repro.harness import runner as runner_mod
    from repro.harness.cache import ResultCache
    from repro.sim.report import SimReport
    from repro.sim.system import GPUSystem

    def trace_workload(args, kwargs, workload) -> None:
        # warp_streams is abstract and overridden per application, so the
        # instance gets the wrapper rather than the class.
        generate = workload.warp_streams

        def warp_streams(config):
            with tracer.span("workloads.trace"):
                streams = generate(config)
            with tracer.span(PROBE):
                tracer.count("workloads.trace_calls")
                tracer.count(
                    "workloads.trace_accesses",
                    sum(len(op.accesses) for s in streams for op in s),
                )
            return streams

        workload.warp_streams = warp_streams

    def count_events(args, kwargs, report) -> None:
        system = args[0]
        tracer.count("sim.runs")
        tracer.count("sim.events", system.engine.events_processed)
        tracer.count(
            "sim.requests", report.requests_served + report.requests_dropped
        )

    def count_drops(args, kwargs, error) -> None:
        tracer.count("approx.replays")
        tracer.count("approx.drops", len(args[1]))

    def size_stored(args, kwargs, path) -> None:
        if path is not None:
            tracer.count("report.blobs")
            tracer.count("report.blob_bytes", path.stat().st_size)

    def size_loaded(args, kwargs, report) -> None:
        cache, key = args[0], args[1]
        tracer.count("cache.lookups")
        if report is not None:
            tracer.count("cache.hits")
            tracer.count("report.blobs")
            tracer.count("report.blob_bytes", cache.path_for(key).stat().st_size)

    def count_rows(args, kwargs, rows) -> None:
        tracer.count("analytics.rows", rows)

    tracer.wrap(runner_mod.Runner, "run", "runner.run", unit=_cell_label)
    tracer.wrap(runner_mod, "cache_key", "runner.key")
    tracer.wrap(
        runner_mod, "get_workload", "workloads.build", after=trace_workload
    )
    tracer.wrap(GPUSystem, "from_spec", "sim.build")
    tracer.wrap(GPUSystem, "run", "sim.engine", after=count_events)
    tracer.wrap(
        replay, "measure_application_error", "approx.replay",
        after=count_drops,
    )
    tracer.wrap(SimReport, "to_dict", "report.encode")
    tracer.wrap(SimReport, "from_dict", "report.decode")
    tracer.wrap(ResultCache, "store", "cache.store", after=size_stored)
    tracer.wrap(ResultCache, "load", "cache.load", after=size_loaded)
    tracer.wrap(
        Warehouse, "ingest_cache", "analytics.ingest", after=count_rows
    )
