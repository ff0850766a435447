"""The benchmark's three workloads, driven through public entry points only.

* ``fig12-cold`` — the Fig. 12 matrix (11 error-tolerant apps x Baseline,
  Dyn-DMS, Dyn-DMS+Dyn-AMS) run serially through ``Runner.run`` from an
  empty disk cache, so every cell phase runs once.
* ``warm-readback`` — every app under Baseline and Dyn-DMS+Dyn-AMS is
  simulated into a disk cache during set-up; each pass then reads the
  cells back through a fresh ``Runner`` and ingests the cache into a
  fresh warehouse. Nothing simulates while measuring.
* ``service-mix`` — ``repro-harness serve --workers 1`` in its own
  process; two closed-loop client connections re-submit pre-warmed
  cells (cache hits with full reports) and, one request in
  :data:`COLD_EVERY`, a never-seen seed of a short app.

Every workload checks its outputs: read-back cells and service hits must
equal, field for field, the report simulated for that key earlier in the
same run, and every cold cell must have processed engine events.

Timed intervals are recorded as ``(start, end)`` pairs and scaled to the
reference host with the sensitivity that fits their kind of work
(:mod:`hostspeed`). Both the scaled and the raw figures are printed; the
driver sees the scaled ones.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Optional

import numpy as np

from hostspeed import MULTI_PROCESS, SINGLE_THREAD, HostSpeed
from tracing import PROBE, Tracer, instrument

#: Workload scale of every cell (a drift detector, not the calibrated 1.0).
SCALE = 0.5
FIG12_SCHEMES = ("Baseline", "Dyn-DMS", "Dyn-DMS+Dyn-AMS")
#: The drop-carrying scheme the model metrics and the read-back keep.
DROP_SCHEME = "Dyn-DMS+Dyn-AMS"
WARM_SCHEMES = ("Baseline", DROP_SCHEME)
#: Client connections of the service-mix closed loop (the box has 2 cores).
CLIENTS = 2
#: One request in COLD_EVERY is a cold job; the rest are cache hits. With
#: 1 in 16 the 90th percentile of all requests stays inside the hit tail
#: instead of straddling the hit/cold boundary, as 1 in 10 would.
COLD_EVERY = 16
COLD_APP = "laplacian"
#: Cold-job seeds start here, far from any --seed, so no cache entry or
#: in-flight job can serve them.
COLD_SEED_BASE = 1_000_000
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import repro.harness.runner, repro.harness.experiments, "
    "repro.approx.replay, repro.analytics.warehouse, "
    "repro.service.client\n"
    "from repro.workloads.registry import list_workloads\n"
    "list_workloads()\n"
)

Interval = tuple[float, float]


class Run:
    """State of one benchmark invocation: counters, samples, metrics."""

    def __init__(
        self, *, root: Path, work: Path, seed: int, scale: float,
        seconds: float, trace: bool,
    ) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        #: name -> (scaled value, raw value, unit, sample count)
        self.metrics: dict[str, tuple[float, float, str, int]] = {}
        #: Per-layer values the tracer cannot see (service job timings).
        self.layer_extra: dict[str, float] = {}
        #: Normalized seconds and units of work of the traced and the
        #: untraced segments of a traced invocation (tracing overhead).
        self.segment_s = {"traced": [0.0, 0], "untraced": [0.0, 0]}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            self.errors.append(what)

    def mismatch(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            self.mismatches.append(what)

    def put(self, name: str, value: float, unit: str, n: int,
            raw: Optional[float] = None) -> None:
        self.metrics[name] = (
            float(value), float(value if raw is None else raw), unit, int(n)
        )

    def seconds_of(
        self, intervals: list[Interval], sensitivity: float = SINGLE_THREAD
    ) -> tuple[list, list]:
        """(scaled, raw) durations of the intervals, in seconds."""
        raw = [b - a for a, b in intervals]
        scaled = [self.host.scaled(a, b, sensitivity) for a, b in intervals]
        return scaled, raw

    def put_rate(self, name: str, count: int, intervals: list[Interval],
                 unit: str = "1/s",
                 sensitivity: float = SINGLE_THREAD) -> None:
        scaled, raw = self.seconds_of(intervals, sensitivity)
        self.put(name, count / sum(scaled), unit, len(intervals),
                 raw=count / sum(raw))

    def put_latency(self, prefix: str, intervals: list[Interval],
                    qs=(50, 90), sensitivity: float = SINGLE_THREAD) -> None:
        scaled, raw = self.seconds_of(intervals, sensitivity)
        for q in qs:
            self.put(
                f"{prefix}_ms_p{q}", 1000 * _percentile(scaled, q), "ms",
                len(intervals), raw=1000 * _percentile(raw, q),
            )

    def segment(self, traced: bool, intervals: list[Interval],
                sensitivity: float = SINGLE_THREAD) -> None:
        slot = self.segment_s["traced" if traced else "untraced"]
        seconds = sum(self.seconds_of(intervals, sensitivity)[0])
        with self._lock:
            slot[0] += seconds
            slot[1] += len(intervals)

    @contextmanager
    def traced(self, on: bool):
        """Instrument the program for the body when ``on``."""
        if not on:
            yield
            return
        instrument(self.tracer)
        try:
            yield
        finally:
            self.tracer.restore()

    # ------------------------------------------------------------------
    def import_setup(self) -> Interval:
        """A fresh interpreter importing the stack, timed
        :data:`IMPORT_REPEATS` times; returns the median interval."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        intervals = []
        self.host.probe()
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], cwd=self.root,
                env=env, check=True, timeout=120,
            )
            intervals.append((start, time.perf_counter()))
            self.host.probe()
        intervals.sort(key=lambda i: self.host.scaled(*i, SINGLE_THREAD))
        return intervals[IMPORT_REPEATS // 2]

    def put_common(self, setup: list[Interval]) -> None:
        """``setup``: process start-up and cache-fill intervals."""
        scaled, raw = self.seconds_of(setup)
        self.put("setup_s", sum(scaled), "s", len(scaled), raw=sum(raw))
        attempted = max(self.attempted, 1)
        self.put("ok_ratio", (attempted - self.failed) / attempted,
                 "ratio", attempted)
        self.put("fail_ratio", self.failed / attempted, "failed/attempted",
                 attempted)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.put("peak_rss_mb", (own + child) / 1024.0, "MB", 1)
        self.put("host.kernel_ms",
                 1000 * statistics.median(self.host.kernel_s), "ms",
                 len(self.host.kernel_s))

    def put_model(self, reports: dict, apps) -> None:
        """The Fig. 12 model metrics from (app, scheme) -> SimReport."""
        energy, ipc, error = [], [], []
        for app in apps:
            base = reports[(app, "Baseline")]
            combo = reports[(app, DROP_SCHEME)]
            energy.append(combo.normalized_row_energy(base))
            ipc.append(combo.normalized_ipc(base))
            error.append(combo.application_error or 0.0)
        n = len(energy)
        self.put("model.row_energy_norm", statistics.geometric_mean(energy),
                 "x", n)
        self.put("model.ipc_norm", statistics.geometric_mean(ipc), "x", n)
        self.put("model.app_error", statistics.fmean(error), "fraction", n)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def encoded(report) -> str:
    """A report's JSON text; two reports are equal field for field exactly
    when these are equal. References are kept in this form because a
    string is invisible to the cyclic garbage collector: holding the
    reports themselves would make every collection inside the measured
    program walk the benchmark's references too."""
    return json.dumps(report.to_dict())


@contextmanager
def engine_events(sink: list):
    """Append each ``GPUSystem.run``'s processed event count to ``sink``.

    The output check needs it in untraced runs too: one list append per
    simulated cell, no timing.
    """
    from repro.sim.system import GPUSystem

    original = vars(GPUSystem)["run"]

    def run(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        sink.append(self.engine.events_processed)
        return report

    GPUSystem.run = run
    try:
        yield sink
    finally:
        GPUSystem.run = original


def _runner(run: Run, cache_dir: Path):
    from repro.harness.cache import ResultCache
    from repro.harness.runner import Runner

    return Runner(
        scale=run.scale, seed=run.seed, verbose=False,
        cache=ResultCache(cache_dir, enabled=True), faults=None,
    )


def _fill(run: Run, cache_dir: Path, cells, measure_error):
    """Simulate ``cells`` into ``cache_dir``; returns the encoded
    reference reports, the reports themselves and the timed intervals
    (one per cell, with a calibration probe between cells)."""
    from repro.harness.schemes import evaluation_schemes

    schemes = evaluation_schemes()
    runner = _runner(run, cache_dir)
    reports, intervals = {}, []
    run.host.probe()
    for app, label in cells:
        start = time.perf_counter()
        reports[(app, label)] = runner.run(
            app, schemes[label], label=label,
            measure_error=measure_error(label),
        )
        intervals.append((start, time.perf_counter()))
        run.host.probe()
    refs = {cell: encoded(report) for cell, report in reports.items()}
    return refs, reports, intervals


# ----------------------------------------------------------------------
# fig12-cold
# ----------------------------------------------------------------------
def fig12_cold(run: Run) -> None:
    from repro.harness.experiments import TOLERANT_APPS
    from repro.harness.schemes import evaluation_schemes

    startup = [run.import_setup()]
    schemes = evaluation_schemes()
    cells = [(a, s) for a in TOLERANT_APPS for s in FIG12_SCHEMES]
    samples: list[Interval] = []
    first: Optional[dict] = None
    start = time.perf_counter()
    index = 0
    while True:
        # The traced invocation runs one untraced pass, then one traced.
        traced = run.tracer is not None and index == 1
        runner = _runner(run, run.work / f"cold-{index}")
        reports, events, intervals = {}, [], []
        run.host.probe()
        with engine_events(events), run.traced(traced):
            for app, label in cells:
                run.attempt()
                before = len(events)
                t0 = time.perf_counter()
                try:
                    report = runner.run(
                        app, schemes[label], label=label, measure_error=True
                    )
                except Exception as exc:  # a quarantined cell
                    run.fail(f"{app}/{label}: {exc!r}")
                    continue
                finally:
                    t1 = time.perf_counter()
                    run.host.probe()
                intervals.append((t0, t1))
                reports[(app, label)] = report
                if len(events) == before or events[-1] <= 0:
                    run.mismatch(f"{app}/{label}: no engine events processed")
        run.segment(traced, intervals)
        if not traced:
            samples.extend(intervals)
        if runner.simulations_run != len(reports):
            run.mismatch(
                f"pass {index}: {runner.simulations_run} simulations for "
                f"{len(reports)} cells (a cold pass must simulate each)"
            )
        texts = {cell: encoded(report) for cell, report in reports.items()}
        if first is None:
            first = texts
            if len(reports) == len(cells):
                run.put_model(reports, TOLERANT_APPS)
        else:
            for cell, text in texts.items():
                if first.get(cell) != text:
                    run.mismatch(f"{cell}: pass {index} differs from pass 0")
        del reports, runner
        shutil.rmtree(run.work / f"cold-{index}", ignore_errors=True)
        index += 1
        elapsed = time.perf_counter() - start
        if run.tracer is not None:
            if index == 2:
                break
        elif elapsed * (index + 1) / index > run.seconds:
            break  # another pass would overrun the measuring time
    run.put_rate("cells_per_s", len(samples), samples)
    run.put_latency("cell", samples)
    run.put_common(startup)


# ----------------------------------------------------------------------
# warm-readback
# ----------------------------------------------------------------------
def warm_readback(run: Run) -> None:
    from repro.analytics.warehouse import Warehouse
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import TOLERANT_APPS
    from repro.harness.schemes import evaluation_schemes

    startup = [run.import_setup()]
    schemes = evaluation_schemes()
    cells = [(a, s) for a in TOLERANT_APPS for s in WARM_SCHEMES]
    cache_dir = run.work / "warm-cache"
    refs, reports, fill = _fill(run, cache_dir, cells, lambda label: True)
    del reports

    cell_samples: list[Interval] = []
    ingest_samples: list[Interval] = []
    rows_total = 0
    deadline = time.monotonic() + run.seconds
    min_passes = 2 if run.tracer is not None else 1
    index = 0
    while index < min_passes or time.monotonic() < deadline:
        # Traced invocations alternate untraced and traced passes.
        traced = run.tracer is not None and index % 2 == 1
        # Each pass starts from a collected heap, as a fresh reader would.
        gc.collect()
        runner = _runner(run, cache_dir)
        reports, intervals = {}, []
        with run.traced(traced):
            for app, label in cells:
                run.attempt()
                t0 = time.perf_counter()
                try:
                    reports[(app, label)] = runner.run(
                        app, schemes[label], label=label, measure_error=True
                    )
                except Exception as exc:
                    run.fail(f"{app}/{label}: {exc!r}")
                    continue
                intervals.append((t0, time.perf_counter()))
            if runner.simulations_run:
                run.mismatch(
                    f"pass {index}: {runner.simulations_run} cell(s) "
                    "simulated instead of read back"
                )
            run.host.probe()
            path = run.work / f"warehouse-{index}.sqlite"
            run.attempt()
            t0 = time.perf_counter()
            with Warehouse(path) as warehouse:
                rows = warehouse.ingest_cache(ResultCache(cache_dir))
            ingest = (t0, time.perf_counter())
            path.unlink()
            run.host.probe()
        if rows != len(cells):
            run.mismatch(f"ingest wrote {rows} rows for {len(cells)} blobs")
        for cell, report in reports.items():
            if encoded(report) != refs[cell]:
                run.mismatch(f"{cell}: read-back report differs")
        if index == 0 and len(reports) == len(cells):
            run.put_model(reports, TOLERANT_APPS)
        del reports, runner
        run.segment(traced, intervals + [ingest])
        if not traced:
            cell_samples.extend(intervals)
            ingest_samples.append(ingest)
            rows_total += rows
        index += 1
    run.put_rate("cells_per_s", len(cell_samples), cell_samples)
    run.put_latency("cell", cell_samples)
    run.put_rate("ingest_rows_per_s", rows_total, ingest_samples, "rows/s")
    run.put_common(startup + fill)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
class Daemon:
    """``repro-harness serve`` as a child process in its own session."""

    def __init__(self, run: Run, cache_dir: Path) -> None:
        self.log_path = run.work / "daemon.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        cmd = [
            sys.executable, "-m", "repro.harness.cli", "serve",
            "--workers", "1", "--port", "0",
            "--cache-dir", str(cache_dir),
            "--journal", str(run.work / "journal.jsonl"),
            "--warehouse", str(run.work / "service-warehouse.sqlite"),
        ]
        env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=run.work, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log, start_new_session=True,
        )
        self.port = self._wait_port(timeout=120.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"serving on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            found = pattern.search(self.log_path.read_text(encoding="utf-8"))
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop(None)
        raise RuntimeError(
            "service daemon did not start: "
            + self.log_path.read_text(encoding="utf-8")[-2000:]
        )

    def stop(self, client) -> None:
        """Drain and stop; escalate to signals on the whole session."""
        try:
            if self.proc.poll() is None and client is not None:
                client.shutdown(drain=True)
            self.proc.wait(timeout=60)
        except Exception:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.proc.wait(timeout=10)
                    break
                except subprocess.TimeoutExpired:
                    continue
        finally:
            self._log.close()


def service_mix(run: Run) -> None:
    from repro.errors import ReproError, ServiceError
    from repro.harness.experiments import TOLERANT_APPS
    from repro.harness.schemes import evaluation_schemes
    from repro.service.client import ServiceClient
    from repro.sim.report import SimReport
    from repro.sim.spec import SimSpec

    startup = [run.import_setup()]
    schemes = evaluation_schemes()
    cells = [(a, s) for a in TOLERANT_APPS for s in WARM_SCHEMES]
    cache_dir = run.work / "service-cache"

    def measures_error(label: str) -> bool:
        # The service drops measure_error for AMS-off specs when keying a
        # job, so the Baseline hit cells are filled without it.
        return label != "Baseline"

    refs, reports, fill = _fill(run, cache_dir, cells, measures_error)
    # Every hit must match its reference, so the served reports carry
    # exactly these model figures.
    run.put_model(reports, TOLERANT_APPS)
    del reports
    hit_bytes = {cell: len(text) for cell, text in refs.items()}
    spec_docs = {
        (app, label): SimSpec(
            scheduler=schemes[label], measure_error=measures_error(label)
        ).to_dict()
        for app, label in cells
    }
    cold_doc = SimSpec(scheduler=schemes["Baseline"]).to_dict()
    cold_seeds = iter(range(COLD_SEED_BASE + run.seed * 100_000,
                            COLD_SEED_BASE + (run.seed + 1) * 100_000))
    lock = threading.Lock()
    tracer = run.tracer
    span = tracer.span if tracer is not None else (lambda *a: nullcontext())
    if tracer is not None:
        # Only the client threads' requests are traced, not set-up.
        tracer.active = False

    def cold_job(client) -> tuple[Interval, dict]:
        """Submit a never-seen seed; wait on the SSE stream for done."""
        with lock:
            seed = next(cold_seeds)
        t0 = time.perf_counter()
        with span("service.submit"):
            job = client.submit(
                COLD_APP, spec=cold_doc, scale=run.scale, seed=seed
            )
        if job.get("outcome") != "queued":
            run.mismatch(f"cold job answered {job.get('outcome')!r}")
        state = None
        with span("service.wait"):
            for event, _data in client.events(job["id"], timeout=120.0):
                if event in ("done", "failed", "cancelled"):
                    state = event
                    break
        seen = time.time()
        interval = (t0, time.perf_counter())
        with span("service.fetch"):
            doc = client.job(job["id"])
        if state != "done" or doc.get("state") != "done":
            raise ServiceError(f"cold job ended {doc.get('state')!r}")
        report = SimReport.from_dict(doc["result"])
        if report.total_instructions <= 0 or report.requests_served <= 0:
            run.mismatch(f"cold job {job['id']}: empty report")
        doc["seen_at"] = seen
        return interval, doc

    t0 = time.perf_counter()
    daemon = Daemon(run, cache_dir)
    client = ServiceClient(port=daemon.port, timeout=120.0)
    hits: list[Interval] = []
    colds: list[Interval] = []
    cold_docs: list[dict] = []
    served: set = set()
    stats: dict = {}
    try:
        client.healthz()
        # Warm the tier worker's imports with one cold job.
        cold_job(client)
        startup.append((t0, time.perf_counter()))
        run.host.probe()

        order = list(cells)
        random.Random(run.seed).shuffle(order)
        deadline = time.monotonic() + run.seconds
        window = [time.perf_counter(), 0.0]

        def loop(slot: int) -> None:
            conn = ServiceClient(
                port=daemon.port, timeout=120.0,
                rng=random.Random(run.seed * 7919 + slot),
            )
            share = len(order) // CLIENTS
            k = n_hits = 0
            # Each client must cover its share of the hit set once.
            while time.monotonic() < deadline or n_hits < share:
                # Traced invocations trace every other request.
                traced = tracer is not None and k % 2 == 1
                if tracer is not None:
                    tracer.active = traced
                cold = k % COLD_EVERY == COLD_EVERY - 1
                k += 1
                run.attempt()
                try:
                    if cold:
                        with span("service.cold"):
                            interval, doc = cold_job(conn)
                        colds.append(interval)
                        cold_docs.append(doc)
                        continue
                    cell = order[(slot * share + n_hits) % len(order)]
                    n_hits += 1
                    t0 = time.perf_counter()
                    with span("service.hit", f"{cell[0]}/{cell[1]}"):
                        job = conn.submit(
                            cell[0], spec=spec_docs[cell],
                            scale=run.scale, seed=run.seed,
                        )
                    interval = (t0, time.perf_counter())
                    hits.append(interval)
                    run.segment(traced, [interval], MULTI_PROCESS)
                    if job.get("outcome") != "cached":
                        run.mismatch(
                            f"{cell}: hit answered {job.get('outcome')!r}"
                        )
                    elif json.dumps(job.get("result")) != refs[cell]:
                        run.mismatch(f"{cell}: served report differs")
                    else:
                        served.add(cell)
                    if tracer is not None:
                        with tracer.span(PROBE):
                            tracer.count("service.hits")
                            tracer.count("service.hit_bytes", hit_bytes[cell])
                except (ReproError, OSError, http.client.HTTPException) as exc:
                    # Refusals (429/503), failed jobs and dropped
                    # connections count as failures; the loop goes on.
                    run.fail(f"{'cold' if cold else 'hit'}: {exc!r}")
                finally:
                    with lock:
                        window[1] = max(window[1], time.perf_counter())

        threads = [
            threading.Thread(target=loop, args=(slot,), name=f"client-{slot}")
            for slot in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=run.seconds + 150.0)
            if thread.is_alive():
                raise RuntimeError("service clients did not finish")
        stats = client.stats()
    finally:
        daemon.stop(client)

    jobs = len(hits) + len(colds)
    for name in ("cells_per_s", "jobs_per_s"):
        run.put_rate(name, jobs, [tuple(window)], sensitivity=MULTI_PROCESS)
    run.put_latency("cell", hits + colds, sensitivity=MULTI_PROCESS)
    run.put_latency("hit", hits, sensitivity=MULTI_PROCESS)
    run.put_latency("cold", colds, qs=(50,), sensitivity=MULTI_PROCESS)
    if len(served) != len(cells):
        run.mismatch(f"{len(cells) - len(served)} hit cell(s) never served")

    def job_ms(a: str, b: str) -> float:
        values = [
            (d[b] - d[a]) * 1000.0 for d in cold_docs
            if d.get(a) is not None and d.get(b) is not None
        ]
        return statistics.median(values) if values else 0.0

    counters = stats.get("service", {}).get("counters", {})
    run.layer_extra.update({
        "service.queue_wait_ms": job_ms("submitted_at", "started_at"),
        "service.exec_ms": job_ms("started_at", "finished_at"),
        "service.notify_ms": job_ms("finished_at", "seen_at"),
        "service.shed": counters.get("service.jobs.shed", 0.0),
        "service.respawns": float(
            (stats.get("tier") or {}).get("respawns", 0)
        ),
    })
    run.put_common(startup + fill)


WORKLOADS = {
    "fig12-cold": fig12_cold,
    "warm-readback": warm_readback,
    "service-mix": service_mix,
}


# ----------------------------------------------------------------------
# Per-layer metrics from the traced segment
# ----------------------------------------------------------------------
#: Per-layer metrics that are single-thread times, scaled to the reference
#: host like the end-to-end ones (service job timings stay raw).
_LAYER_TIMES = (
    "workloads.build_ms", "workloads.trace_ms", "sim.build_ms",
    "sim.engine_ms", "sim.engine_us_per_event", "approx.replay_ms",
    "report.encode_ms", "report.decode_ms", "cache.store_ms",
    "cache.load_ms", "runner.self_ms", "runner.key_ms",
    "analytics.ingest_ms_per_row",
)


def layer_metrics(run: Run) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never crossed is 0."""
    table = run.tracer.self_times()
    counts = run.tracer.counts

    def per_call_ms(name: str) -> float:
        row = table.get(name)
        return 1000.0 * row["self_s"] / row["calls"] if row else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    engine_s = table.get("sim.engine", {}).get("self_s", 0.0)
    ingest_s = table.get("analytics.ingest", {}).get("total_s", 0.0)
    traced, untraced = run.segment_s["traced"], run.segment_s["untraced"]
    overhead = 0.0
    if traced[1] and untraced[1] and untraced[0]:
        overhead = 100.0 * (
            (traced[0] / traced[1]) / (untraced[0] / untraced[1]) - 1.0
        )
    metrics = {
        "workloads.build_ms": per_call_ms("workloads.build"),
        "workloads.trace_ms": per_call_ms("workloads.trace"),
        "workloads.trace_accesses": ratio(
            counts["workloads.trace_accesses"], counts["workloads.trace_calls"]
        ),
        "sim.build_ms": per_call_ms("sim.build"),
        "sim.engine_ms": per_call_ms("sim.engine"),
        "sim.events": ratio(counts["sim.events"], counts["sim.runs"]),
        "sim.events_per_request": ratio(
            counts["sim.events"], counts["sim.requests"]
        ),
        "sim.engine_us_per_event": 1e6 * ratio(engine_s, counts["sim.events"]),
        "approx.replay_ms": per_call_ms("approx.replay"),
        "approx.drops": ratio(counts["approx.drops"], counts["approx.replays"]),
        "report.encode_ms": per_call_ms("report.encode"),
        "report.decode_ms": per_call_ms("report.decode"),
        "report.blob_kb": ratio(
            counts["report.blob_bytes"], counts["report.blobs"]
        ) / 1000.0,
        "cache.store_ms": per_call_ms("cache.store"),
        "cache.load_ms": per_call_ms("cache.load"),
        "cache.hit_ratio": ratio(counts["cache.hits"], counts["cache.lookups"]),
        "cache.lookups": counts["cache.lookups"],
        "runner.self_ms": per_call_ms("runner.run"),
        "runner.key_ms": per_call_ms("runner.key"),
        "analytics.ingest_ms_per_row": 1000.0 * ratio(
            ingest_s, counts["analytics.rows"]
        ),
        "service.queue_wait_ms": 0.0,
        "service.exec_ms": 0.0,
        "service.notify_ms": 0.0,
        "service.hit_bytes": ratio(
            counts["service.hit_bytes"], counts["service.hits"]
        ),
        "service.shed": 0.0,
        "service.respawns": 0.0,
        "trace.overhead_pct": overhead,
    }
    metrics.update(run.layer_extra)
    factor = run.host.factor()
    for name in _LAYER_TIMES:
        metrics[name] *= factor
    return metrics
