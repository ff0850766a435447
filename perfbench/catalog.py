"""What each metric means and which end-to-end number it should move.

``BENCHMARK.json`` holds the name, unit, direction and bound of every
metric the driver compares, and nothing else. This file records what the
metrics measure, the paper's reference values printed beside the model
metrics, and, for every per-layer metric, the end-to-end metrics and
workloads a change to that layer is expected to move (later performance
issues cite these by name). ``test_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

#: Fig. 12 reference values for Dyn-DMS+Dyn-AMS over groups 1-3. They are
#: printed for orientation only: the model is unvalidated against
#: hardware, and the benchmark runs at scale 0.5, a drift detector, while
#: the calibrated operating point is scale 1.0.
PAPER_REFERENCE = {
    "model.row_energy_norm": "0.56x (-44 % row energy)",
    "model.ipc_norm": ">= 0.99 (< 1 % IPC loss)",
    "model.app_error": "~0.07 (7 % error)",
}

#: End-to-end metrics: what each measures, per workload. Every one is
#: emitted on every workload; the workload-only ones below are printed and
#: recorded but not compared by the driver. Times are scaled to the
#: reference host as ``hostspeed`` describes (service-mix's window: raw).
END_TO_END = {
    "setup_s": "a fresh interpreter importing the stack (median of 5), "
               "plus the cache fill (warm-readback, service-mix) and the "
               "daemon start with one warm-up job (service-mix)",
    "cells_per_s": "cells completed per second: simulated (fig12-cold), "
                   "read back (warm-readback), jobs served (service-mix)",
    "cell_ms_p50": "median latency of one cell as its caller sees it",
    "cell_ms_p90": "90th percentile of the same",
    "ok_ratio": "(attempted - failed) / attempted; failures count "
                "quarantined cells, 429/503 refusals, errors, mismatches",
    "peak_rss_mb": "peak RSS of the benchmark process plus that of its "
                   "largest child (the daemon tree on service-mix)",
    "model.row_energy_norm": "geomean over apps of Dyn-DMS+Dyn-AMS row "
                             "energy / Baseline (simulated)",
    "model.ipc_norm": "geomean over apps of Dyn-DMS+Dyn-AMS IPC / Baseline",
}

#: Workload-only metrics: printed with their sample counts and written to
#: the result record, not emitted to the driver (a driver metric must
#: exist on every workload).
WORKLOAD_ONLY = {
    "fail_ratio": ("failed/attempted", "all"),
    # Deterministic per seed, but one app dominates the mean, so it moves
    # by half its value from seed to seed: too wide for any bound.
    "model.app_error": ("fraction", "all"),
    "host.kernel_ms": ("ms", "all"),
    "jobs_per_s": ("1/s", "service-mix"),
    "hit_ms_p50": ("ms", "service-mix"),
    "hit_ms_p90": ("ms", "service-mix"),
    "cold_ms_p50": ("ms", "service-mix"),
    "ingest_rows_per_s": ("rows/s", "warm-readback"),
}

_COLD = "fig12-cold"
_WARM = "warm-readback"
_SVC = "service-mix"

#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move. A layer absent from a workload reports 0 there, which is the
#: prediction for that workload: no change.
PER_LAYER_MOVES = {
    "workloads.build_ms": [("cells_per_s", _COLD), ("cell_ms_p50", _COLD)],
    "workloads.trace_ms": [("cells_per_s", _COLD), ("cell_ms_p50", _COLD)],
    "workloads.trace_accesses": [("cells_per_s", _COLD)],
    "sim.build_ms": [("cells_per_s", _COLD)],
    "sim.engine_ms": [("cells_per_s", _COLD), ("cell_ms_p50", _COLD),
                      ("cold_ms_p50", _SVC), ("hit_ms_p90", _SVC)],
    "sim.events": [("cells_per_s", _COLD)],
    "sim.events_per_request": [("cells_per_s", _COLD)],
    "sim.engine_us_per_event": [("cells_per_s", _COLD),
                                ("cell_ms_p50", _COLD)],
    "approx.replay_ms": [("cells_per_s", _COLD)],
    "approx.drops": [("cells_per_s", _COLD)],
    "report.encode_ms": [("cells_per_s", _COLD), ("hit_ms_p50", _SVC)],
    "report.decode_ms": [("cell_ms_p50", _WARM), ("cell_ms_p90", _WARM),
                         ("hit_ms_p50", _SVC), ("hit_ms_p90", _SVC)],
    "report.blob_kb": [("cell_ms_p50", _WARM), ("cells_per_s", _SVC)],
    "cache.store_ms": [("cells_per_s", _COLD)],
    "cache.load_ms": [("cells_per_s", _WARM)],
    "cache.hit_ratio": [("cells_per_s", _WARM)],
    "cache.lookups": [("cells_per_s", _WARM)],
    "runner.self_ms": [("cell_ms_p50", _WARM)],
    "runner.key_ms": [("cell_ms_p50", _WARM)],
    "analytics.ingest_ms_per_row": [("ingest_rows_per_s", _WARM)],
    "service.queue_wait_ms": [("cold_ms_p50", _SVC), ("hit_ms_p90", _SVC)],
    "service.exec_ms": [("cold_ms_p50", _SVC)],
    "service.notify_ms": [("cold_ms_p50", _SVC)],
    "service.hit_bytes": [("hit_ms_p50", _SVC), ("cells_per_s", _SVC)],
    "service.shed": [("ok_ratio", _SVC)],
    "service.respawns": [("ok_ratio", _SVC), ("cold_ms_p50", _SVC)],
    "trace.overhead_pct": [],
}
