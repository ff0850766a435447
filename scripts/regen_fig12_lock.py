"""Regenerate tests/golden/fig12_lock.json.

The fixture pins every cell of the Fig. 12 matrix — the error-tolerant
applications (``TOLERANT_APPS``) under Baseline, Dyn-DMS and
Dyn-DMS+Dyn-AMS — by two numbers:

* the SHA-256 of the report's canonical JSON (``SimReport.to_dict()``
  with sorted keys);
* the number of events the engine processed.

``tests/test_fig12_lock.py`` asserts the current simulator reproduces
both for every cell, so a hot-path change that reorders events or moves
a single float bit in any application's report fails there. The seed
fixture suite (``seed_reports.json``) pins only the ``synthetic``
workload.

Scale 0.1 is the smallest scale, and seed 8 the smallest seed at it,
at which the lock catches the incremental re-select hazard of DESIGN.md
§5: a ``submit`` that folds only the new request's bank against the
memoized candidate changes all three LPS reports (scale 0.05 misses it
for seeds 1-12). The 33 cells simulate in ~2 s.

Run from the repo root::

    PYTHONPATH=src python scripts/regen_fig12_lock.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.dram.request import reset_request_ids
from repro.harness.experiments import TOLERANT_APPS
from repro.harness.schemes import evaluation_schemes
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem
from repro.workloads.registry import get_workload

OUT_PATH = (
    Path(__file__).resolve().parent.parent / "tests" / "golden"
    / "fig12_lock.json"
)

#: Fixture parameters (see the module docstring for the scale's choice).
FIXTURE = {"scale": 0.1, "seed": 8}

#: The Fig. 12 scheme labels, in matrix order.
SCHEMES = ("Baseline", "Dyn-DMS", "Dyn-DMS+Dyn-AMS")


def report_digest(report) -> str:
    """SHA-256 of the report's canonical JSON text."""
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def simulate_row(app: str) -> dict[str, dict]:
    """``{scheme label: {"sha256", "events"}}`` for one matrix row.

    The row's cells share one workload and one trace, as they do in
    the runner; request ids restart per cell.
    """
    schemes = evaluation_schemes()
    workload = get_workload(
        app, scale=FIXTURE["scale"], seed=FIXTURE["seed"]
    )
    row = {}
    for label in SCHEMES:
        reset_request_ids()
        system = GPUSystem.from_spec(SimSpec(scheduler=schemes[label]))
        report = system.run(
            workload.streams(system.config), workload_name=workload.name
        )
        row[label] = {
            "sha256": report_digest(report),
            "events": system.engine.events_processed,
        }
    return row


def main() -> None:
    cells = {app: simulate_row(app) for app in TOLERANT_APPS}
    doc = {"fixture": FIXTURE, "cells": cells}
    OUT_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUT_PATH} ({len(cells) * len(SCHEMES)} cells)")


if __name__ == "__main__":
    main()
