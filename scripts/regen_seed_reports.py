"""Regenerate tests/golden/seed_reports.json.

The fixture pins the ``SimReport.to_dict()`` payload of every paper
scheme on the default (GDDR5) device, in the layout reports had when
the fixture was last regenerated: besides the summary, each channel
carried its data-bus intervals with the Dyn-DMS profiler's cursor and
a per-activation log. Reports now hold results only, so
:func:`legacy_payload` rebuilds that layout from the summary plus the
live system of the same run. ``tests/test_differential_refactor.py``
asserts that the current simulator reproduces these payloads
field-identically.

Run from the repo root::

    PYTHONPATH=src python scripts/regen_seed_reports.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.approx.replay import measure_application_error

from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.dram.commands import DRAMCommand
from repro.dram.request import reset_request_ids
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem
from repro.workloads.registry import get_workload

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden"
OUT_PATH = OUT / "seed_reports.json"

#: Fixture cell parameters — small enough to simulate each scheme in ~1 s,
#: busy enough to exercise the dynamic profiling state machines.
FIXTURE = {"workload": "synthetic", "scale": 0.25, "seed": 11}

_WINDOW = 512
_PHASE = 8
_WARMUP = 16


def scheme_set() -> dict[str, SchedulerConfig]:
    """The pinned scheme set, keyed by registry-style scheme ids."""
    dyn_dms = DMSConfig(
        mode=DMSMode.DYNAMIC, window_cycles=_WINDOW, windows_per_phase=_PHASE
    )
    static_dms = DMSConfig(
        mode=DMSMode.STATIC, window_cycles=_WINDOW, windows_per_phase=_PHASE
    )
    dyn_ams = AMSConfig(
        mode=AMSMode.DYNAMIC, window_cycles=_WINDOW, warmup_fills=_WARMUP
    )
    static_ams = AMSConfig(
        mode=AMSMode.STATIC, window_cycles=_WINDOW, warmup_fills=_WARMUP
    )
    return {
        "frfcfs": SchedulerConfig(),
        "fcfs": SchedulerConfig(arbiter="fcfs"),
        "static-dms": SchedulerConfig(dms=static_dms),
        "dyn-dms": SchedulerConfig(dms=dyn_dms),
        "static-ams": SchedulerConfig(ams=static_ams),
        "dyn-ams": SchedulerConfig(ams=dyn_ams),
        "static-dms+static-ams": SchedulerConfig(
            dms=static_dms, ams=static_ams
        ),
        "dyn-dms+dyn-ams": SchedulerConfig(dms=dyn_dms, ams=dyn_ams),
    }


def simulate(
    scheme: SchedulerConfig, spec: SimSpec = SimSpec()
) -> tuple[SimReport, GPUSystem]:
    """Simulate the fixture cell as ``Runner.run`` does, keeping the
    live system (built with command logs) next to the report."""
    spec = replace(
        spec, scheduler=scheme,
        measure_error=scheme.ams.mode is not AMSMode.OFF,
    )
    reset_request_ids()
    workload = get_workload(
        FIXTURE["workload"], scale=FIXTURE["scale"], seed=FIXTURE["seed"]
    )
    system = GPUSystem.from_spec(spec, log_commands=True)
    report = system.run(
        workload.warp_streams(system.config), workload_name=workload.name
    )
    if spec.measure_error:
        report.application_error = measure_application_error(
            workload, report.drops, config=system.config
        )
    return report, system


def activation_log(commands) -> list[dict]:
    """One channel's activations, replayed from its command log, in the
    order ``ChannelStats`` closes them: at the bank's next PRE or ACT,
    else at the end of the run, oldest open row first."""
    open_rows: dict[int, dict] = {}
    closed: list[dict] = []
    for cmd in commands:
        if cmd.command in (DRAMCommand.ACTIVATE, DRAMCommand.PRECHARGE):
            rec = open_rows.pop(cmd.bank, None)
            if rec is not None:
                closed.append(rec)
            if cmd.command is DRAMCommand.ACTIVATE:
                open_rows[cmd.bank] = {
                    "bank": cmd.bank, "row": cmd.row, "open_time": cmd.time,
                    "rbl": 0, "reads": 0, "writes": 0,
                }
        elif cmd.command in (DRAMCommand.READ, DRAMCommand.WRITE):
            rec = open_rows[cmd.bank]
            rec["rbl"] += 1
            rec["writes" if cmd.command is DRAMCommand.WRITE else "reads"] += 1
    closed.extend(open_rows.values())
    return closed


def legacy_payload(
    scheme: SchedulerConfig, spec: SimSpec = SimSpec()
) -> dict:
    """The fixture layout of one run of the fixture cell.

    Each channel entry of the summary ``to_dict()`` gets back what
    reports used to carry: the bus intervals and profiler cursor (from
    ``Channel.bus``, with the busy total), the activation log, the
    always-on recording flag and the open-row table (empty once the run
    has finalized). The read-only RBL histogram, which the layout
    predates, is dropped.
    """
    report, system = simulate(scheme, spec)
    payload = report.to_dict()
    for entry, channel in zip(payload["channel_stats"], system.channels):
        bus = channel.bus
        del entry["read_only_rbl_histogram"]
        entry["bus"] = {
            "total_busy": entry.pop("bus_busy"),
            "cursor": bus._cursor,
            "cursor_idx": bus._cursor_idx,
            "intervals": [list(iv) for iv in bus._intervals],
        }
        entry["activation_log"] = activation_log(channel.command_log)
        entry["record_activations"] = True
        entry["open"] = {}
    return payload


def main() -> None:
    reports = {}
    for scheme_id, scheme in scheme_set().items():
        payload = legacy_payload(scheme)
        reports[scheme_id] = payload
        channels = payload["channel_stats"]
        print(
            f"  {scheme_id}: acts={sum(c['activations'] for c in channels)} "
            f"drops={sum(c['requests_dropped'] for c in channels)}"
        )
    OUT.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(
        json.dumps(
            {"fixture": FIXTURE, "reports": reports},
            indent=1, sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
