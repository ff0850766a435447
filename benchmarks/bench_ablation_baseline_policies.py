"""Ablation — baseline memory controller policy choices (Section II-C).

The paper's baseline is FR-FCFS with an open-row policy "commonly
employed to optimize for row buffer locality in GPUs". This ablation
quantifies that choice against plain FCFS and a close-row variant.
"""

from repro.config import SchedulerConfig, baseline_scheduler
from repro.harness.tables import format_table
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import get_workload

APP = "SCP"

POLICIES = {
    "FR-FCFS/open (paper)": baseline_scheduler(),
    "FCFS/open": SchedulerConfig(arbiter="fcfs"),
    "FR-FCFS/close": SchedulerConfig(row_policy="close"),
}


def run_all(scale: float):
    out = {}
    for label, scheme in POLICIES.items():
        r = simulate_spec(
            get_workload(APP, scale=scale),
            SimSpec(scheduler=scheme),
        )
        out[label] = r
    return out


def test_baseline_policy_ablation(runner, benchmark):
    results = benchmark.pedantic(lambda: run_all(runner.scale),
                                 rounds=1, iterations=1)
    base = results["FR-FCFS/open (paper)"]
    rows = [
        [label, r.activations, f"{r.avg_rbl:.2f}",
         f"{r.normalized_ipc(base):.2f}"]
        for label, r in results.items()
    ]
    print()
    print(format_table(
        ["policy", "activations", "avg RBL", "IPC vs paper baseline"],
        rows, title=f"Baseline policy ablation on {APP}",
    ))
    # The paper's FR-FCFS/open baseline maximises row locality.
    assert base.avg_rbl >= results["FCFS/open"].avg_rbl - 1e-9
    assert base.activations <= results["FR-FCFS/close"].activations
