"""Ablation — design choices DESIGN.md calls out.

1. DMS gating granularity: the per-bank oldest-request gate against a
   plain FR-FCFS (delay 0) shows where the row-merging headroom is.
2. AMS warm-up: without L2 warm-up the first drops have no donor lines.
"""

from repro.config import (
    AMSConfig,
    AMSMode,
    SchedulerConfig,
    baseline_scheduler,
    static_dms,
)
from repro.harness.tables import format_table
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import get_workload

APP = "SCP"


def run_matrix(scale: float) -> dict[str, object]:
    base = simulate_spec(
        get_workload(APP, scale=scale),
        SimSpec(scheduler=baseline_scheduler()),
    )
    dms = simulate_spec(
        get_workload(APP, scale=scale),
        SimSpec(scheduler=static_dms(512)),
    )
    drops_by_warmup = {}
    for warmup in (0, 256, 2048):
        sched = SchedulerConfig(
            ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=8,
                          coverage_limit=0.10, warmup_fills=warmup)
        )
        r = simulate_spec(
            get_workload(APP, scale=scale),
            SimSpec(scheduler=sched),
        )
        with_donor = sum(
            1 for d in r.drops if d.donor_line_addr is not None
        )
        drops_by_warmup[warmup] = (len(r.drops), with_donor)
    return {"base": base, "dms": dms, "warmup": drops_by_warmup}


def test_queue_and_warmup_ablation(runner, benchmark):
    out = benchmark.pedantic(lambda: run_matrix(runner.scale),
                             rounds=1, iterations=1)
    base, dms = out["base"], out["dms"]
    rows = [
        ["baseline", base.activations, f"{base.avg_rbl:.2f}"],
        ["DMS(512)", dms.activations, f"{dms.avg_rbl:.2f}"],
    ]
    print()
    print(format_table(["scheme", "activations", "avg RBL"], rows,
                       title="DMS gate ablation"))
    warm_rows = [
        [w, n, d] for w, (n, d) in out["warmup"].items()
    ]
    print(format_table(["warmup fills", "drops", "with donor"], warm_rows,
                       title="AMS warm-up ablation"))
    assert dms.activations < base.activations
    assert dms.avg_rbl > base.avg_rbl
    # Warm-up can only reduce the number of donor-less drops.
    frac = {
        w: (d / n if n else 1.0) for w, (n, d) in out["warmup"].items()
    }
    assert frac[2048] >= frac[0] - 0.02
