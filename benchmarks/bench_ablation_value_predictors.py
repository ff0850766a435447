"""Ablation — value-predictor choice vs application error.

DESIGN.md calls out the VP unit as swappable (Section IV-D supports
"a large variety of previously proposed value prediction mechanisms").
This ablation compares the paper's nearest-line predictor against
last-value, zero, and an exact oracle at the same coverage.
"""

from repro.config import AMSConfig, AMSMode, SchedulerConfig, VPConfig
from repro.harness.tables import format_table
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import get_workload

APP = "meanfilter"  # smooth data: predictor quality is clearly visible


def scheme(kind: str) -> SchedulerConfig:
    return SchedulerConfig(
        ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=8,
                      coverage_limit=0.10, warmup_fills=64),
        vp=VPConfig(kind=kind),
    )


def run_all(scale: float) -> dict[str, float]:
    errors = {}
    for kind in ("oracle", "nearest_line", "last_value", "zero"):
        wl = get_workload(APP, scale=scale)
        report = simulate_spec(
            wl,
            SimSpec(scheduler=scheme(kind), measure_error=True),
        )
        errors[kind] = report.application_error or 0.0
    return errors


def test_value_predictor_ablation(runner, benchmark):
    errors = benchmark.pedantic(
        lambda: run_all(runner.scale), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["predictor", "application error"],
            [[k, v] for k, v in errors.items()],
            title=f"VP ablation on {APP} (10 % coverage)",
        )
    )
    # The oracle is exact; the paper's nearest-line predictor beats
    # blind zero prediction on smooth data.
    assert errors["oracle"] == 0.0
    assert errors["nearest_line"] <= errors["zero"]
