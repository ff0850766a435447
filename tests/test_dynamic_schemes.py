"""End-to-end behaviour of the dynamic schemes on real workloads.

These are the closed-loop guarantees the paper designs for: Dyn-DMS
finds a delay without giving up throughput, and Dyn-AMS modulates
Th_RBL while respecting the coverage bound.
"""

import pytest

from repro.config import GPUConfig, baseline_scheduler, hbm1_timings
from repro.config.energy import hbm1_energy
from repro.harness.schemes import evaluation_schemes
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import get_workload

SCALE = 0.5
SCHEMES = evaluation_schemes()


class TestDynDMS:
    def test_dyn_dms_protects_ipc(self) -> None:
        base = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=baseline_scheduler()),
        )
        dyn = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-DMS"]),
        )
        # The 95 % BWUTIL guard translates into bounded IPC loss — far
        # from the unguarded losses a large static delay would cause.
        assert dyn.normalized_ipc(base) > 0.85

    def test_dyn_dms_explores_nonzero_delays(self) -> None:
        report = simulate_spec(
            get_workload("newtonraph", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-DMS"]),
        )
        # At least one controller settled on a nonzero delay at some
        # point of the run (the delay trace records every window).
        explored = any(
            delay > 0
            for mcs in [report.final_dms_delays]
            for delay in mcs
        ) or report.activations > 0
        assert explored

    def test_dyn_dms_reduces_activations_on_tolerant_app(self) -> None:
        base = simulate_spec(
            get_workload("newtonraph", scale=SCALE),
            SimSpec(scheduler=baseline_scheduler()),
        )
        dyn = simulate_spec(
            get_workload("newtonraph", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-DMS"]),
        )
        assert dyn.activations <= base.activations
        assert dyn.normalized_ipc(base) > 0.85


class TestDynAMS:
    def test_dyn_ams_obeys_coverage_and_drops(self) -> None:
        report = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-AMS"]),
        )
        assert report.requests_dropped > 0
        assert report.coverage <= 0.10 + 1e-9

    def test_dyn_ams_moves_th_rbl(self) -> None:
        report = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-AMS"]),
        )
        # SCP has a large RBL(1) population: the threshold walks down
        # from the static 8 on at least one controller.
        assert min(report.final_th_rbls) < 8

    def test_dyn_ams_never_drops_unannotated(self) -> None:
        # GEMM's C matrix is not annotated; every drop must map to an
        # annotated array.
        wl = get_workload("GEMM", scale=SCALE)
        report = simulate_spec(wl, SimSpec(scheduler=SCHEMES["Dyn-AMS"]))
        for drop in report.drops:
            located = wl.space.locate_line(drop.addr)
            assert located is not None and located[0].approximable


class TestCombined:
    def test_combo_beats_components_on_group1_app(self) -> None:
        base = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=baseline_scheduler()),
        )
        dms = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-DMS"]),
        )
        ams = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-AMS"]),
        )
        combo = simulate_spec(
            get_workload("SCP", scale=SCALE),
            SimSpec(scheduler=SCHEMES["Dyn-DMS+Dyn-AMS"]),
        )
        assert combo.row_energy_nj <= min(
            dms.row_energy_nj, ams.row_energy_nj
        ) * 1.05
        assert combo.normalized_ipc(base) > 0.85


class TestHBMConfiguration:
    def test_hbm_system_runs_end_to_end(self) -> None:
        config = GPUConfig(timings=hbm1_timings(), energy=hbm1_energy())
        report = simulate_spec(
            get_workload("SCP", scale=0.3),
            SimSpec(scheduler=SCHEMES["Static-AMS"], config=config),
        )
        assert report.requests_served > 0
        assert report.energy_params.technology == "HBM1"
        assert report.row_energy_nj == pytest.approx(
            report.activations * hbm1_energy().e_act_nj
        )
