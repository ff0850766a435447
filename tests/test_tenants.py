"""Multi-tenant simulation tests: fairness math properties, arbiter
registry, drop-contract enforcement, determinism, and the single-tenant
equivalence guarantee.

The acceptance invariants pinned here:

* a 3-tenant mix is deterministic — serial and ``jobs=2`` runs produce
  byte-identical reports;
* AMS drops only ever land in an ``approx-batch`` tenant's stream;
* a single-tenant ``TenantMix`` report is field-identical to the plain
  run of the same workload (full passthrough at N=1);
* per-tenant slowdowns against class-scoped solo baselines are >= 1
  under contention, and the Jain index obeys its mathematical bounds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.tenants import (
    TENANT_CLASSES,
    TenantMixSpec,
    TenantSpec,
    tenant_class_for_priority,
)
from repro.dram.request import MemoryRequest, reset_request_ids
from repro.errors import ConfigError, SimulationError
from repro.harness.fairness import jain_index, slowdown
from repro.harness.runner import Runner
from repro.harness.schemes import scheme_by_id
from repro.harness.tenants import (
    attach_slowdowns,
    fairness_table,
    scheme_for_tenant,
)
from repro.sched.policies import arbiter_names, make_arbiter
from repro.sched.tenants import TenantTracker
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads.registry import get_workload
from repro.workloads.tenant_mix import TenantMix

#: Small enough that the full-mix simulations stay sub-second.
SCALE = 0.05


def three_tenant_mix(arbiter: str = "shared-frfcfs") -> TenantMixSpec:
    return TenantMixSpec(
        tenants=(
            TenantSpec(name="lat", workload="MVT",
                       tenant_class="latency", scale=SCALE),
            TenantSpec(name="bw", workload="ATAX",
                       tenant_class="bandwidth", scale=SCALE),
            TenantSpec(name="ax", workload="blackscholes",
                       tenant_class="approx-batch", scale=SCALE),
        ),
        arbiter=arbiter,
    )


def run_mix(mix: TenantMixSpec, scheme_id: str = "static-dms+static-ams"):
    reset_request_ids()
    scheme = scheme_by_id(scheme_id)
    workload = TenantMix(mix, scale=1.0, seed=7)
    return simulate_spec(workload, SimSpec(scheduler=scheme, tenants=mix))


# ----------------------------------------------------------------------
# Fairness math (pure, Hypothesis-driven)
# ----------------------------------------------------------------------
class TestFairnessMath:
    positive_lists = st.lists(
        st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=16
    )

    @settings(max_examples=200, deadline=None)
    @given(values=positive_lists)
    def test_jain_bounds(self, values) -> None:
        jain = jain_index(values)
        n = len(values)
        assert 1.0 / n - 1e-9 <= jain <= 1.0 + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(values=positive_lists, seed=st.randoms())
    def test_jain_relabel_invariance(self, values, seed) -> None:
        shuffled = list(values)
        seed.shuffle(shuffled)
        assert jain_index(shuffled) == pytest.approx(jain_index(values))

    @settings(max_examples=100, deadline=None)
    @given(values=positive_lists,
           factor=st.floats(min_value=1e-3, max_value=1e3))
    def test_jain_scale_invariance(self, values, factor) -> None:
        scaled = [v * factor for v in values]
        assert jain_index(scaled) == pytest.approx(
            jain_index(values), rel=1e-6
        )

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(min_value=1e-3, max_value=1e6),
           n=st.integers(min_value=1, max_value=16))
    def test_jain_equal_shares_is_one(self, value, n) -> None:
        assert jain_index([value] * n) == pytest.approx(1.0)

    def test_jain_degenerate_inputs(self) -> None:
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    def test_slowdown_basics(self) -> None:
        assert slowdown(200.0, 100.0) == pytest.approx(2.0)
        assert slowdown(100.0, 100.0) == pytest.approx(1.0)
        assert slowdown(50.0, 0.0) == 1.0


# ----------------------------------------------------------------------
# Spec validation, registry, and priority mapping
# ----------------------------------------------------------------------
class TestTenantSpec:
    def test_classes_are_closed(self) -> None:
        assert TENANT_CLASSES == ("latency", "bandwidth", "approx-batch")

    def test_priority_mapping(self) -> None:
        assert tenant_class_for_priority(5) == "latency"
        assert tenant_class_for_priority(2) == "latency"
        assert tenant_class_for_priority(1) == "bandwidth"
        assert tenant_class_for_priority(0) == "approx-batch"
        assert tenant_class_for_priority(-3) == "approx-batch"

    def test_validate_rejects_unknown_class(self) -> None:
        with pytest.raises(ConfigError, match="foreground"):
            TenantSpec(name="a", workload="MVT",
                       tenant_class="foreground").validate()

    def test_validate_rejects_duplicate_names(self) -> None:
        mix = TenantMixSpec(tenants=(
            TenantSpec(name="a", workload="MVT"),
            TenantSpec(name="a", workload="ATAX"),
        ))
        with pytest.raises(ConfigError):
            mix.validate()

    def test_validate_rejects_unknown_arbiter(self) -> None:
        mix = TenantMixSpec(
            tenants=(TenantSpec(name="a", workload="MVT"),),
            arbiter="round-robin",
        )
        with pytest.raises(ConfigError, match="round-robin"):
            mix.validate()

    def test_arbiter_registry_names(self) -> None:
        assert set(arbiter_names()) >= {
            "shared-frfcfs", "tenant-priority", "batch-fair"
        }

    def test_make_arbiter_rejects_unknown(self) -> None:
        from repro.config.scheduler import SchedulerConfig

        with pytest.raises(ConfigError, match="bogus"):
            make_arbiter("bogus", SchedulerConfig(), three_tenant_mix())

    def test_mix_round_trips_through_spec(self) -> None:
        spec = SimSpec(tenants=three_tenant_mix("batch-fair"))
        rebuilt = SimSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_scheme_for_tenant_scopes_policies(self) -> None:
        scheme = scheme_by_id("static-dms+static-ams")
        lat = scheme_for_tenant(
            scheme, TenantSpec(name="a", workload="MVT",
                               tenant_class="latency"))
        assert lat.dms.mode.value == "off"
        assert lat.ams.mode.value == "off"
        bw = scheme_for_tenant(
            scheme, TenantSpec(name="a", workload="MVT",
                               tenant_class="bandwidth"))
        assert bw.dms.mode.value != "off"
        assert bw.ams.mode.value == "off"
        ax = scheme_for_tenant(
            scheme, TenantSpec(name="a", workload="MVT",
                               tenant_class="approx-batch"))
        assert ax is scheme


# ----------------------------------------------------------------------
# Drop-contract enforcement
# ----------------------------------------------------------------------
class TestDropContract:
    def test_tracker_raises_on_forbidden_drop(self) -> None:
        tracker = TenantTracker(three_tenant_mix())
        victim = MemoryRequest(
            addr=0, is_write=False, channel=0, bank=0, bank_group=0,
            row=0, column=0, tenant_id=0,  # tenant 0 is the latency one
        )
        with pytest.raises(SimulationError, match="lat"):
            tracker.on_drops([victim])

    def test_tracker_counts_permitted_drops(self) -> None:
        tracker = TenantTracker(three_tenant_mix())
        victim = MemoryRequest(
            addr=0, is_write=False, channel=0, bank=0, bank_group=0,
            row=0, column=0, tenant_id=2,
        )
        tracker.on_drops([victim])
        assert tracker.requests_dropped == [0, 0, 1]

    def test_drops_only_in_approx_batch_stream(self) -> None:
        report = run_mix(three_tenant_mix())
        assert report.tenants is not None
        drops = [t.requests_dropped for t in report.tenants.tenants]
        assert drops[0] == 0 and drops[1] == 0
        assert drops[2] > 0  # the mix genuinely exercised AMS
        assert drops[2] == report.requests_dropped

    def test_composer_strips_approximable_from_protected_tenants(
        self,
    ) -> None:
        mix = three_tenant_mix()
        workload = TenantMix(mix, scale=1.0, seed=7)
        config = None
        from repro.config.gpu import GPUConfig

        config = GPUConfig()
        streams = workload.warp_streams(config)
        assert workload.stream_tenants is not None
        for warps, tid in zip(streams, workload.stream_tenants):
            for warp in warps:
                for access in warp.accesses:
                    if tid != 2:
                        assert not access.approximable


# ----------------------------------------------------------------------
# Determinism and arbiter behaviour
# ----------------------------------------------------------------------
class TestMixSimulation:
    def test_three_tenant_mix_is_deterministic(self) -> None:
        first = run_mix(three_tenant_mix())
        second = run_mix(three_tenant_mix())
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_serial_and_parallel_runner_agree(self) -> None:
        mix = three_tenant_mix()
        scheme = scheme_by_id("static-dms+static-ams")
        serial = Runner(spec=SimSpec(tenants=mix), cache=None, verbose=False)
        parallel = Runner(
            spec=SimSpec(tenants=mix), cache=None, verbose=False, jobs=2
        )
        try:
            a = serial.run("mix", scheme)
            b = parallel.run_matrix(["mix"], {"s": scheme})[("mix", "s")]
        finally:
            parallel.close()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("arbiter", [
        "shared-frfcfs", "tenant-priority", "batch-fair",
    ])
    def test_every_arbiter_runs_and_reports(self, arbiter) -> None:
        report = run_mix(three_tenant_mix(arbiter))
        assert report.tenants is not None
        assert report.tenants.arbiter == arbiter
        assert [t.name for t in report.tenants.tenants] == [
            "lat", "bw", "ax"
        ]
        # Conservation: per-tenant served adds up to the global counter.
        assert sum(
            t.requests_served for t in report.tenants.tenants
        ) == report.requests_served
        assert all(
            t.finish_mem_cycles > 0 for t in report.tenants.tenants
        )

    def test_report_round_trips_with_tenant_section(self) -> None:
        report = run_mix(three_tenant_mix())
        rebuilt = SimReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert rebuilt == report

    def test_single_tenant_mix_equals_plain_run(self) -> None:
        solo = TenantMixSpec(tenants=(
            TenantSpec(name="only", workload="MVT", scale=SCALE),
        ))
        scheme = scheme_by_id("static-dms+static-ams")
        reset_request_ids()
        mixed = simulate_spec(
            TenantMix(solo, scale=1.0, seed=7),
            SimSpec(scheduler=scheme, tenants=solo),
        )
        reset_request_ids()
        plain = simulate_spec(
            get_workload("MVT", scale=SCALE, seed=7),
            SimSpec(scheduler=scheme),
        )
        assert mixed.to_dict() == plain.to_dict()


# ----------------------------------------------------------------------
# Slowdown attribution and the fairness table
# ----------------------------------------------------------------------
class TestSlowdowns:
    def test_contended_slowdowns_at_least_one(self) -> None:
        mix = three_tenant_mix()
        scheme = scheme_by_id("static-dms+static-ams")
        runner = Runner(spec=SimSpec(tenants=mix), cache=None, verbose=False)
        report = runner.run("mix", scheme)
        attach_slowdowns(report, runner, mix, scheme)
        slows = [t.slowdown for t in report.tenants.tenants]
        # Work-conserving FR-FCFS: neighbours can only delay a tenant
        # relative to its class-scoped solo baseline (tiny tolerance
        # for float accumulation in the cycle clock).
        assert all(s is not None and s >= 0.999 for s in slows)
        assert all(
            t.solo_mem_cycles and t.solo_mem_cycles > 0
            for t in report.tenants.tenants
        )
        jain = report.tenants.jain_fairness
        assert jain is not None and 1.0 / 3 <= jain <= 1.0 + 1e-9

    def test_slowdowns_are_presentation_data(self) -> None:
        # The cached serialized form never embeds baseline-dependent
        # numbers: a fresh simulation of the same mix has them unset.
        report = run_mix(three_tenant_mix())
        assert all(
            t.solo_mem_cycles is None and t.slowdown is None
            for t in report.tenants.tenants
        )
        assert report.tenants.jain_fairness is None

    def test_fairness_table_renders(self) -> None:
        mix = three_tenant_mix()
        scheme = scheme_by_id("static-dms+static-ams")
        runner = Runner(spec=SimSpec(tenants=mix), cache=None, verbose=False)
        report = runner.run("mix", scheme)
        attach_slowdowns(report, runner, mix, scheme)
        text = fairness_table(report.tenants)
        for name in ("lat", "bw", "ax", "Jain fairness", "shared-frfcfs"):
            assert name in text


# ----------------------------------------------------------------------
# Telemetry: per-tenant window series
# ----------------------------------------------------------------------
class TestTenantTelemetry:
    def test_per_tenant_series_recorded(self) -> None:
        mix = three_tenant_mix()
        runner = Runner(spec=SimSpec(tenants=mix), cache=None, verbose=False)
        report, system, hub = runner.run_traced(
            "mix", scheme_by_id("static-dms+static-ams"),
            window_cycles=1024, log_commands=False,
        )
        for name in ("lat", "bw", "ax"):
            assert f"tenant.{name}.served" in hub.series
            assert f"tenant.{name}.drops" in hub.series
        windows = len(report.timeline or [])
        for values in hub.series.values():
            assert len(values) == windows
        # The series deltas sum back to the per-tenant totals.
        for tid, name in enumerate(("lat", "bw", "ax")):
            assert sum(hub.series[f"tenant.{name}.served"]) == (
                report.tenants.tenants[tid].requests_served
            )
            assert sum(hub.series[f"tenant.{name}.drops"]) == (
                report.tenants.tenants[tid].requests_dropped
            )
