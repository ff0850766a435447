"""Spec fidelity: every execution path simulates exactly the spec it
was handed.

A :class:`~repro.sim.spec.SimSpec` travels whole from the caller to the
process that simulates it. These tests perturb every spec field in turn
(the per-field audit of ``tests/test_spec.py``), send each variant down
one execution path, and compare what :meth:`GPUSystem.from_spec`
actually received — in this process, in a warm-pool worker, or in a
service tier worker — with what was submitted:

* ``Runner.run``;
* ``Runner.run_matrix``, serial and over two worker processes;
* the Fig. 2/13 queue-size sub-runner (only the queue size may differ);
* the tenant solo baselines (only ``tenants=None`` may differ);
* a service job, with telemetry on (the base) and off (one variant).

The one sanctioned rewrite is ``measure_error`` under AMS off: a replay
with nothing to replay is cleared, so those cells share one key.
``fig02 --device hbm`` is the concrete regression: its queue cells once
silently simulated on GDDR5.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config.faults import FaultConfig
from repro.config.gpu import GPUConfig
from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.harness.cache import ResultCache
from repro.harness.cli import main as cli_main
from repro.harness.experiments import QUEUE_SIZES, _queue_runner
from repro.harness.runner import Runner
from repro.harness.tenants import attach_slowdowns
from repro.service.client import ServiceClient
from repro.service.server import ServiceDaemon
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem

SCALE = 0.05
SEED = 7
APP = "synthetic"
WAIT = 120.0


def base_spec() -> SimSpec:
    """Every field away from its default; both tenants are approx-batch,
    so the per-tenant scheme exemptions leave their solo scheme alone."""
    return SimSpec(
        scheduler=SchedulerConfig(
            arbiter="frfcfs-cap",
            hit_streak_cap=2,
            dms=DMSConfig(mode=DMSMode.DYNAMIC, window_cycles=512),
            ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=4),
        ),
        device="hbm",
        config=dataclasses.replace(GPUConfig(), num_sms=8),
        measure_error=True,
        telemetry=True,
        ecc="secded",
        faults=FaultConfig(enabled=True, p_bit=1e-6, scale=2.0),
        tenants=TenantMixSpec(
            tenants=(
                TenantSpec(name="fg", workload="MVT",
                           tenant_class="approx-batch"),
                TenantSpec(name="bg", workload="synthetic",
                           tenant_class="approx-batch", scale=0.5, seed=3),
            ),
            arbiter="batch-fair",
        ),
    )


#: One alternate per SimSpec field (checked for completeness below).
ALTERNATES = {
    "scheduler": SchedulerConfig(),
    "device": "gddr5",
    "config": None,
    "measure_error": False,
    "telemetry": False,
    "ecc": "bch",
    "faults": FaultConfig(),
    "tenants": None,
}

VARIANTS = ["base", *ALTERNATES]


def variant(name: str) -> SimSpec:
    base = base_spec()
    if name == "base":
        return base
    return dataclasses.replace(base, **{name: ALTERNATES[name]})


def effective(spec: SimSpec) -> SimSpec:
    """The submitted spec after the AMS-off ``measure_error`` rule."""
    replays = spec.measure_error and spec.scheduler.ams.mode is not AMSMode.OFF
    return dataclasses.replace(spec, measure_error=replays)


class Recorder:
    """Appends the spec of every ``GPUSystem.from_spec`` call, in any
    process forked after the patch, to one JSONL file."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def clear(self) -> None:
        self.path.write_text("", encoding="utf-8")

    def specs(self) -> list[SimSpec]:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return [SimSpec.from_dict(json.loads(line)) for line in lines]


@pytest.fixture(scope="module")
def recorder(tmp_path_factory):
    path = tmp_path_factory.mktemp("fidelity") / "specs.jsonl"
    original = GPUSystem.from_spec

    def from_spec(spec, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(spec.to_dict()) + "\n")
        return original(spec, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GPUSystem, "from_spec", staticmethod(from_spec))
        rec = Recorder(path)
        rec.clear()
        yield rec


def runner_for(spec: SimSpec, **kwargs) -> Runner:
    return Runner(
        scale=SCALE, seed=SEED, spec=spec, verbose=False, cache=None,
        faults=None, **kwargs,
    )


def test_alternates_cover_every_field() -> None:
    assert set(ALTERNATES) == {f.name for f in dataclasses.fields(SimSpec)}
    for name, value in ALTERNATES.items():
        assert getattr(base_spec(), name) != value, name


@pytest.mark.parametrize("name", VARIANTS)
def test_runner_run(recorder, name) -> None:
    spec = variant(name)
    recorder.clear()
    runner_for(spec).run(APP, spec.scheduler)
    assert recorder.specs() == [effective(spec)]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", VARIANTS)
def test_run_matrix(recorder, name, jobs) -> None:
    spec = variant(name)
    runner = runner_for(spec, jobs=jobs)
    recorder.clear()
    try:
        # Two distinct cells, so jobs=2 really fans out to the pool.
        runner.run_matrix([APP, "MVT"], {"cell": spec.scheduler})
    finally:
        runner.close()
    assert recorder.specs() == [effective(spec)] * 2


@pytest.mark.parametrize("name", VARIANTS)
def test_queue_sub_runner(recorder, name) -> None:
    spec = variant(name)
    sub = _queue_runner(runner_for(spec), 64)
    recorder.clear()
    sub.run_matrix([APP], {"q64": spec.scheduler})
    queued = dataclasses.replace(
        spec.config or GPUConfig(), pending_queue_size=64
    )
    assert recorder.specs() == [
        effective(dataclasses.replace(spec, config=queued))
    ]


@pytest.mark.parametrize("name", VARIANTS)
def test_tenant_solo_baselines(recorder, name) -> None:
    spec = variant(name)
    runner = runner_for(spec)
    report = runner.run(APP, spec.scheduler)
    recorder.clear()
    attach_slowdowns(report, runner, spec.tenants, spec.scheduler)
    solo = recorder.specs()
    if spec.tenants is None:
        assert solo == []  # no mix, no neighbours, no baselines
        return
    assert solo == [
        effective(dataclasses.replace(spec, tenants=None))
    ] * len(spec.tenants.tenants)


@pytest.fixture(scope="module")
def daemon(recorder, tmp_path_factory):
    root = tmp_path_factory.mktemp("fidelity-daemon")
    daemon = ServiceDaemon(
        port=0,
        workers=1,
        cache=ResultCache(root / "cache", enabled=True),
        journal_path=root / "journal.jsonl",
        retry_backoff=0.01,
        verbose=False,
    )
    daemon.start_in_thread()
    yield daemon
    daemon.stop()


@pytest.mark.parametrize("name", VARIANTS)
def test_service_tier_job(recorder, daemon, name) -> None:
    spec = variant(name)
    client = ServiceClient(port=daemon.port)
    recorder.clear()
    job = client.submit(APP, spec=spec, scale=SCALE, seed=SEED)
    report = client.wait_for_report(job["id"], timeout=WAIT)
    assert recorder.specs() == [effective(spec)]
    assert (report.timeline is not None) == spec.telemetry


def test_fig02_queue_cells_keep_the_device(recorder) -> None:
    recorder.clear()
    assert cli_main([
        "fig02", "--device", "hbm", "--apps", APP,
        "--scale", str(SCALE), "--no-cache", "--quiet",
    ]) == 0
    cells = recorder.specs()
    assert sorted(c.config.pending_queue_size for c in cells) == sorted(
        QUEUE_SIZES
    )
    assert all(c.device == "hbm" for c in cells)
