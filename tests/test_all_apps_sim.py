"""Smoke-level integration: every Table II application simulates."""

import pytest

from repro.config import baseline_scheduler, static_ams
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import TABLE_II, get_workload

SCALE = 0.12


@pytest.mark.parametrize("name", sorted(TABLE_II))
def test_every_app_simulates_under_baseline(name: str) -> None:
    report = simulate_spec(
        get_workload(name, scale=SCALE),
        SimSpec(scheduler=baseline_scheduler()),
    )
    assert report.requests_served > 0
    assert report.activations > 0
    assert report.total_instructions > 0
    assert report.elapsed_mem_cycles > 0
    assert report.row_energy_nj > 0
    assert report.requests_dropped == 0
    # The RBL histogram partitions exactly the served requests.
    hist = report.rbl_histogram
    assert sum(r * c for r, c in hist.items()) == report.requests_served


@pytest.mark.parametrize("name", ("SCP", "MVT", "RAY", "meanfilter"))
def test_representative_apps_with_ams_and_error(name: str) -> None:
    wl = get_workload(name, scale=0.25)
    report = simulate_spec(
        wl,
        SimSpec(scheduler=static_ams(8), measure_error=True),
    )
    assert report.coverage <= 0.10 + 1e-9
    err = report.application_error
    assert err is not None and err >= 0.0
    # Every drop maps back to an annotated array line.
    for drop in report.drops[:50]:
        located = wl.space.locate_line(drop.addr)
        assert located is not None
        assert located[0].approximable
