"""Unit tests for SimReport metrics and normalization helpers."""

import json
from collections import Counter

import pytest

from repro.config import gddr5_energy
from repro.config.scheduler import SchedulerConfig
from repro.dram.energy import EnergyBreakdown
from repro.dram.stats import ChannelStats
from repro.harness.runner import Runner
from repro.sim.report import L2Summary, SimReport


def make_report(
    *,
    acts: int = 10,
    reads: int = 40,
    writes: int = 10,
    dropped: int = 5,
    arrived_reads: int = 45,
    elapsed: float = 1000.0,
    instructions: int = 5000,
) -> SimReport:
    stats = ChannelStats()
    stats.activations = acts
    stats.reads_served = reads
    stats.writes_served = writes
    stats.requests_dropped = dropped
    stats.reads_arrived = arrived_reads
    stats.rbl_histogram = Counter({5: acts})
    stats.bus_busy = 100.0
    return SimReport(
        workload="T",
        scheme="S",
        elapsed_mem_cycles=elapsed,
        elapsed_core_cycles=elapsed * 1.515,
        total_instructions=instructions,
        channel_stats=[stats],
        drops=[],
        l2=L2Summary(hits=30, misses=70),
        energy=EnergyBreakdown(
            row_nj=acts * gddr5_energy().e_act_nj,
            access_nj=10.0,
            background_nj=5.0,
        ),
        energy_params=gddr5_energy(),
    )


class TestDerivedMetrics:
    def test_ipc(self) -> None:
        r = make_report()
        assert r.ipc == pytest.approx(5000 / 1515)

    def test_counters(self) -> None:
        r = make_report()
        assert r.activations == 10
        assert r.requests_served == 50
        assert r.requests_dropped == 5
        assert r.reads_arrived == 45
        assert r.avg_rbl == pytest.approx(5.0)
        assert r.coverage == pytest.approx(5 / 45)

    def test_bwutil(self) -> None:
        r = make_report()
        assert r.bwutil == pytest.approx(0.1)

    def test_l2_hit_rate(self) -> None:
        assert make_report().l2.hit_rate == pytest.approx(0.3)
        assert L2Summary().hit_rate == 0.0

    def test_zero_guards(self) -> None:
        r = make_report(acts=0, reads=0, writes=0, dropped=0,
                        arrived_reads=0, elapsed=0.0, instructions=0)
        assert r.ipc == 0.0
        assert r.avg_rbl == 0.0
        assert r.coverage == 0.0
        assert r.bwutil == 0.0


class TestNormalization:
    def test_relative_metrics(self) -> None:
        base = make_report(acts=20)
        run = make_report(acts=10)
        assert run.normalized_activations(base) == pytest.approx(0.5)
        assert run.normalized_row_energy(base) == pytest.approx(0.5)
        assert run.normalized_ipc(base) == pytest.approx(1.0)

    def test_degenerate_baseline(self) -> None:
        base = make_report(acts=0, instructions=0)
        run = make_report()
        assert run.normalized_row_energy(base) == 1.0
        assert run.normalized_ipc(base) == 1.0
        assert run.normalized_activations(base) == 1.0


class TestSummary:
    def test_summary_contains_key_metrics(self) -> None:
        r = make_report()
        text = r.summary()
        assert "workload=T scheme=S" in text
        assert "IPC" in text and "activations" in text
        assert "app error" not in text
        r.application_error = 0.07
        assert "app error" in r.summary()


class TestReportShape:
    """Reports hold results, not simulator state: every per-channel
    section is a fixed set of counters and histograms, so a report's
    size does not grow with the number of bursts or activations."""

    @pytest.fixture(scope="class")
    def fixture_report(self) -> SimReport:
        # The golden fixture cell (tests/golden/seed_reports.json).
        return Runner(
            scale=0.25, seed=11, verbose=False, cache=None
        ).run("synthetic", SchedulerConfig())

    def test_channel_stats_hold_no_per_record_data(
        self, fixture_report: SimReport
    ) -> None:
        for entry in fixture_report.to_dict()["channel_stats"]:
            for name, value in entry.items():
                assert not isinstance(value, list), name
                if isinstance(value, dict):
                    assert all(
                        isinstance(v, int) for v in value.values()
                    ), name

    def test_fixture_report_serializes_small(
        self, fixture_report: SimReport
    ) -> None:
        blob = json.dumps(fixture_report.to_dict(), separators=(",", ":"))
        assert len(blob) <= 4096
