"""Unit tests for DRAM statistics and energy accounting."""

import pytest

from repro.config import gddr5_energy, hbm1_energy, hbm2_energy
from repro.dram import (
    BusUtilizationTracker,
    ChannelStats,
    compute_energy,
    merge_rbl_histograms,
    project_memory_system_energy,
)


class TestBusUtilizationTracker:
    def test_total_busy_accumulates(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(0, 4)
        bus.add(10, 14)
        assert bus.busy_in(0, 100) == 8

    def test_empty_interval_ignored(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(5, 5)
        bus.add(6, 4)
        assert bus.busy_in(0, 100) == 0
        assert bus.last_end == 0.0

    def test_windowed_queries_split_intervals(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(0, 4)
        bus.add(6, 10)
        # Window [0, 8): 4 cycles from the first burst, 2 from the second.
        assert bus.busy_since_last_query(8) == pytest.approx(6)
        # Window [8, 16): the remaining 2 cycles.
        assert bus.busy_since_last_query(16) == pytest.approx(2)

    def test_future_intervals_not_counted_early(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(100, 104)
        assert bus.busy_since_last_query(50) == 0
        assert bus.busy_since_last_query(200) == pytest.approx(4)

    def test_monotone_queries_never_double_count(self) -> None:
        bus = BusUtilizationTracker()
        for i in range(10):
            bus.add(i * 10, i * 10 + 4)
        total = sum(
            bus.busy_since_last_query(t) for t in (5, 25, 33, 70, 1000)
        )
        assert total == pytest.approx(40)

    def test_busy_in_is_pure(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(0, 4)
        bus.add(6, 10)
        bus.add(20, 30)
        # Repeated, overlapping, and out-of-order windows all work and
        # return identical answers: no cursor, no consumption.
        assert bus.busy_in(0, 8) == pytest.approx(6)
        assert bus.busy_in(0, 8) == pytest.approx(6)
        assert bus.busy_in(25, 100) == pytest.approx(5)
        assert bus.busy_in(0, 8) == pytest.approx(6)
        assert bus.busy_in(0, 100) == pytest.approx(18)
        assert bus.busy_in(4, 6) == 0.0
        assert bus.busy_in(8, 8) == 0.0

    def test_busy_in_clips_partial_overlaps(self) -> None:
        bus = BusUtilizationTracker()
        bus.add(10, 20)
        assert bus.busy_in(0, 15) == pytest.approx(5)
        assert bus.busy_in(15, 18) == pytest.approx(3)
        assert bus.busy_in(18, 50) == pytest.approx(2)
        assert bus.busy_in(0, 10) == 0.0
        assert bus.busy_in(20, 30) == 0.0

    def test_busy_in_does_not_disturb_profiling_cursor(self) -> None:
        # The Dyn-DMS profiler consumes windows via
        # busy_since_last_query; a telemetry reader interleaving pure
        # busy_in calls must not shift what the profiler sees.
        plain = BusUtilizationTracker()
        probed = BusUtilizationTracker()
        for bus in (plain, probed):
            for i in range(8):
                bus.add(i * 10, i * 10 + 6)
        consumed_plain, consumed_probed = [], []
        for t in (15, 40, 41, 100):
            consumed_plain.append(plain.busy_since_last_query(t))
            probed.busy_in(0, 1000)
            probed.busy_in(t - 10, t)
            consumed_probed.append(probed.busy_since_last_query(t))
            probed.busy_in(0, t)
        assert consumed_probed == consumed_plain

    def test_last_end_tracks_latest_interval(self) -> None:
        bus = BusUtilizationTracker()
        assert bus.last_end == 0.0
        bus.add(0, 4)
        bus.add(10, 14)
        assert bus.last_end == 14.0


class TestChannelStats:
    def test_avg_rbl_zero_when_idle(self) -> None:
        assert ChannelStats().avg_rbl == 0.0

    def test_merge_histograms(self) -> None:
        a, b = ChannelStats(), ChannelStats()
        a.rbl_histogram[1] = 3
        b.rbl_histogram[1] = 2
        b.rbl_histogram[4] = 1
        merged = merge_rbl_histograms([a, b])
        assert merged[1] == 5 and merged[4] == 1

    def test_finalize_is_idempotent(self) -> None:
        s = ChannelStats()
        s.on_activate(0)
        s.on_column(0, is_write=False)
        s.finalize()
        s.finalize()
        assert s.rbl_histogram[1] == 1
        assert s.read_only_rbl_histogram[1] == 1
        assert s.activations == 1

    def test_round_trip_holds_results_only(self) -> None:
        s = ChannelStats()
        s.on_activate(0)
        s.on_column(0, is_write=True)
        s.on_activate(1)
        s.bus_busy = 8.0
        s.finalize()
        payload = s.to_dict()
        assert ChannelStats.from_dict(payload) == s
        assert payload["rbl_histogram"] == {"0": 1, "1": 1}
        assert payload["read_only_rbl_histogram"] == {"0": 1}
        assert payload["bus_busy"] == 8.0


class TestEnergyModel:
    def _stats(self, acts: int, reads: int, writes: int) -> ChannelStats:
        s = ChannelStats()
        s.activations = acts
        s.reads_served = reads
        s.writes_served = writes
        return s

    def test_row_energy_proportional_to_activations(self) -> None:
        p = gddr5_energy()
        e1 = compute_energy([self._stats(100, 0, 0)], p, 0, 924)
        e2 = compute_energy([self._stats(50, 0, 0)], p, 0, 924)
        assert e2.row_nj == pytest.approx(0.5 * e1.row_nj)

    def test_breakdown_components(self) -> None:
        p = gddr5_energy()
        e = compute_energy([self._stats(10, 20, 5)], p, 9240, 924.0)
        assert e.row_nj == pytest.approx(10 * p.e_act_nj)
        assert e.access_nj == pytest.approx(20 * p.e_rd_nj + 5 * p.e_wr_nj)
        assert e.background_nj == pytest.approx(p.background_mw * 10.0)
        assert e.total_nj == pytest.approx(
            e.row_nj + e.access_nj + e.background_nj
        )
        assert 0 < e.row_fraction < 1

    def test_hbm_projection_matches_paper_weighting(self) -> None:
        # A 44 % row-energy reduction projects to ~22 % on HBM1 (50 % row
        # fraction) and ~11 % on HBM2 (25 % row fraction) — Section V.
        reduced = project_memory_system_energy(100.0, 56.0, hbm1_energy())
        assert reduced == pytest.approx(1 - 0.22)
        reduced = project_memory_system_energy(100.0, 56.0, hbm2_energy())
        assert reduced == pytest.approx(1 - 0.11)

    def test_projection_degenerate_baseline(self) -> None:
        assert project_memory_system_energy(0.0, 0.0, hbm1_energy()) == 1.0

    def test_projection_explicit_other(self) -> None:
        val = project_memory_system_energy(
            50.0, 25.0, hbm1_energy(), baseline_other_nj=50.0
        )
        assert val == pytest.approx(0.75)
