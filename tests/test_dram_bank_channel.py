"""Unit tests for the DRAM bank/channel timing model."""

import pytest

from repro.config import AddressMapping, gddr5_timings
from repro.dram import Channel, DRAMCommand, NO_ROW, TimingChecker


def make_channel(**kwargs) -> Channel:
    return Channel(
        0, AddressMapping(), gddr5_timings(), log_commands=True, **kwargs
    )


class TestActivatePath:
    def test_first_activate_opens_row(self) -> None:
        ch = make_channel()
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, row=7, now=0.0)
        assert t_act == 0.0
        assert bank.open_row == 7

    def test_column_respects_trcd(self) -> None:
        ch = make_channel()
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, 7, now=0.0)
        t_cmd, data_end = ch.issue_column(bank, is_write=False, now=t_act)
        tm = ch.timings
        assert t_cmd == t_act + tm.tRCD
        assert data_end == t_cmd + tm.tCL + tm.tBURST

    def test_row_switch_costs_tras_trp(self) -> None:
        ch = make_channel()
        tm = ch.timings
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, 7, now=0.0)
        # Switch immediately: PRE cannot issue before tRAS, ACT before +tRP.
        t_act2 = ch.switch_row(bank, 8, now=t_act)
        assert t_act2 >= t_act + tm.tRAS + tm.tRP
        assert t_act2 >= t_act + tm.tRC
        assert bank.open_row == 8

    def test_trrd_between_banks(self) -> None:
        ch = make_channel()
        tm = ch.timings
        t0 = ch.switch_row(ch.banks[0], 1, now=0.0)
        t1 = ch.switch_row(ch.banks[1], 1, now=t0)
        assert t1 - t0 >= tm.tRRD


class TestColumnPath:
    def test_row_hits_pipeline_on_bus(self) -> None:
        ch = make_channel()
        tm = ch.timings
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, 3, now=0.0)
        t1, e1 = ch.issue_column(bank, is_write=False, now=t_act)
        t2, e2 = ch.issue_column(bank, is_write=False, now=t1)
        # Back-to-back reads are limited by the burst length on the bus.
        assert e2 - e1 == tm.tBURST
        assert bank.accesses_this_activation == 2

    def test_tccd_within_bank_group(self) -> None:
        ch = make_channel()
        tm = ch.timings
        b0, b1 = ch.banks[0], ch.banks[1]  # same bank group (0-3)
        assert b0.bank_group == b1.bank_group
        ta0 = ch.switch_row(b0, 1, now=0.0)
        ta1 = ch.switch_row(b1, 1, now=0.0)
        t1, _ = ch.issue_column(b0, is_write=False, now=max(ta0, ta1))
        t2, _ = ch.issue_column(b1, is_write=False, now=t1)
        assert t2 - t1 >= tm.tCCD

    def test_write_then_read_same_bank_tcdlr(self) -> None:
        ch = make_channel()
        tm = ch.timings
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, 3, now=0.0)
        t_wr, wr_end = ch.issue_column(bank, is_write=True, now=t_act)
        t_rd, _ = ch.issue_column(bank, is_write=False, now=t_wr)
        assert t_rd >= wr_end + tm.tCDLR

    def test_write_recovery_gates_precharge(self) -> None:
        ch = make_channel()
        tm = ch.timings
        bank = ch.banks[0]
        t_act = ch.switch_row(bank, 3, now=0.0)
        t_wr, wr_end = ch.issue_column(bank, is_write=True, now=t_act)
        t_act2 = ch.switch_row(bank, 4, now=t_wr)
        # PRE must wait for write recovery, then ACT waits tRP more.
        assert t_act2 >= wr_end + tm.tWR + tm.tRP


class TestStatsIntegration:
    def test_rbl_histogram_counts_accesses_per_activation(self) -> None:
        ch = make_channel()
        bank = ch.banks[0]
        t = ch.switch_row(bank, 1, now=0.0)
        for _ in range(3):
            t, _ = ch.issue_column(bank, is_write=False, now=t)
        t = ch.switch_row(bank, 2, now=t)  # closes row 1 with RBL 3
        t, _ = ch.issue_column(bank, is_write=False, now=t)
        ch.finalize()  # closes row 2 with RBL 1
        assert ch.stats.activations == 2
        assert ch.stats.rbl_histogram[3] == 1
        assert ch.stats.rbl_histogram[1] == 1
        assert ch.stats.avg_rbl == pytest.approx(2.0)

    def test_activation_log_read_only_flag(self) -> None:
        ch = make_channel()
        bank = ch.banks[0]
        t = ch.switch_row(bank, 1, now=0.0)
        t, _ = ch.issue_column(bank, is_write=False, now=t)
        t, _ = ch.issue_column(bank, is_write=True, now=t)
        t = ch.switch_row(bank, 2, now=t)  # closes row 1: RBL 2, one write
        ch.issue_column(bank, is_write=False, now=t)
        ch.finalize()  # closes row 2: RBL 1, reads only
        assert ch.stats.rbl_histogram == {2: 1, 1: 1}
        assert ch.stats.read_only_rbl_histogram == {1: 1}

    def test_bus_utilization_tracked(self) -> None:
        ch = make_channel()
        tm = ch.timings
        bank = ch.banks[0]
        t = ch.switch_row(bank, 1, now=0.0)
        ch.issue_column(bank, is_write=False, now=t)
        assert ch.stats.bus_busy == tm.tBURST
        assert ch.bus.busy_in(0.0, ch.bus.last_end) == tm.tBURST


class TestCommandLogLegality:
    """Every command sequence the channel emits must pass the checker."""

    def test_mixed_traffic_stream_is_legal(self) -> None:
        ch = make_channel()
        t = 0.0
        # Exercise switches, hits, writes across banks and groups.
        pattern = [
            (0, 1, False),
            (0, 1, False),
            (5, 2, True),
            (0, 3, False),
            (9, 1, False),
            (5, 2, False),
            (1, 7, True),
            (0, 3, True),
            (15, 0, False),
            (1, 8, False),
        ]
        for bank_idx, row, is_write in pattern:
            bank = ch.banks[bank_idx]
            if bank.open_row != row:
                t = max(t, ch.switch_row(bank, row, now=t))
            t_cmd, _ = ch.issue_column(bank, is_write=is_write, now=t)
            t = max(t, t_cmd)
        checker = TimingChecker(ch.timings)
        n = checker.check_stream(sorted(ch.command_log, key=lambda r: r.time))
        assert n == len(ch.command_log)
        assert n > len(pattern)  # includes ACT/PRE commands

    def test_checker_rejects_trcd_violation(self) -> None:
        from repro.dram.commands import CommandRecord
        from repro.errors import TimingViolationError

        checker = TimingChecker(gddr5_timings())
        checker.check(
            CommandRecord(time=0, command=DRAMCommand.ACTIVATE, bank=0,
                          bank_group=0, row=1)
        )
        with pytest.raises(TimingViolationError):
            checker.check(
                CommandRecord(time=5, command=DRAMCommand.READ, bank=0,
                              bank_group=0, row=1)
            )

    def test_checker_rejects_act_to_open_bank(self) -> None:
        from repro.dram.commands import CommandRecord
        from repro.errors import TimingViolationError

        checker = TimingChecker(gddr5_timings())
        checker.check(
            CommandRecord(time=0, command=DRAMCommand.ACTIVATE, bank=0,
                          bank_group=0, row=1)
        )
        with pytest.raises(TimingViolationError):
            checker.check(
                CommandRecord(time=100, command=DRAMCommand.ACTIVATE, bank=0,
                              bank_group=0, row=2)
            )
