"""DRAM timing tables and the independent command-stream validator.

:class:`TimingTable` precomputes the per-bank timing constants the
scheduler's hot path consumes, every parameter as a float. The
:class:`~repro.config.timing.DRAMTimings` dataclass stays the single
source of truth; the table is a flattened, simulation-ready view built
once per channel.

The event-driven channel model computes ready times incrementally for
speed. :class:`TimingChecker` replays a logged command stream and
re-derives every constraint from scratch, raising
:class:`~repro.errors.TimingViolationError` on the first violation. Tests
run both against the same stimulus so a bug in either implementation
surfaces as a disagreement.

Checked constraints (mirroring :mod:`repro.dram.channel`):

* ACT only to a closed bank; RD/WR only to the open row.
* same-bank: tRC (ACT->ACT), tRAS (ACT->PRE), tRP (PRE->ACT),
  tRCD (ACT->column), tWR (write data end -> PRE),
  tCDLR (write data end -> RD), read-to-PRE >= tBURST (tRTP proxy).
* channel: tRRD (ACT->ACT any bank), tCCD (column->column, same bank
  group), non-overlapping data bursts, one command per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.config.timing import DRAMTimings
from repro.dram.commands import CommandRecord, DRAMCommand
from repro.errors import TimingViolationError


@dataclass(frozen=True, slots=True)
class TimingTable:
    """Precomputed float timing constants for the scheduler hot path.

    Integer :class:`~repro.config.timing.DRAMTimings` fields are exact
    small integers, so converting them to floats once here changes no
    arithmetic result — event times are floats anyway — while sparing
    the candidate fold an ``int``/``float`` coercion per comparison and
    a dataclass attribute walk per constraint.
    """

    tCL: float
    tCWL: float
    tCCD: float
    tRRD: float
    tRCD: float
    tRP: float
    tRAS: float
    tRC: float
    tBURST: float
    tWR: float
    tCDLR: float
    tREFI: float
    tRFC: float

    @classmethod
    def from_timings(cls, tm: DRAMTimings) -> "TimingTable":
        """Flatten ``tm`` into the simulation-ready constant table."""
        return cls(
            tCL=float(tm.tCL),
            tCWL=float(tm.tCWL),
            tCCD=float(tm.tCCD),
            tRRD=float(tm.tRRD),
            tRCD=float(tm.tRCD),
            tRP=float(tm.tRP),
            tRAS=float(tm.tRAS),
            tRC=float(tm.tRC),
            tBURST=float(tm.tBURST),
            tWR=float(tm.tWR),
            tCDLR=float(tm.tCDLR),
            tREFI=float(tm.tREFI),
            tRFC=float(tm.tRFC),
        )


@dataclass
class _BankView:
    open_row: int = -1
    last_act: float = float("-inf")
    last_pre: float = float("-inf")
    last_col_rd: float = float("-inf")
    last_wr_data_end: float = float("-inf")
    last_rd_cmd: float = float("-inf")


class TimingChecker:
    """Replays a command stream and validates every timing constraint."""

    def __init__(self, timings: DRAMTimings) -> None:
        self.timings = timings
        self._banks: dict[int, _BankView] = {}
        self._last_act_any = float("-inf")
        self._last_col_by_group: dict[int, float] = {}
        self._bus_free = float("-inf")
        self._last_cmd_time = float("-inf")
        self._refresh_block_until = float("-inf")
        self.commands_checked = 0

    def _bank(self, index: int) -> _BankView:
        return self._banks.setdefault(index, _BankView())

    def check(self, record: CommandRecord) -> None:
        """Validate one command; raises on the first violation."""
        tm = self.timings
        t = record.time
        bank = self._bank(record.bank)

        if t < self._last_cmd_time + 1:
            self._fail(record, "command bus conflict (one command per cycle)")

        if record.command is DRAMCommand.REFRESH:
            for idx, view in self._banks.items():
                if view.open_row != -1:
                    self._fail(record, f"REF with bank {idx} open")
            self._refresh_block_until = t + self.timings.tRFC
            self._last_cmd_time = t
            self.commands_checked += 1
            return

        if record.command is DRAMCommand.ACTIVATE:
            if t < self._refresh_block_until:
                self._fail(record, "ACT during refresh (tRFC) window")
            if bank.open_row != -1:
                self._fail(record, "ACT to an open bank")
            if t < bank.last_act + tm.tRC:
                self._fail(record, f"tRC violated (last ACT {bank.last_act})")
            if t < bank.last_pre + tm.tRP:
                self._fail(record, f"tRP violated (last PRE {bank.last_pre})")
            if t < self._last_act_any + tm.tRRD:
                self._fail(
                    record, f"tRRD violated (last ACT any {self._last_act_any})"
                )
            bank.open_row = record.row
            bank.last_act = t
            self._last_act_any = t

        elif record.command is DRAMCommand.PRECHARGE:
            if bank.open_row == -1:
                self._fail(record, "PRE to a closed bank")
            if t < bank.last_act + tm.tRAS:
                self._fail(record, f"tRAS violated (ACT at {bank.last_act})")
            if t < bank.last_wr_data_end + tm.tWR:
                self._fail(record, "tWR (write recovery) violated")
            if t < bank.last_rd_cmd + tm.tBURST:
                self._fail(record, "read-to-precharge (tRTP proxy) violated")
            bank.open_row = -1
            bank.last_pre = t

        else:  # READ or WRITE
            is_write = record.command is DRAMCommand.WRITE
            if bank.open_row == -1 or bank.open_row != record.row:
                self._fail(record, "column command to a mismatched/closed row")
            if t < bank.last_act + tm.tRCD:
                self._fail(record, f"tRCD violated (ACT at {bank.last_act})")
            group_last = self._last_col_by_group.get(
                record.bank_group, float("-inf")
            )
            if t < group_last + tm.tCCD:
                self._fail(record, "tCCD violated within bank group")
            if not is_write and t < bank.last_wr_data_end + tm.tCDLR:
                self._fail(record, "tCDLR (write-to-read) violated")
            cas = tm.tCWL if is_write else tm.tCL
            data_start = t + cas
            if data_start < self._bus_free:
                self._fail(record, "data bus burst overlap")
            self._bus_free = data_start + tm.tBURST
            self._last_col_by_group[record.bank_group] = t
            if is_write:
                bank.last_wr_data_end = data_start + tm.tBURST
            else:
                bank.last_rd_cmd = t

        self._last_cmd_time = t
        self.commands_checked += 1

    def check_stream(self, records: Iterable[CommandRecord]) -> int:
        """Validate an entire stream; returns the number of commands checked."""
        for record in records:
            self.check(record)
        return self.commands_checked

    def _fail(self, record: CommandRecord, reason: str) -> None:
        raise TimingViolationError(f"{record}: {reason}")
