"""DRAM substrate: requests, banks, channels, timing, energy, statistics."""

from repro.dram.bank import NO_ROW, Bank
from repro.dram.channel import Channel
from repro.dram.commands import CommandRecord, DRAMCommand
from repro.dram.devices import (
    DeviceModel,
    device_names,
    get_device,
    register_device,
)
from repro.dram.energy import (
    EnergyBreakdown,
    compute_energy,
    project_memory_system_energy,
)
from repro.dram.request import MemoryRequest, reset_request_ids
from repro.dram.stats import (
    BusUtilizationTracker,
    ChannelStats,
    merge_rbl_histograms,
)
from repro.dram.timing import TimingChecker

__all__ = [
    "Bank",
    "BusUtilizationTracker",
    "Channel",
    "ChannelStats",
    "CommandRecord",
    "DRAMCommand",
    "DeviceModel",
    "EnergyBreakdown",
    "MemoryRequest",
    "NO_ROW",
    "TimingChecker",
    "compute_energy",
    "device_names",
    "get_device",
    "merge_rbl_histograms",
    "project_memory_system_energy",
    "register_device",
    "reset_request_ids",
]
