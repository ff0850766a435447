"""Simulation driver: event engine, system assembly, specs, reports."""

from repro.sim.engine import Engine
from repro.sim.report import L2Summary, SimReport
from repro.sim.spec import SimSpec

__all__ = [
    "Engine",
    "GPUSystem",
    "L2Summary",
    "SimReport",
    "SimSpec",
    "simulate_spec",
]


def __getattr__(name: str):
    # GPUSystem/simulate_spec import the gpu frontend, which itself imports
    # repro.sim.engine; loading them lazily breaks the package-init cycle.
    if name in ("GPUSystem", "simulate_spec"):
        from repro.sim import system

        return getattr(system, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
