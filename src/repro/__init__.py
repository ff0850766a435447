"""repro — reproduction of Wang & Jog, "Exploiting Latency and Error
Tolerance of GPGPU Applications for an Energy-Efficient DRAM" (DSN 2019).

The package provides:

* a from-scratch, event-driven GPU memory-system simulator (SM frontend,
  crossbar, L2 slices, FR-FCFS GDDR5/HBM memory controllers);
* the paper's contribution — the lazy memory scheduler with Delayed
  Memory Scheduling (DMS), Approximate Memory Scheduling (AMS), and a
  value-prediction unit;
* twenty kernel-backed GPGPU workloads with the paper's Table II/III
  characteristics and end-to-end application-error measurement;
* a harness regenerating every figure and table of the evaluation.

Quickstart::

    from repro import SimSpec, dyn_combo, get_workload, simulate_spec

    workload = get_workload("SCP")
    report = simulate_spec(workload, SimSpec(scheduler=dyn_combo()))
    print(report.summary())
"""

from repro.config import (
    baseline_config,
    baseline_scheduler,
    dyn_ams,
    dyn_combo,
    dyn_dms,
    static_ams,
    static_combo,
    static_dms,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "baseline_config",
    "baseline_scheduler",
    "dyn_ams",
    "dyn_combo",
    "dyn_dms",
    "static_ams",
    "static_combo",
    "static_dms",
    "simulate_spec",
    "SimSpec",
    "get_device",
    "device_names",
    "get_workload",
    "list_workloads",
]


def __getattr__(name: str):
    # Lazy imports keep `import repro` light and avoid import cycles while
    # the higher layers (sim, workloads) are built on top of this package.
    if name == "simulate_spec":
        from repro.sim.system import simulate_spec

        return simulate_spec
    if name == "SimSpec":
        from repro.sim.spec import SimSpec

        return SimSpec
    if name in ("get_device", "device_names"):
        from repro.dram import devices

        return getattr(devices, name)
    if name in ("get_workload", "list_workloads"):
        from repro.workloads import registry

        return getattr(registry, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
