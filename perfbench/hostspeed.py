"""Host-speed reference measured alongside the workload.

The benchmark box is a shared 2-vCPU virtual machine whose speed drifts:
a fixed pure-Python loop takes anywhere from 0.7x to 1.5x its median
time, over windows of a few seconds and in phases that last minutes.
Raw host times of two runs therefore differ by more than any useful
regression bound: over eight fig12-cold runs the spread (interquartile
range over median) of ``cells_per_s`` was 21 % raw and 3 % scaled as
below, that of ``cell_ms_p90`` 28 % raw and 5 % scaled.

So the benchmark runs a small fixed calibration kernel (JSON round trip,
arithmetic over the parsed lists, a keyed sort: the same kinds of work
as the simulator and the report codec) at quiet points between units of
work, and scales each timed interval by how fast the kernel ran around
it::

    reported = raw * (REFERENCE_S / kernel_s(midpoint)) ** sensitivity

``sensitivity`` says how strongly the interval's work follows the
kernel: :data:`SINGLE_THREAD` where one interpreter process works at a
time (cells, read-backs, the cache fill, process start-up) and
:data:`MULTI_PROCESS` for the service window, which the kernel does not
predict. Reported times read as seconds on a host where the kernel takes
:data:`REFERENCE_S`. The kernel is benchmark code, so a change to the
program cannot move it; raw figures are printed beside the reported ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

#: Kernel time of the reference host (about this box's median).
REFERENCE_S = 0.007
#: Kernel runs per probe; a probe reports their median.
RUNS_PER_PROBE = 3
#: Probes whose median estimates the kernel time at one moment.
NEAREST_PROBES = 5
#: One interpreter process working at a time: the kernel predicts it.
SINGLE_THREAD = 1.0
#: The service window spreads its work over the daemon, its tier worker
#: and two client threads on two vCPUs, and the kernel does not predict
#: it: over two sets of five runs on this box, scaling by the kernel to
#: any power left its cells_per_s spread no better than raw (4-9 %).
MULTI_PROCESS = 0.0

_DOC = [
    {"id": i, "v": [i * 0.5 + j for j in range(8)], "k": f"key{i}"}
    for i in range(1000)
]


def _kernel() -> float:
    doc = json.loads(json.dumps(_DOC))
    total = 0.0
    for item in doc:
        total += sum(item["v"]) + len(item["k"])
    order = sorted(range(15000), key=lambda x: (x * 7919) % 10007)
    return total + order[0]


class HostSpeed:
    """Calibration probes over time, and scaling against them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        """Time the kernel now; call only while no measured work runs."""
        runs = []
        for _ in range(RUNS_PER_PROBE):
            start = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def kernel_at(self, t: float) -> float:
        """Kernel time around ``t``: the median of the
        :data:`NEAREST_PROBES` probes nearest to it, which damps the noise
        of a single probe yet follows drift lasting a few seconds."""
        if not self.times:
            raise RuntimeError("no calibration probe taken")
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST_PROBES // 2,
                        len(self.times) - NEAREST_PROBES))
        return statistics.median(self.kernel_s[lo:lo + NEAREST_PROBES])

    def scaled(self, start: float, end: float, sensitivity: float) -> float:
        """Seconds the interval would take on the reference host."""
        if not sensitivity:
            return end - start
        ratio = REFERENCE_S / self.kernel_at((start + end) / 2)
        return (end - start) * ratio ** sensitivity

    def factor(self) -> float:
        """Reference over median kernel time, for whole-run scaling."""
        return REFERENCE_S / statistics.median(self.kernel_s)
