"""One entry point per table/figure of the paper's evaluation.

Every function returns an :class:`ExperimentResult` whose ``text`` is a
printable table matching the figure's rows/series, and whose ``data``
holds the raw numbers for the benchmarks and EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.config.gpu import GPUConfig, L2Config
from repro.dram.energy import project_memory_system_energy
from repro.config.energy import hbm1_energy, hbm2_energy
from repro.harness.runner import Runner
from repro.harness.schemes import (
    ams_only,
    dms_only,
    dms_plus_ams,
    evaluation_schemes,
)
from repro.harness.tables import format_table, geomean
from repro.workloads.characteristics import GROUPS, TABLE_II

#: Delay sweep of Figs. 4/5 (memory cycles).
DELAY_SWEEP = (64, 128, 256, 512, 1024, 2048)
#: Pending-queue sizes of Figs. 2/13.
QUEUE_SIZES = (16, 32, 64, 128, 192, 256)

ALL_APPS = tuple(sorted(TABLE_II))
#: Error-tolerant applications (groups 1-3): the Fig. 12 population.
TOLERANT_APPS = GROUPS[1] + GROUPS[2] + GROUPS[3]


@dataclass
class ExperimentResult:
    """Formatted text plus raw data for one experiment."""

    experiment: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _queue_runner(runner: Runner, size: int) -> Runner:
    """The runner with a ``size``-entry pending queue: the parent's
    whole spec (device, ECC, faults, ...) with only the GPU config's
    queue size replaced. It inherits the parent's parallelism, cache,
    and fault-tolerance layers (content keys disambiguate configs);
    ``failures`` and ``metrics`` are shared *by reference* so
    quarantined cells and retry counters from sub-sweeps surface in the
    parent's manifest (and the CLI's exit code)."""
    spec = runner.spec
    config = replace(
        spec.config or GPUConfig(), pending_queue_size=size
    )
    return replace(runner, spec=replace(spec, config=config))


def _prefetch(
    runner: Runner,
    apps: Sequence[str],
    schemes: dict,
    *,
    measure_error: bool = False,
) -> None:
    """Fill the runner's memo for a sweep using the parallel path.

    The figure functions below iterate cells one at a time (their table
    layout needs per-cell access anyway); with ``jobs > 1`` this
    populates every cell concurrently first, turning those loops into
    memo hits. With ``jobs == 1`` it is a no-op — the serial loops
    already simulate on demand.
    """
    if runner.jobs > 1:
        runner.run_matrix(apps, schemes, measure_error=measure_error)


def _delay_sweep_schemes() -> dict:
    """Baseline plus the Fig. 4/5/10 DMS delay sweep."""
    schemes = {"Baseline": evaluation_schemes()["Baseline"]}
    for delay in DELAY_SWEEP:
        schemes[f"DMS({delay})"] = dms_only(delay)
    return schemes


# ----------------------------------------------------------------------
# Fig. 2 — pending queue size vs activations (baseline FR-FCFS)
# ----------------------------------------------------------------------
def fig02(
    runner: Runner, apps: Sequence[str] = ALL_APPS
) -> ExperimentResult:
    """Activations vs queue size, normalized to the 128-entry baseline."""
    acts: dict[str, dict[int, int]] = {app: {} for app in apps}
    for size in QUEUE_SIZES:
        sub = _queue_runner(runner, size)
        reports = sub.run_matrix(
            apps, {f"q{size}": evaluation_schemes()["Baseline"]}
        )
        for app in apps:
            acts[app][size] = reports[(app, f"q{size}")].activations
    data: dict[str, dict[int, float]] = {}
    for app in apps:
        ref = acts[app][128] or 1
        data[app] = {s: acts[app][s] / ref for s in QUEUE_SIZES}
    rows = [
        [app] + [data[app][s] for s in QUEUE_SIZES] for app in apps
    ]
    rows.append(
        ["GEOMEAN"]
        + [geomean(data[a][s] for a in apps) for s in QUEUE_SIZES]
    )
    text = format_table(
        ["App"] + [f"q={s}" for s in QUEUE_SIZES],
        rows,
        title="Fig. 2: activations vs pending-queue size "
        "(normalized to 128)",
    )
    return ExperimentResult("fig02", text, {"normalized_acts": data})


# ----------------------------------------------------------------------
# Fig. 4 — DMS delay sweep: activations and IPC
# ----------------------------------------------------------------------
def fig04(
    runner: Runner, apps: Sequence[str] = ALL_APPS
) -> ExperimentResult:
    """Normalized activations (a) and IPC (b) for DMS(64..2048)."""
    _prefetch(runner, apps, _delay_sweep_schemes())
    acts: dict[str, dict[int, float]] = {}
    ipcs: dict[str, dict[int, float]] = {}
    for app in apps:
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        acts[app], ipcs[app] = {}, {}
        for delay in DELAY_SWEEP:
            r = runner.run(app, dms_only(delay), label=f"DMS({delay})")
            acts[app][delay] = r.normalized_activations(base)
            ipcs[app][delay] = r.normalized_ipc(base)
    rows_a = [[a] + [acts[a][d] for d in DELAY_SWEEP] for a in apps]
    rows_a.append(
        ["GEOMEAN"] + [geomean(acts[a][d] for a in apps)
                       for d in DELAY_SWEEP]
    )
    rows_b = [[a] + [ipcs[a][d] for d in DELAY_SWEEP] for a in apps]
    rows_b.append(
        ["GEOMEAN"] + [geomean(ipcs[a][d] for a in apps)
                       for d in DELAY_SWEEP]
    )
    headers = ["App"] + [f"DMS({d})" for d in DELAY_SWEEP]
    text = (
        format_table(headers, rows_a,
                     title="Fig. 4(a): normalized activations")
        + "\n\n"
        + format_table(headers, rows_b, title="Fig. 4(b): normalized IPC")
    )
    return ExperimentResult(
        "fig04", text, {"activations": acts, "ipc": ipcs}
    )


# ----------------------------------------------------------------------
# Fig. 5 — RBL distribution of activations vs delay
# ----------------------------------------------------------------------
RBL_BUCKETS = ((1, 1), (2, 2), (3, 4), (5, 8), (9, 10**9))


def _bucket_shares(hist) -> list[float]:
    total = sum(hist.values()) or 1
    shares = []
    for lo, hi in RBL_BUCKETS:
        shares.append(
            sum(c for r, c in hist.items() if lo <= r <= hi) / total
        )
    return shares


def fig05(
    runner: Runner, apps: Sequence[str] = ("GEMM", "newtonraph")
) -> ExperimentResult:
    """Activation-count shares per RBL bucket as the delay grows."""
    _prefetch(runner, apps, _delay_sweep_schemes())
    data: dict[str, dict[int, list[float]]] = {}
    for app in apps:
        data[app] = {}
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        data[app][0] = _bucket_shares(base.rbl_histogram)
        for delay in DELAY_SWEEP:
            r = runner.run(app, dms_only(delay), label=f"DMS({delay})")
            data[app][delay] = _bucket_shares(r.rbl_histogram)
    headers = ["Delay"] + [
        f"RBL({lo})" if lo == hi else f"RBL({lo}-{'inf' if hi > 100 else hi})"
        for lo, hi in RBL_BUCKETS
    ]
    blocks = []
    for app in apps:
        rows = [[str(d)] + shares for d, shares in data[app].items()]
        blocks.append(
            format_table(headers, rows,
                         title=f"Fig. 5: {app} activation RBL shares")
        )
    return ExperimentResult("fig05", "\n\n".join(blocks), {"shares": data})


# ----------------------------------------------------------------------
# Fig. 6 — cumulative activations vs requests sorted by RBL
# ----------------------------------------------------------------------
def fig06(
    runner: Runner, apps: Sequence[str] = ("GEMM", "3MM")
) -> ExperimentResult:
    """CDF: x = fraction of read requests (sorted by their activation's
    RBL), y = fraction of total activations."""
    _prefetch(runner, apps,
              {"Baseline": evaluation_schemes()["Baseline"]})
    curves: dict[str, list[tuple[float, float]]] = {}
    for app in apps:
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        curves[app] = activation_cdf(base)
    blocks = []
    for app, points in curves.items():
        rows = [[f"{x:.4f}", f"{y:.4f}"] for x, y in points[:12]]
        blocks.append(
            format_table(
                ["req fraction", "act fraction"],
                rows,
                title=(
                    f"Fig. 6 ({app}): cumulative activations vs requests "
                    "(read-only rows, RBL ascending)"
                ),
            )
        )
    return ExperimentResult("fig06", "\n\n".join(blocks), {"curves": curves})


def activation_cdf(report) -> list[tuple[float, float]]:
    """Fig. 6 curve of one run: cumulative (request, activation)
    fractions of the read-only activations, RBL ascending.

    The denominators count *every* activation: requests total
    ``sum(rbl * count)`` and activations ``sum(count)`` over the full
    RBL histogram.
    """
    hist = report.rbl_histogram
    read_only: Counter = Counter()
    for stats in report.channel_stats:
        read_only.update(stats.read_only_rbl_histogram)
    total_reqs = sum(rbl * count for rbl, count in hist.items()) or 1
    total_acts = sum(hist.values()) or 1
    cum_req = cum_act = 0.0
    points = [(0.0, 0.0)]
    for rbl in sorted(read_only):
        count = read_only[rbl]
        cum_req += rbl * count / total_reqs
        cum_act += count / total_acts
        points.append((cum_req, cum_act))
    return points


# ----------------------------------------------------------------------
# Fig. 7 — LPS and SCP case studies
# ----------------------------------------------------------------------
def fig07(runner: Runner) -> ExperimentResult:
    """(a) LPS: DMS cannot reduce activations, AMS can.
    (b) SCP: AMS compensates DMS's IPC loss, enabling a larger delay."""
    result_rows = {}
    lps_cases = {
        "DMS(256)": dms_only(256),
        "DMS(512)": dms_only(512),
        "AMS(8)": ams_only(8),
    }
    scp_cases = {
        "DMS(128)": dms_only(128),
        "DMS(256)": dms_only(256),
        "AMS(8)": ams_only(8),
        "DMS(256)+AMS(8)": dms_plus_ams(256, 8),
    }
    baseline = {"Baseline": evaluation_schemes()["Baseline"]}
    _prefetch(runner, ("LPS",), {**baseline, **lps_cases},
              measure_error=True)
    _prefetch(runner, ("SCP",), {**baseline, **scp_cases},
              measure_error=True)
    blocks = []
    for app, cases in (("LPS", lps_cases), ("SCP", scp_cases)):
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        rows = []
        for label, scheme in cases.items():
            r = runner.run(app, scheme, label=label,
                           measure_error=scheme.ams.mode.value != "off")
            rows.append(
                [
                    label,
                    r.normalized_activations(base),
                    r.normalized_ipc(base),
                    r.coverage,
                    r.application_error if r.application_error is not None
                    else 0.0,
                ]
            )
            result_rows[(app, label)] = rows[-1][1:]
        blocks.append(
            format_table(
                ["Scheme", "norm acts", "norm IPC", "coverage", "app error"],
                rows,
                title=f"Fig. 7: {app} case study",
            )
        )
    return ExperimentResult("fig07", "\n\n".join(blocks),
                            {"rows": result_rows})


# ----------------------------------------------------------------------
# Fig. 10 — IPC vs BWUTIL linearity
# ----------------------------------------------------------------------
def fig10(
    runner: Runner,
    apps: Sequence[str] = ("SCP", "MVT", "CONS", "newtonraph"),
) -> ExperimentResult:
    """Per-app (BWUTIL, IPC) across delays + Pearson correlation."""
    _prefetch(runner, apps, _delay_sweep_schemes())
    data: dict[str, list[tuple[float, float]]] = {}
    corr: dict[str, float] = {}
    for app in apps:
        points = []
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        points.append((base.bwutil, base.ipc))
        for delay in DELAY_SWEEP:
            r = runner.run(app, dms_only(delay), label=f"DMS({delay})")
            points.append((r.bwutil, r.ipc))
        data[app] = points
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        corr[app] = float(np.corrcoef(xs, ys)[0, 1])
    rows = [[app, corr[app]] + [f"{x:.2f}/{y:.2f}" for x, y in data[app]]
            for app in apps]
    text = format_table(
        ["App", "pearson r"] + ["base"] + [f"DMS({d})" for d in DELAY_SWEEP],
        rows,
        title="Fig. 10: BWUTIL/IPC pairs across delays "
        "(expect r close to 1)",
    )
    return ExperimentResult("fig10", text, {"points": data, "corr": corr})


# ----------------------------------------------------------------------
# Fig. 11 — effect of reducing Th_RBL (SCP)
# ----------------------------------------------------------------------
def fig11(runner: Runner, app: str = "SCP") -> ExperimentResult:
    """Normalized activations for AMS(Th) as Th_RBL drops 8 -> 1."""
    _prefetch(
        runner,
        (app,),
        {"Baseline": evaluation_schemes()["Baseline"],
         **{f"AMS({th})": ams_only(th) for th in range(8, 0, -1)}},
    )
    base = runner.run(app, evaluation_schemes()["Baseline"],
                      label="Baseline")
    acts, covs = {}, {}
    for th in range(8, 0, -1):
        r = runner.run(app, ams_only(th), label=f"AMS({th})")
        acts[th] = r.normalized_activations(base)
        covs[th] = r.coverage
    hist = base.rbl_histogram
    total_reqs = sum(r * c for r, c in hist.items()) or 1
    rbl1_request_share = hist.get(1, 0) / total_reqs
    rows = [[f"AMS({th})", acts[th], covs[th]] for th in range(8, 0, -1)]
    text = format_table(
        ["Scheme", "norm acts", "coverage"],
        rows,
        title=(
            f"Fig. 11: {app} activations vs Th_RBL "
            f"(RBL(1) request share {rbl1_request_share:.1%})"
        ),
    )
    return ExperimentResult(
        "fig11",
        text,
        {"acts": acts, "coverage": covs,
         "rbl1_request_share": rbl1_request_share},
    )


# ----------------------------------------------------------------------
# Fig. 12 — main results (groups 1-3)
# ----------------------------------------------------------------------
def fig12(
    runner: Runner, apps: Sequence[str] = TOLERANT_APPS
) -> ExperimentResult:
    """Row energy, IPC, application error, coverage across schemes."""
    schemes = evaluation_schemes()
    results = runner.run_matrix(apps, schemes, measure_error=True)
    labels = [l for l in schemes if l != "Baseline"]
    metrics: dict[str, dict[tuple[str, str], float]] = {
        "row_energy": {},
        "ipc": {},
        "error": {},
        "coverage": {},
    }
    for app in apps:
        base = results[(app, "Baseline")]
        for label in labels:
            r = results[(app, label)]
            metrics["row_energy"][(app, label)] = r.normalized_row_energy(
                base
            )
            metrics["ipc"][(app, label)] = r.normalized_ipc(base)
            metrics["error"][(app, label)] = (
                r.application_error or 0.0
            )
            metrics["coverage"][(app, label)] = r.coverage
    blocks = []
    for metric, agg in (
        ("row_energy", geomean),
        ("ipc", geomean),
        ("error", lambda v: float(np.mean(list(v)))),
        ("coverage", lambda v: float(np.mean(list(v)))),
    ):
        rows = [
            [app] + [metrics[metric][(app, l)] for l in labels]
            for app in apps
        ]
        rows.append(
            ["MEAN"] + [agg(metrics[metric][(a, l)] for a in apps)
                        for l in labels]
        )
        blocks.append(
            format_table(
                ["App"] + labels, rows,
                title=f"Fig. 12: normalized {metric} (groups 1-3)",
            )
        )
    return ExperimentResult("fig12", "\n\n".join(blocks),
                            {"metrics": metrics, "labels": labels})


# ----------------------------------------------------------------------
# HBM projections (Section V, "Effect on Memory Energy")
# ----------------------------------------------------------------------
def hbm_projection(
    runner: Runner, apps: Sequence[str] = TOLERANT_APPS
) -> ExperimentResult:
    """Memory-system energy on HBM1/HBM2 for Dyn-DMS + Dyn-AMS."""
    schemes = evaluation_schemes()
    _prefetch(
        runner, apps,
        {"Baseline": schemes["Baseline"],
         "Dyn-DMS+Dyn-AMS": schemes["Dyn-DMS+Dyn-AMS"]},
    )
    rows = []
    ratios1, ratios2 = [], []
    for app in apps:
        base = runner.run(app, schemes["Baseline"], label="Baseline")
        combo = runner.run(app, schemes["Dyn-DMS+Dyn-AMS"],
                           label="Dyn-DMS+Dyn-AMS")
        h1 = project_memory_system_energy(
            base.row_energy_nj, combo.row_energy_nj, hbm1_energy()
        )
        h2 = project_memory_system_energy(
            base.row_energy_nj, combo.row_energy_nj, hbm2_energy()
        )
        ratios1.append(h1)
        ratios2.append(h2)
        rows.append([app, combo.normalized_row_energy(base), h1, h2])
    rows.append(["GEOMEAN", "", geomean(ratios1), geomean(ratios2)])
    text = format_table(
        ["App", "row energy", "HBM1 system", "HBM2 system"],
        rows,
        title=(
            "HBM memory-system energy (normalized; paper: ~0.78 HBM1, "
            "~0.89 HBM2)"
        ),
    )
    return ExperimentResult(
        "hbm", text, {"hbm1": ratios1, "hbm2": ratios2}
    )


# ----------------------------------------------------------------------
# Fig. 13 — queue size under DMS(2048)
# ----------------------------------------------------------------------
def fig13(
    runner: Runner, apps: Sequence[str] = ALL_APPS
) -> ExperimentResult:
    """Activations vs queue size with DMS(2048), normalized to the
    128-entry baseline (no delay)."""
    base_reports = runner.run_matrix(
        apps, {"Baseline": evaluation_schemes()["Baseline"]}
    )
    acts: dict[str, dict[int, int]] = {app: {} for app in apps}
    for size in QUEUE_SIZES:
        sub = _queue_runner(runner, size)
        reports = sub.run_matrix(apps, {f"DMS2048/q{size}": dms_only(2048)})
        for app in apps:
            acts[app][size] = reports[(app, f"DMS2048/q{size}")].activations
    data: dict[str, dict[int, float]] = {}
    for app in apps:
        base = base_reports[(app, "Baseline")]
        data[app] = {
            s: (acts[app][s] / base.activations
                if base.activations else 1.0)
            for s in QUEUE_SIZES
        }
    rows = [[a] + [data[a][s] for s in QUEUE_SIZES] for a in apps]
    rows.append(
        ["GEOMEAN"]
        + [geomean(data[a][s] for a in apps) for s in QUEUE_SIZES]
    )
    text = format_table(
        ["App"] + [f"q={s}" for s in QUEUE_SIZES],
        rows,
        title="Fig. 13: activations under DMS(2048) vs queue size "
        "(normalized to baseline q=128)",
    )
    return ExperimentResult("fig13", text, {"normalized_acts": data})


# ----------------------------------------------------------------------
# Fig. 14 — laplacian output quality
# ----------------------------------------------------------------------
def fig14(runner: Runner) -> ExperimentResult:
    """Exact vs approximate sharpened image under Dyn-DMS + Dyn-AMS."""
    from repro.approx.quality import psnr
    from repro.approx.replay import build_perturbed_inputs
    from repro.workloads.registry import get_workload

    schemes = evaluation_schemes()
    combo = runner.run(
        "laplacian", schemes["Dyn-DMS+Dyn-AMS"],
        label="Dyn-DMS+Dyn-AMS", measure_error=True
    )
    workload = get_workload("laplacian", scale=runner.scale,
                            seed=runner.seed)
    exact = workload.run_exact()
    perturbed = build_perturbed_inputs(
        workload.space, workload.arrays, combo.drops
    )
    approx = workload.run_approx(perturbed)
    quality = psnr(exact, approx)
    text = format_table(
        ["metric", "value"],
        [
            ["application error", combo.application_error or 0.0],
            ["coverage", combo.coverage],
            ["PSNR (dB)", quality],
            ["dropped lines", len(combo.drops)],
        ],
        title="Fig. 14: laplacian output quality "
        "(Dyn-DMS + Dyn-AMS)",
    )
    return ExperimentResult(
        "fig14",
        text,
        {
            "error": combo.application_error,
            "psnr": quality,
            "exact": exact,
            "approx": approx,
        },
    )


# ----------------------------------------------------------------------
# Fig. 15 — delay-only mode for Group-4 applications
# ----------------------------------------------------------------------
def fig15(
    runner: Runner, apps: Sequence[str] = GROUPS[4]
) -> ExperimentResult:
    """Row energy and IPC of Static-/Dyn-DMS on low-error-tolerance apps."""
    schemes = evaluation_schemes(include_ams=False)
    results = runner.run_matrix(apps, schemes)
    labels = ["Static-DMS", "Dyn-DMS"]
    rows = []
    energies = {l: [] for l in labels}
    ipcs = {l: [] for l in labels}
    for app in apps:
        base = results[(app, "Baseline")]
        row = [app]
        for label in labels:
            r = results[(app, label)]
            e = r.normalized_row_energy(base)
            i = r.normalized_ipc(base)
            energies[label].append(e)
            ipcs[label].append(i)
            row += [e, i]
        rows.append(row)
    rows.append(
        ["GEOMEAN"]
        + [
            v
            for label in labels
            for v in (geomean(energies[label]), geomean(ipcs[label]))
        ]
    )
    text = format_table(
        ["App", "S-DMS energy", "S-DMS IPC", "D-DMS energy", "D-DMS IPC"],
        rows,
        title="Fig. 15: delay-only mode, Group-4 applications",
    )
    return ExperimentResult(
        "fig15", text, {"energy": energies, "ipc": ipcs}
    )


# ----------------------------------------------------------------------
# Table II characterization
# ----------------------------------------------------------------------
def table2(
    runner: Runner, apps: Sequence[str] = ALL_APPS
) -> ExperimentResult:
    """Measure and classify every Table II/III feature on our traces."""
    from repro.workloads.characteristics import (
        classify_act_sensitivity,
        classify_delay_tolerance,
        classify_error_tolerance,
        classify_th_rbl_sensitivity,
        classify_thrashing,
    )

    _prefetch(
        runner, apps,
        {**_delay_sweep_schemes(), "AMS(8)": ams_only(8)},
        measure_error=True,
    )
    _prefetch(
        runner, apps,
        {f"AMS({th})": ams_only(th) for th in (4, 2, 1)},
    )
    rows = []
    matches = 0
    total = 0
    measured: dict[str, dict[str, str]] = {}
    for app in apps:
        base = runner.run(app, evaluation_schemes()["Baseline"],
                          label="Baseline")
        hist = base.rbl_histogram
        reqs = sum(r * c for r, c in hist.items()) or 1
        low = sum(r * c for r, c in hist.items() if 1 <= r <= 8)
        thrash_pct = 100 * low / reqs
        mtd = 0
        act_red_2048 = 0.0
        for delay in DELAY_SWEEP:
            r = runner.run(app, dms_only(delay), label=f"DMS({delay})")
            if r.normalized_ipc(base) >= 0.95:
                mtd = delay
            if delay == 2048:
                act_red_2048 = 100 * (1 - r.normalized_activations(base))
        r8 = runner.run(app, ams_only(8), label="AMS(8)",
                        measure_error=True)
        red8 = 100 * (1 - r8.normalized_activations(base))
        best_low = red8
        for th in (4, 2, 1):
            rt = runner.run(app, ams_only(th), label=f"AMS({th})")
            best_low = max(
                best_low, 100 * (1 - rt.normalized_activations(base))
            )
        err_pct = 100 * (r8.application_error or 0.0)
        got = {
            "thrashing": classify_thrashing(thrash_pct),
            "delay_tolerance": classify_delay_tolerance(mtd),
            "act_sensitivity": classify_act_sensitivity(act_red_2048),
            "th_rbl_sensitivity": classify_th_rbl_sensitivity(
                best_low - red8
            ),
            "error_tolerance": classify_error_tolerance(err_pct),
        }
        measured[app] = got
        want = TABLE_II[app]
        wants = {
            "thrashing": want.thrashing,
            "delay_tolerance": want.delay_tolerance,
            "act_sensitivity": want.act_sensitivity,
            "th_rbl_sensitivity": want.th_rbl_sensitivity,
            "error_tolerance": want.error_tolerance,
        }
        for k in got:
            total += 1
            if got[k] == wants[k]:
                matches += 1
        rows.append(
            [
                app,
                f"{got['thrashing']}/{wants['thrashing']}",
                f"{got['delay_tolerance']}/{wants['delay_tolerance']}",
                f"{got['act_sensitivity']}/{wants['act_sensitivity']}",
                f"{got['th_rbl_sensitivity']}/"
                f"{wants['th_rbl_sensitivity']}",
                f"{got['error_tolerance']}/{wants['error_tolerance']}",
            ]
        )
    text = format_table(
        ["App", "Thrash", "DelayTol", "ActSens", "ThSens", "ErrTol"],
        rows,
        title=(
            "Table II characterization (measured/paper) — "
            f"{matches}/{total} features match"
        ),
    )
    return ExperimentResult(
        "table2", text,
        {"measured": measured, "matches": matches, "total": total},
    )


#: Registry used by the CLI and the benchmarks.
EXPERIMENTS = {
    "fig02": fig02,
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "hbm": hbm_projection,
    "table2": table2,
}
