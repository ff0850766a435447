"""The repository benchmark: one command per workload, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload fig12-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics, writes the spans
as Chrome trace-event JSON under ``.perfbench/traces/`` and prints a
self-time table per layer with the tracing overhead. Both print a
human-readable table first and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every metric ``BENCHMARK.json`` lists for that mode. Every run appends a
record stamped with the source digest, core count and library versions
to ``.perfbench/results.jsonl``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the command fails before measuring anything. It exits 1 when
any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _commit(root: Path):
    """The checked-out commit, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """SHA-256 over every program source file, so results of different
    code are never compared silently where no commit id exists."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args) -> dict:
    import numpy

    return {
        "commit": _commit(ROOT),
        "src_sha256": _source_digest(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    print(f"\n{title}")
    for i, row in enumerate(cells):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))


def report_end_to_end(run, spec: dict) -> None:
    from catalog import PAPER_REFERENCE
    from hostspeed import REFERENCE_S

    gated = {m["name"] for m in spec["end_to_end"]}
    rows = []
    for name, (value, raw, unit, n) in run.metrics.items():
        rows.append([
            name, f"{value:.6g}", f"{raw:.6g}", unit, n,
            "driver" if name in gated else "printed",
            PAPER_REFERENCE.get(name, ""),
        ])
    _print_table(
        f"end-to-end metrics ({'traced' if run.tracer else 'untraced'} "
        "run; host time except model.*)",
        ["metric", "value", "raw", "unit", "n", "compared by",
         "paper Fig. 12 reference (not a validation)"],
        rows,
    )
    print(
        f"  value = scaled to the reference host (hostspeed.py: calibration "
        f"kernel {1000 * REFERENCE_S:g} ms there, median "
        f"{run.metrics['host.kernel_ms'][0]:.3f} ms here); raw = wall time.\n"
        "  model.* are simulated at scale 0.5, a drift detector: the "
        "calibrated scale is 1.0\n  and the model is unvalidated against "
        "hardware, so the paper column is a reference, not a target."
    )


def report_layers(run, spec: dict, layers: dict) -> None:
    from catalog import PER_LAYER_MOVES

    table = run.tracer.self_times()
    # Shares are of the time spent inside outermost spans, which on the
    # multi-threaded service client is busy time summed over clients.
    traced_s = sum(
        s.duration for s in run.tracer.spans if s.parent is None
    ) or 1.0
    rows = [
        [name, int(row["calls"]), f"{1000 * row['self_s']:.1f}",
         f"{1000 * row['self_s'] / row['calls']:.3f}",
         f"{100 * row['self_s'] / traced_s:.1f}"]
        for name, row in sorted(
            table.items(), key=lambda kv: -kv[1]["self_s"]
        )
    ]
    _print_table(
        "self time per span (traced segment)",
        ["span", "calls", "self ms", "self ms/call", "% of traced work"],
        rows,
    )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rows = [
        [name, f"{layers[name]:.6g}", units[name],
         ", ".join(f"{m} @ {w}" for m, w in PER_LAYER_MOVES.get(name, []))]
        for name in units
    ]
    _print_table(
        "per-layer metrics", ["metric", "value", "unit", "should move"], rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="cell workload scale (default 0.5; smaller only for smoke tests)",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {names})")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_CHAOS", None)

    import workloads

    if args.scale is None:
        args.scale = workloads.SCALE
    info = stamp(args)
    print("stamp: " + json.dumps(info, sort_keys=True))
    work = OUT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(
        root=ROOT, work=work, seed=args.seed, scale=args.scale,
        seconds=args.seconds, trace=bool(args.trace),
    )
    started = time.time()
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if run.tracer is not None:
            run.tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    mode = "per_layer" if args.trace else "end_to_end"
    report_end_to_end(run, spec)
    if args.trace:
        values = workloads.layer_metrics(run)
        report_layers(run, spec, values)
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        events = run.tracer.write_chrome_trace(trace_path, metadata=info)
        print(f"\ntrace: {events} events -> {trace_path.relative_to(ROOT)}"
              f"; tracing overhead {values['trace.overhead_pct']:+.2f} %")
    else:
        values = {name: v[0] for name, v in run.metrics.items()}
    units = {m["name"]: m["unit"] for m in spec[mode]}
    missing = [name for name in units if name not in values]
    for name in missing:
        run.mismatch(f"metric {name} was not measured")
    for what in run.mismatches + run.errors:
        print(f"FAILED: {what}")

    correct = not run.mismatches
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = dict(result, stamp=info, started=started, all_metrics={
        name: {"value": v, "raw": r, "unit": u, "n": n}
        for name, (v, r, u, n) in run.metrics.items()
    })
    if args.trace:
        record["per_layer"] = values
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
