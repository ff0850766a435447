"""Sharing one workload, trace and exact kernel run across a matrix row.

The cells of a row differ only in their scheme, so the runner keeps the
last workload it built (``runner._row_slot``) and the workload keeps
its last trace (``Workload.streams``) and exact output
(``Workload.run_exact``). That is only sound while kernels leave their
inputs alone and traces are a pure function of (workload, config); the
tests below pin both, and check that sharing changes no report.
"""

import json
from dataclasses import replace

import pytest

from repro.config.address import AddressMapping
from repro.config.gpu import GPUConfig
from repro.harness import runner as runner_mod
from repro.harness.runner import Runner
from repro.harness.schemes import evaluation_schemes
from repro.workloads import get_workload, list_workloads

SCALE = 0.1
SEED = 3
APPS = ("SCP", "RAY")


@pytest.fixture(autouse=True)
def empty_slot(monkeypatch):
    monkeypatch.setattr(runner_mod, "_row_slot", None)


@pytest.mark.parametrize("name", list_workloads())
def test_kernel_leaves_inputs_unchanged(name: str) -> None:
    workload = get_workload(name, scale=SCALE, seed=SEED)
    before = {k: a.copy() for k, a in workload.arrays.items()}
    workload.run_kernel(workload.arrays)
    for key, array in workload.arrays.items():
        assert array.dtype == before[key].dtype
        assert array.tobytes() == before[key].tobytes(), key


@pytest.mark.parametrize("name", list_workloads())
def test_streams_equal_a_fresh_trace(name: str) -> None:
    config = GPUConfig()
    permuted = replace(config, mapping=AddressMapping(scheme="permuted"))
    workload = get_workload(name, scale=SCALE, seed=SEED)
    shared = workload.streams(config)
    assert workload.streams(config) is shared
    fresh = get_workload(name, scale=SCALE, seed=SEED)
    assert shared == fresh.warp_streams(config)
    # Another resolved config is another trace, not the kept one.
    assert workload.streams(permuted) == fresh.warp_streams(permuted)


def _encoded(reports) -> dict:
    return {cell: json.dumps(r.to_dict()) for cell, r in reports.items()}


def _run_cells(order) -> dict:
    runner = Runner(
        scale=SCALE, seed=SEED, verbose=False, cache=None, faults=None
    )
    schemes = evaluation_schemes()
    return {
        (app, label): runner.run(
            app, schemes[label], label=label, measure_error=True
        )
        for app, label in order
    }


def test_row_order_shares_and_matches_interleaved(monkeypatch) -> None:
    labels = list(evaluation_schemes())
    row_order = [(app, label) for app in APPS for label in labels]
    interleaved = [(app, label) for label in labels for app in APPS]

    builds: list[str] = []
    traces: list[str] = []
    build = runner_mod.get_workload

    def counting_get_workload(name, **kwargs):
        builds.append(name)
        workload = build(name, **kwargs)
        generate = workload.warp_streams

        def warp_streams(config):
            traces.append(name)
            return generate(config)

        workload.warp_streams = warp_streams
        return workload

    monkeypatch.setattr(runner_mod, "get_workload", counting_get_workload)
    shared = _run_cells(row_order)
    assert builds == list(APPS)
    assert traces == list(APPS)

    builds.clear()
    traces.clear()
    unshared = _run_cells(interleaved)
    assert builds == [app for _ in labels for app in APPS]
    assert traces == builds

    assert _encoded(shared) == _encoded(unshared)
    assert any(
        r.application_error for (app, _), r in shared.items() if app == "RAY"
    )


def _pooled_run(apps, schemes) -> tuple[dict, dict[int, list[str]]]:
    """Run a matrix on a 2-worker pool; return its reports and the
    apps of the cells each worker was sent, in order."""
    pooled = Runner(
        scale=SCALE, seed=SEED, verbose=False, cache=None, faults=None,
        jobs=2,
    )
    try:
        pooled.prewarm()
        sent: dict[int, list[str]] = {}
        for slot, worker in enumerate(pooled._pool._workers):
            def record(msg, slot=slot, send=worker.conn.send):
                if isinstance(msg, list):
                    sent.setdefault(slot, []).extend(
                        payload["cell"]["app"] for _, payload in msg
                    )
                send(msg)

            worker.conn.send = record
        result = pooled.run_matrix(apps, schemes, measure_error=True)
    finally:
        pooled.close()
    return result, sent


def _serial_run(apps, schemes) -> dict:
    return Runner(
        scale=SCALE, seed=SEED, verbose=False, cache=None, faults=None
    ).run_matrix(apps, schemes, measure_error=True)


def test_pooled_rows_stay_on_one_worker() -> None:
    schemes = evaluation_schemes()
    result, sent = _pooled_run(APPS, schemes)
    assert sorted(sent) == [0, 1]
    for apps in sent.values():
        assert len(set(apps)) == 1 and len(apps) == len(schemes)
    assert _encoded(result) == _encoded(_serial_run(APPS, schemes))


def test_pooled_single_row_uses_every_worker() -> None:
    # Fewer rows than workers: the row is split rather than serialised
    # on one worker while the other idles.
    schemes = evaluation_schemes()
    result, sent = _pooled_run(("SCP",), schemes)
    assert sorted(sent) == [0, 1]
    assert sorted(len(apps) for apps in sent.values()) == [
        len(schemes) // 2, len(schemes) - len(schemes) // 2
    ]
    assert _encoded(result) == _encoded(_serial_run(("SCP",), schemes))
