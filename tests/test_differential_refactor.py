"""Differential lock on the composable scheduler-policy refactor.

``tests/golden/seed_reports.json`` pins the ``SimReport.to_dict()``
payload of eight paper schemes, produced by the monolithic controller
the seed shipped with, in the layout reports then had (bus intervals,
profiler cursor and activation log per channel). These tests assert the
refactored pipeline — registry selectors, activation gates, drop
policies, :class:`SimSpec` — reproduces every payload
*field-identically*: the summary through ``to_dict()``, the rest
through the live system of the same run
(``scripts/regen_seed_reports.py:legacy_payload``). They also assert
that the named ``gddr5`` device preset is indistinguishable from the
legacy no-device path, and that the runner's report and the Fig. 6
curve agree with the pinned runs.

The fixture must never be regenerated to make these tests pass: a diff
here means the refactor changed simulator behaviour.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.config.scheduler import AMSMode, SchedulerConfig
from repro.harness.experiments import activation_cdf
from repro.harness.runner import Runner
from repro.sim.spec import SimSpec

REPO = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO / "tests" / "golden" / "seed_reports.json"

# The scheme set lives in the regeneration script so the fixture and the
# assertion can never drift apart; load it straight from the file.
_spec = importlib.util.spec_from_file_location(
    "_regen_seed_reports", REPO / "scripts" / "regen_seed_reports.py"
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

GOLDEN = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
SCHEMES = _regen.scheme_set()
FIXTURE = _regen.FIXTURE


def make_runner(**overrides) -> Runner:
    kwargs = dict(
        scale=FIXTURE["scale"], seed=FIXTURE["seed"],
        verbose=False, cache=None,
    )
    kwargs.update(overrides)
    return Runner(**kwargs)


def test_fixture_and_scheme_set_agree() -> None:
    assert GOLDEN["fixture"] == FIXTURE
    assert set(GOLDEN["reports"]) == set(SCHEMES)


def run_fixture_cell(scheme_id: str):
    scheme = SCHEMES[scheme_id]
    return make_runner().run(
        FIXTURE["workload"], scheme, label=scheme_id,
        measure_error=scheme.ams.mode is not AMSMode.OFF,
    )


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_scheme_reproduces_seed_payload(scheme_id: str) -> None:
    payload = _regen.legacy_payload(SCHEMES[scheme_id])
    assert payload == GOLDEN["reports"][scheme_id]


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_runner_report_is_the_live_runs_summary(scheme_id: str) -> None:
    """The report the runner caches and serves is the pinned live run's."""
    live, _system = _regen.simulate(SCHEMES[scheme_id])
    assert run_fixture_cell(scheme_id).to_dict() == live.to_dict()


def legacy_fig06_curve(payload: dict) -> list[tuple[float, float]]:
    """The Fig. 6 curve as computed from per-activation logs, before
    reports dropped them."""
    log = [
        rec for ch in payload["channel_stats"] for rec in ch["activation_log"]
    ]
    total_reqs = sum(rec["rbl"] for rec in log) or 1
    total_acts = len(log) or 1
    by_rbl: dict[int, int] = {}
    for rec in log:
        if rec["writes"] == 0:
            by_rbl[rec["rbl"]] = by_rbl.get(rec["rbl"], 0) + 1
    cum_req = cum_act = 0.0
    points = [(0.0, 0.0)]
    for rbl in sorted(by_rbl):
        count = by_rbl[rbl]
        cum_req += rbl * count / total_reqs
        cum_act += count / total_acts
        points.append((cum_req, cum_act))
    return points


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_fig06_curve_from_histograms_matches_activation_logs(
    scheme_id: str,
) -> None:
    golden = GOLDEN["reports"][scheme_id]
    report = run_fixture_cell(scheme_id)
    for stats, legacy in zip(report.channel_stats, golden["channel_stats"]):
        assert stats.read_only_rbl_histogram == Counter(
            rec["rbl"] for rec in legacy["activation_log"]
            if rec["writes"] == 0
        )
    assert activation_cdf(report) == legacy_fig06_curve(golden)


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_disabled_ecc_hook_is_field_identical(scheme_id: str) -> None:
    """``ecc="none"`` + faults off must be a zero-cost no-op.

    The injection hook sits on the served-column path of every scheme;
    with ECC and faults explicitly disabled the reports must stay
    bit-identical to the pre-ECC golden payloads — no extra keys, no
    energy delta, no counter drift.
    """
    from repro.config.faults import FaultConfig

    payload = _regen.legacy_payload(
        SCHEMES[scheme_id], SimSpec(ecc="none", faults=FaultConfig())
    )
    assert "ecc" not in payload
    assert "ecc_nj" not in payload["energy"]
    assert payload == GOLDEN["reports"][scheme_id]


def test_named_gddr5_device_is_field_identical_to_default() -> None:
    """Selecting --device gddr5 must change nothing but the cache key."""
    payload = _regen.legacy_payload(
        SchedulerConfig(), SimSpec(device="gddr5")
    )
    assert payload == GOLDEN["reports"]["frfcfs"]
