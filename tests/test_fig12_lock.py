"""Cross-application lock on the engine's event schedule.

``tests/golden/fig12_lock.json`` pins, for every Fig. 12 cell (the
error-tolerant applications under Baseline, Dyn-DMS and
Dyn-DMS+Dyn-AMS), the SHA-256 of the report's canonical JSON and the
number of events the engine processed. A hot-path change must keep
both: the same events in the same ``(time, seq)`` order, and reports
equal to the last float bit. ``scripts/regen_fig12_lock.py`` documents
the fixture's scale and seed; the fixture must never be regenerated to
make this test pass.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.harness.experiments import TOLERANT_APPS

REPO = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO / "tests" / "golden" / "fig12_lock.json"

_spec = importlib.util.spec_from_file_location(
    "_regen_fig12_lock", REPO / "scripts" / "regen_fig12_lock.py"
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

GOLDEN = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_the_matrix() -> None:
    assert GOLDEN["fixture"] == _regen.FIXTURE
    assert sorted(GOLDEN["cells"]) == sorted(TOLERANT_APPS)
    for row in GOLDEN["cells"].values():
        assert sorted(row) == sorted(_regen.SCHEMES)


@pytest.mark.parametrize("app", TOLERANT_APPS)
def test_row_reproduces_pinned_reports_and_event_counts(app: str) -> None:
    assert _regen.simulate_row(app) == GOLDEN["cells"][app]
