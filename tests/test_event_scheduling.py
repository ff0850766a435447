"""Property suites for the scheduling backends and the warm pool.

Two families:

* **Wheel vs. heap equivalence** — the bucketed timer wheel is the
  default engine backend purely as an optimization; the seed's global
  heap remains the reference. Hypothesis drives both backends through
  identical schedules (fractional times, past-clamped times, overflow
  beyond the wheel horizon, nested pushes from callbacks, cancellation
  — including cancellation *during* the run — plus ``until`` cutoffs
  and the ``max_events`` guard) and asserts the execution logs are
  identical event for event.
* **Warm-pool determinism** — a matrix simulated serially and over
  warm worker processes must produce field-identical reports (the
  codec round trip and the per-cell request-id reset are load-bearing
  here).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import WHEEL_HORIZON

# Times span the wheel generously: fractional sub-cycle offsets (the
# core-to-memory clock ratio makes most real event times non-integral),
# plus values far beyond the horizon to force the overflow heap and the
# batch-advance path.
_times = st.one_of(
    st.integers(0, 50).map(float),
    st.floats(min_value=0.0, max_value=3.0 * WHEEL_HORIZON,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)

_delays = st.floats(min_value=0.0, max_value=2.0 * WHEEL_HORIZON,
                    allow_nan=False, allow_infinity=False)


@st.composite
def _schedules(draw):
    """A schedule: initial events with nested pushes and cancellations.

    Each event is ``(time, nested_delays, cancel_target)``: when it
    runs, it schedules a follow-up per nested delay and (optionally)
    cancels the initial event ``cancel_target`` — which may already
    have run or been cancelled, both no-ops that must stay no-ops on
    either backend.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    events = []
    for _ in range(n):
        time = draw(_times)
        nested = draw(st.lists(_delays, max_size=2))
        cancel_target = draw(
            st.one_of(st.none(), st.integers(0, n - 1))
        )
        events.append((time, nested, cancel_target))
    pre_cancels = draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    )
    return events, pre_cancels


def _execute(backend, events, pre_cancels, *, until=None, max_events=None):
    """Run one schedule on ``backend``; returns every observable."""
    engine = Engine(backend=backend)
    log: list[tuple[float, object]] = []
    handles: list[int] = []

    def make_callback(label, nested, cancel_target):
        def callback() -> None:
            log.append((engine.now, label))
            if cancel_target is not None and cancel_target < len(handles):
                engine.cancel(handles[cancel_target])
            for j, delay in enumerate(nested):
                engine.after(delay, make_callback((label, j), (), None))
        return callback

    for i, (time, nested, cancel_target) in enumerate(events):
        handles.append(
            engine.at(time, make_callback(i, nested, cancel_target))
        )
    for idx in pre_cancels:
        engine.cancel(handles[idx])
    overflowed = False
    try:
        engine.run(until=until, max_events=max_events)
    except SimulationError:
        overflowed = True
    return (
        log, overflowed, engine.events_processed,
        engine.events_cancelled, engine.live_event_count, engine.now,
    )


class TestWheelHeapEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_schedules())
    def test_full_drain_order_identical(self, schedule) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels)
            == _execute("heap", events, pre_cancels)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        _schedules(),
        st.floats(min_value=0.0, max_value=2.0 * WHEEL_HORIZON,
                  allow_nan=False),
    )
    def test_until_cutoff_identical(self, schedule, until) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels, until=until)
            == _execute("heap", events, pre_cancels, until=until)
        )

    @settings(max_examples=100, deadline=None)
    @given(_schedules(), st.integers(min_value=1, max_value=20))
    def test_max_events_guard_identical(self, schedule, cap) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels, max_events=cap)
            == _execute("heap", events, pre_cancels, max_events=cap)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        _schedules(),
        st.floats(min_value=0.0, max_value=WHEEL_HORIZON,
                  allow_nan=False),
    )
    def test_resumed_run_identical(self, schedule, until) -> None:
        """``run(until=...)`` then ``run()`` — the two-phase drive the
        telemetry windows use — stays equivalent across backends."""
        events, pre_cancels = schedule

        def two_phase(backend):
            engine = Engine(backend=backend)
            log: list[tuple[float, int]] = []
            handles = [
                engine.at(time, lambda i=i: log.append((engine.now, i)))
                for i, (time, _, _) in enumerate(events)
            ]
            for idx in pre_cancels:
                engine.cancel(handles[idx])
            engine.run(until=until)
            midpoint = list(log)
            # Cancelling an executed or an already-cancelled handle is
            # a no-op on either backend.
            for _, i in midpoint:
                engine.cancel(handles[i])
            for idx in pre_cancels:
                engine.cancel(handles[idx])
            engine.run()
            return (
                midpoint, log, engine.now, engine.events_processed,
                engine.events_cancelled,
            )

        assert two_phase("wheel") == two_phase("heap")


class TestWarmPoolDeterminism:
    def test_serial_pooled_field_identical(self) -> None:
        """One matrix, serial and pooled, byte-identical reports."""
        from repro.harness.runner import Runner
        from repro.harness.schemes import dms_only, evaluation_schemes

        apps = ["SCP", "GEMM"]
        schemes = {
            "Baseline": evaluation_schemes()["Baseline"],
            "DMS(128)": dms_only(128),
        }

        def run(**kwargs):
            runner = Runner(
                scale=0.1, seed=7, cache=None, verbose=False, **kwargs
            )
            result = runner.run_matrix(apps, schemes)
            runner.close()
            return {
                cell: report.to_dict() for cell, report in result.items()
            }

        assert run(jobs=1) == run(jobs=4)

    def test_pool_survives_across_matrices(self) -> None:
        """The second matrix on one runner reuses the warm workers."""
        from repro.harness.runner import Runner
        from repro.harness.schemes import dms_only, evaluation_schemes

        runner = Runner(scale=0.1, seed=7, cache=None, verbose=False,
                        jobs=2)
        runner.prewarm()
        pool = runner._pool
        assert pool is not None and not pool.closed
        first = runner.run_matrix(
            ["SCP", "GEMM"],
            {"Baseline": evaluation_schemes()["Baseline"]},
        )
        second = runner.run_matrix(
            ["SCP", "GEMM"], {"DMS(128)": dms_only(128)}
        )
        assert runner._pool is pool  # no teardown between matrices
        assert first and second
        runner.close()
        assert pool.closed
