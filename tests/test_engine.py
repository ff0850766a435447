"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestEngine:
    def test_events_run_in_time_order(self) -> None:
        e = Engine()
        log: list[str] = []
        e.at(10, lambda: log.append("b"))
        e.at(5, lambda: log.append("a"))
        e.at(20, lambda: log.append("c"))
        e.run()
        assert log == ["a", "b", "c"]
        assert e.now == 20

    def test_ties_break_by_insertion_order(self) -> None:
        e = Engine()
        log: list[int] = []
        for i in range(5):
            e.at(7, lambda i=i: log.append(i))
        e.run()
        assert log == [0, 1, 2, 3, 4]

    def test_after_is_relative(self) -> None:
        e = Engine()
        seen: list[float] = []
        e.at(10, lambda: e.after(5, lambda: seen.append(e.now)))
        e.run()
        assert seen == [15]

    def test_negative_delay_rejected(self) -> None:
        e = Engine()
        with pytest.raises(SimulationError):
            e.after(-1, lambda: None)

    def test_past_schedule_clamped_to_now(self) -> None:
        e = Engine()
        seen: list[float] = []
        e.at(10, lambda: e.at(3, lambda: seen.append(e.now)))
        e.run()
        assert seen == [10]

    def test_run_until_stops_and_advances_clock(self) -> None:
        e = Engine()
        log: list[float] = []
        e.at(5, lambda: log.append(5))
        e.at(50, lambda: log.append(50))
        e.run(until=20)
        assert log == [5]
        assert e.now == 20
        e.run()
        assert log == [5, 50]

    def test_max_events_guard(self) -> None:
        e = Engine()

        def loop() -> None:
            e.after(1, loop)

        e.at(0, loop)
        with pytest.raises(SimulationError):
            e.run(max_events=100)

    def test_idle_and_peek(self) -> None:
        e = Engine()
        assert e.idle
        assert e.peek_time() is None
        e.at(4, lambda: None)
        assert not e.idle
        assert e.peek_time() == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self) -> None:
        e = Engine()
        log: list[str] = []
        handle = e.at(10, lambda: log.append("cancelled"))
        e.at(5, lambda: log.append("kept"))
        e.cancel(handle)
        e.run()
        assert log == ["kept"]
        assert e.events_cancelled == 1

    def test_cancelled_events_not_counted_as_processed(self) -> None:
        e = Engine()
        handles = [e.at(t, lambda: None) for t in (1, 2, 3)]
        e.cancel(handles[1])
        e.run()
        assert e.events_processed == 2
        assert e.events_cancelled == 1

    def test_cancel_clears_idle_and_peek(self) -> None:
        e = Engine()
        handle = e.at(4, lambda: None)
        e.cancel(handle)
        assert e.idle
        assert e.peek_time() is None

    def test_peek_skips_cancelled_head(self) -> None:
        e = Engine()
        first = e.at(2, lambda: None)
        e.at(9, lambda: None)
        e.cancel(first)
        assert e.peek_time() == 9

    def test_cancel_unknown_handle_is_harmless(self) -> None:
        e = Engine()
        e.cancel(12345)
        e.at(1, lambda: None)
        e.run()
        assert e.events_processed == 1

    def test_cancel_unknown_handle_is_not_counted(self) -> None:
        e = Engine()
        e.cancel(12345)
        e.cancel(None)
        assert e.events_cancelled == 0

    def test_cancel_twice_counts_once(self) -> None:
        e = Engine()
        handle = e.at(4, lambda: None)
        e.at(6, lambda: None)
        e.cancel(handle)
        e.cancel(handle)
        assert e.events_cancelled == 1
        assert e.live_event_count == 1
        e.run()
        assert e.events_processed == 1

    def test_cancel_after_execution_is_not_counted(self) -> None:
        e = Engine()
        log: list[float] = []
        handle = e.at(2, lambda: log.append(e.now))
        late = e.at(5, lambda: log.append(e.now))
        e.run(until=3)
        e.cancel(handle)
        assert e.events_cancelled == 0
        assert e.live_event_count == 1
        e.run()
        e.cancel(late)
        assert log == [2, 5]
        assert e.events_cancelled == 0

    def test_cancel_own_handle_inside_callback_is_not_counted(self) -> None:
        e = Engine()
        handles = []
        handles.append(e.at(1, lambda: e.cancel(handles[0])))
        e.run()
        assert e.events_processed == 1
        assert e.events_cancelled == 0

    def test_cancelled_event_not_run_by_until(self) -> None:
        e = Engine()
        log: list[float] = []
        handle = e.at(3, lambda: log.append(e.now))
        e.at(7, lambda: log.append(e.now))
        e.cancel(handle)
        e.run(until=5)
        assert log == []
        e.run()
        assert log == [7]
