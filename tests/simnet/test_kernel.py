"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Kernel,
    Process,
    ProcessKilled,
    SimulationError,
    Timeout,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_custom_start_time(self):
        assert Kernel(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, kernel):
        kernel.timeout(2.5)
        kernel.run()
        assert kernel.now == 2.5

    def test_run_until_deadline_advances_exactly_to_deadline(self, kernel):
        kernel.timeout(10.0)
        kernel.run(until=4.0)
        assert kernel.now == 4.0

    def test_run_until_past_deadline_rejected(self, kernel):
        kernel.timeout(1.0)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run(until=0.5)

    def test_negative_timeout_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.timeout(-1.0)

    def test_step_on_empty_queue_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.step()


class TestEvent:
    def test_succeed_carries_value(self, kernel):
        event = kernel.event()
        event.succeed(42)
        kernel.run()
        assert event.ok and event.value == 42

    def test_double_succeed_rejected(self, kernel):
        event = kernel.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_rejected(self, kernel):
        event = kernel.event()
        event.fail(ValueError("boom"))
        event.defused = True
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self, kernel):
        with pytest.raises(TypeError):
            kernel.event().fail("not an exception")

    def test_value_before_trigger_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.event().value

    def test_unhandled_failure_propagates_out_of_run(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            kernel.run()

    def test_defused_failure_does_not_propagate(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("handled"))
        event.defused = True
        kernel.run()
        assert event.exception is not None

    def test_callback_after_processed_still_fires(self, kernel):
        event = kernel.event()
        event.succeed("late")
        kernel.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        kernel.run()
        assert seen == ["late"]

    def test_callbacks_fire_in_registration_order(self, kernel):
        event = kernel.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        kernel.run()
        assert order == [1, 2]


class TestProcess:
    def test_return_value_becomes_event_value(self, kernel):
        def proc(k):
            yield k.timeout(1.0)
            return "done"

        result = kernel.run_process(proc(kernel))
        assert result == "done"
        assert kernel.now == 1.0

    def test_timeout_value_is_sent_back_in(self, kernel):
        def proc(k):
            got = yield k.timeout(0.5, value="tick")
            return got

        assert kernel.run_process(proc(kernel)) == "tick"

    def test_processes_wait_on_each_other(self, kernel):
        def child(k):
            yield k.timeout(3.0)
            return 7

        def parent(k):
            value = yield k.process(child(k))
            return value * 2

        assert kernel.run_process(parent(kernel)) == 14
        assert kernel.now == 3.0

    def test_exception_in_process_fails_the_event(self, kernel):
        def proc(k):
            yield k.timeout(1.0)
            raise ValueError("inner")

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, ValueError)

    def test_failure_propagates_to_waiting_process(self, kernel):
        def child(k):
            yield k.timeout(1.0)
            raise ValueError("child failed")

        def parent(k):
            try:
                yield k.process(child(k))
            except ValueError as exc:
                return f"caught: {exc}"

        assert kernel.run_process(parent(kernel)) == "caught: child failed"

    def test_yielding_non_event_fails_process(self, kernel):
        def proc(k):
            yield 42

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, SimulationError)

    def test_cross_kernel_event_rejected(self, kernel):
        other = Kernel()

        def proc(k):
            yield other.timeout(1.0)

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, SimulationError)

    def test_non_generator_rejected(self, kernel):
        with pytest.raises(SimulationError):
            Process(kernel, lambda: None)

    def test_interrupt_wakes_sleeping_process(self, kernel):
        def sleeper(k):
            try:
                yield k.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, k.now)

        process = kernel.process(sleeper(kernel))
        kernel.call_later(2.0, lambda: process.interrupt("wake up"))
        kernel.run()
        assert process.value == ("interrupted", "wake up", 2.0)

    def test_interrupting_dead_process_raises(self, kernel):
        def quick(k):
            yield k.timeout(0.1)

        process = kernel.process(quick(kernel))
        kernel.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_kill_terminates_without_aborting_simulation(self, kernel):
        def sleeper(k):
            yield k.timeout(100.0)

        process = kernel.process(sleeper(kernel))
        kernel.call_later(1.0, lambda: process.kill("shutdown"))
        kernel.run()  # must not raise despite the unhandled ProcessKilled
        assert isinstance(process.exception, ProcessKilled)

    def test_run_process_detects_deadlock(self, kernel):
        def stuck(k):
            yield k.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            kernel.run_process(stuck(kernel))

    def test_immediately_processed_event_resumes_without_parking(self, kernel):
        """Waiting on an already-processed event continues in the same step."""

        def proc(k):
            event = k.event()
            event.succeed("early")
            yield k.timeout(0)  # let the event be processed
            got = yield event
            return got

        assert kernel.run_process(proc(kernel)) == "early"


class TestConditions:
    def test_any_of_returns_first(self, kernel):
        def proc(k):
            fast = k.timeout(1.0, value="fast")
            slow = k.timeout(5.0, value="slow")
            done = yield AnyOf(k, [fast, slow])
            return (list(done.values()), k.now)

        values, now = kernel.run_process(proc(kernel))
        assert values == ["fast"]
        assert now == 1.0

    def test_all_of_waits_for_all(self, kernel):
        def proc(k):
            first = k.timeout(1.0, value=1)
            second = k.timeout(5.0, value=2)
            done = yield AllOf(k, [first, second])
            return (sorted(done.values()), k.now)

        values, now = kernel.run_process(proc(kernel))
        assert values == [1, 2]
        assert now == 5.0

    def test_all_of_fails_fast(self, kernel):
        def proc(k):
            good = k.timeout(10.0)
            bad = k.event()
            k.call_later(1.0, lambda: bad.fail(ValueError("nope")))
            try:
                yield AllOf(k, [good, bad])
            except ValueError:
                return k.now

        assert kernel.run_process(proc(kernel)) == 1.0

    def test_empty_all_of_succeeds_immediately(self, kernel):
        def proc(k):
            result = yield AllOf(k, [])
            return result

        assert kernel.run_process(proc(kernel)) == {}

    def test_any_of_with_already_triggered_event(self, kernel):
        def proc(k):
            done = k.event()
            done.succeed("pre")
            yield k.timeout(0)
            result = yield AnyOf(k, [done, k.timeout(10)])
            return list(result.values())

        assert kernel.run_process(proc(kernel)) == ["pre"]


class TestScheduling:
    def test_same_time_events_fifo(self, kernel):
        order = []
        for i in range(5):
            kernel.call_later(1.0, lambda i=i: order.append(i))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_soon_runs_at_current_time(self, kernel):
        seen = []
        kernel.call_soon(lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [0.0]

    def test_peek_reports_next_event_time(self, kernel):
        kernel.timeout(3.0)
        kernel.timeout(1.0)
        assert kernel.peek() == 1.0

    def test_peek_empty_queue_is_infinite(self, kernel):
        assert Kernel().peek() == float("inf")

    def test_processed_events_counter(self, kernel):
        for _ in range(4):
            kernel.timeout(1.0)
        kernel.run()
        assert kernel.processed_events == 4

    def test_nested_scheduling_during_run(self, kernel):
        """Events scheduled by callbacks during run() are also executed."""
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                kernel.call_later(1.0, lambda: chain(depth + 1))

        kernel.call_soon(lambda: chain(0))
        kernel.run()
        assert seen == [0, 1, 2, 3]
        assert kernel.now == 3.0

    def test_negative_call_later_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.call_later(-0.5, lambda: None)


class TestCancellation:
    def test_cancelled_callback_never_runs_and_is_not_counted(self, kernel):
        fired = []
        kernel.call_later(1.0, lambda: fired.append("kept"))
        kernel.cancel(kernel.call_later(2.0, lambda: fired.append("cancelled")))
        kernel.cancel(kernel.call_soon(lambda: fired.append("soon")))
        kernel.run()
        assert fired == ["kept"]
        assert kernel.processed_events == 1

    def test_cancelled_last_entry_still_moves_the_clock(self, kernel):
        kernel.call_later(1.0, lambda: None)
        kernel.cancel(kernel.call_later(5.0, lambda: None))
        assert kernel.peek() == 1.0
        kernel.run()
        assert kernel.now == 5.0

    def test_cancel_after_fire_and_cancel_none_are_noops(self, kernel):
        fired = []
        handle = kernel.call_later(1.0, lambda: fired.append("first"))
        kernel.run()
        kernel.call_later(1.0, lambda: fired.append("second"))
        kernel.cancel(handle)
        kernel.cancel(None)
        kernel.run()
        assert fired == ["first", "second"]
        assert kernel.processed_events == 2

    def test_cancel_from_an_earlier_callback(self, kernel):
        fired = []
        late = kernel.call_later(2.0, lambda: fired.append("late"))
        kernel.call_later(1.0, lambda: kernel.cancel(late))
        kernel.run()
        assert fired == []
        assert kernel.now == 2.0


class TestNames:
    def test_timeout_name_is_formatted_on_read(self, kernel):
        assert kernel.timeout(0.25).name == "Timeout(0.25)"

    def test_explicit_and_default_names(self, kernel):
        assert kernel.event(name="recv").name == "recv"
        assert kernel.event().name == "Event"

        def worker(k):
            yield k.timeout(1.0)

        assert kernel.process(worker(kernel)).name == "worker"
        assert kernel.process(worker(kernel), name="pump").name == "pump"
