"""Property-based tests (hypothesis) for discrete-event kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.simnet.kernel import Kernel


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100)
def test_clock_is_monotonic_and_events_fire_in_time_order(delays):
    """No matter the scheduling order, events are processed by timestamp."""
    kernel = Kernel()
    fired = []
    for delay in delays:
        kernel.call_later(delay, lambda d=delay: fired.append((kernel.now, d)))
    kernel.run()
    observed_times = [t for t, _ in fired]
    assert observed_times == sorted(observed_times)
    # Each callback fires exactly at its requested delay.
    assert all(t == d for t, d in fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
@settings(max_examples=50)
def test_final_clock_equals_max_delay(delays):
    kernel = Kernel()
    for delay in delays:
        kernel.timeout(delay)
    kernel.run()
    assert kernel.now == max(delays)


@given(
    groups=st.lists(
        st.tuples(st.floats(min_value=0, max_value=10), st.integers(1, 5)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=50)
def test_same_timestamp_events_fire_fifo(groups):
    """Ties are broken by scheduling order (determinism guarantee)."""
    kernel = Kernel()
    fired = []
    for group_index, (delay, count) in enumerate(groups):
        for i in range(count):
            kernel.call_later(delay, lambda g=group_index, i=i: fired.append((g, i)))
    kernel.run()
    # Within each group (same delay, same scheduling order) FIFO must hold.
    for group_index, (_, count) in enumerate(groups):
        order = [i for g, i in fired if g == group_index]
        assert order == sorted(order)


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(["timeout", "call_later", "call_soon"]),
            st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0, 10)),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_mixed_entries_dispatch_in_time_then_creation_order(entries):
    """Timeouts, callbacks and cancellations share one (time, creation)
    order; a cancelled callback never runs but still bounds the clock."""
    kernel = Kernel()
    fired = []
    expected = []
    for index, (kind, delay, cancel) in enumerate(entries):
        if kind == "timeout":
            kernel.timeout(delay).add_callback(
                lambda _evt, i=index: fired.append((kernel.now, i))
            )
            cancel = False  # an event has no cancel
        else:
            if kind == "call_soon":
                delay = 0.0
                handle = kernel.call_soon(lambda i=index: fired.append((kernel.now, i)))
            else:
                handle = kernel.call_later(
                    delay, lambda i=index: fired.append((kernel.now, i))
                )
            if cancel:
                kernel.cancel(handle)
        if not cancel:
            expected.append((delay, index))
    kernel.run()
    assert fired == sorted(expected)
    assert kernel.processed_events == len(expected)
    assert kernel.now == max(
        0.0 if kind == "call_soon" else delay for kind, delay, _ in entries
    )


@given(
    process_delays=st.lists(
        st.lists(st.floats(min_value=0.001, max_value=5), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=50)
def test_processes_accumulate_their_own_delays(process_delays):
    """Each process sees simulated time advance by exactly its own waits."""
    kernel = Kernel()
    results = {}

    def worker(k, index, delays):
        start = k.now
        for delay in delays:
            yield k.timeout(delay)
        results[index] = k.now - start

    for index, delays in enumerate(process_delays):
        kernel.process(worker(kernel, index, delays))
    kernel.run()
    for index, delays in enumerate(process_delays):
        assert abs(results[index] - sum(delays)) < 1e-6


@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=30)
def test_all_of_value_contains_every_event(n):
    kernel = Kernel()
    events = [kernel.timeout(i * 0.1, value=i) for i in range(n)]

    def waiter(k):
        done = yield k.all_of(events)
        return done

    done = kernel.run_process(waiter(kernel))
    assert sorted(done.values()) == list(range(n))
