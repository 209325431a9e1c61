"""Self-tests of the benchmark harness (run: python3 -m pytest umbench/tests)."""

import sys
import time
import types

import pytest

import stats
import tracer as tracer_mod
from tracer import INJECTION_TARGETS, Injector, Patcher, Tracer, installed_targets


# -- percentile helper --------------------------------------------------------


@pytest.mark.parametrize(
    "count, pct, value",
    [
        (10_000, 99.9, 9990),
        (1000, 99.0, 990),
        (999, 95.0, 950),
        (200, 95.0, 190),
        (100, 90.0, 90),
        (40, 75.0, 30),
        (20, 50.0, 10),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, pct, value):
    samples = list(range(count, 0, -1))  # unsorted on purpose
    got_pct, got_value, got_count = stats.tail(samples)
    assert (got_pct, got_value, got_count) == (pct, value, count)
    beyond = sum(1 for s in samples if s > got_value)
    assert beyond >= stats.MIN_BEYOND


def test_tail_refuses_a_median_without_ten_beyond():
    assert stats.tail(list(range(19))) == (None, None, 19)
    assert not stats.supported(19, 50.0)
    assert stats.supported(20, 50.0)
    assert stats.quantile(list(range(20)), 50.0) == 9


# -- self time ----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def synthetic(monkeypatch):
    """A module with nested calls whose durations a fake clock fixes:
    outer = 1 + inner + 2, inner = 3 + leaf + 1, leaf = 4."""
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "time", clock)
    module = types.ModuleType("synthetic_layers")

    def leaf():
        clock.now += 4

    def inner():
        clock.now += 3
        module.leaf()
        clock.now += 1

    class Outer:
        def run(self):
            clock.now += 1
            module.inner()
            clock.now += 2

    module.leaf, module.inner, module.Outer = leaf, inner, Outer
    monkeypatch.setitem(sys.modules, "synthetic_layers", module)
    layers = {
        "top": (("synthetic_layers", "Outer.run"),),
        "middle": (("synthetic_layers", "inner"),),
        "bottom": (("synthetic_layers", "leaf"),),
    }
    return clock, module, layers


def test_self_time_subtracts_nested_children(synthetic):
    clock, module, layers = synthetic
    tracer = Tracer(layers=layers).install()
    tracer.start()
    clock.now += 5  # benchmark bookkeeping outside any span
    tracer.op = 7
    module.Outer().run()
    tracer.op = -1
    clock.now += 2
    tracer.stop()
    tracer.uninstall()

    assert tracer.layer_self() == {"top": 3.0, "middle": 4.0, "bottom": 4.0}
    assert tracer.incl == [11.0, 8.0, 4.0]
    assert tracer.outside == 7.0
    assert tracer.wall == 18.0
    assert sum(tracer.layer_self().values()) + tracer.outside == tracer.wall
    # Spans: outer is the root, inner its child, leaf the grandchild.
    assert list(tracer.span_parent) == [-1, 0, 1]
    assert list(tracer.span_op) == [7, 7, 7]
    assert [tracer.span_end[i] - tracer.span_start[i] for i in range(3)] == [
        11.0, 8.0, 4.0]


def test_untraced_middle_layer_counts_toward_its_parent(synthetic):
    clock, module, layers = synthetic
    tracer = Tracer(layers={"top": layers["top"], "bottom": layers["bottom"]})
    tracer.install()
    tracer.start()
    module.Outer().run()  # leaf's 4 nests under outer through untraced inner
    module.leaf()         # a top-level sibling span of 4
    tracer.stop()
    tracer.uninstall()
    assert tracer.layer_self() == {"top": 7.0, "bottom": 8.0}
    assert tracer.outside == 0.0
    assert list(tracer.span_parent) == [-1, 0, -1]


# -- wrappers are fully removed ------------------------------------------------


def snapshot():
    return {(m, n): obj for m, n, obj in installed_targets()}


def test_tracer_and_injector_leave_no_wrapper_behind():
    before = snapshot()
    tracer = Tracer().install()
    during = snapshot()
    assert all(during[key] is not before[key] for key in before)
    tracer.uninstall()
    assert snapshot().keys() == before.keys()
    assert all(snapshot()[key] is before[key] for key in before)
    for layer in INJECTION_TARGETS:
        injector = Injector(layer, 0.0).install()
        injector.uninstall()
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_inherited_method_is_restored_by_deletion():
    from repro.simnet.net import Hub, Medium

    assert "transmit" not in vars(Hub)
    patcher = Patcher()
    patcher.patch("repro.simnet.net", "Hub.transmit", lambda fn: fn)
    assert "transmit" in vars(Hub)
    patcher.restore()
    assert "transmit" not in vars(Hub)
    assert Hub.transmit is Medium.transmit


def test_untraced_run_after_tracing_times_unwrapped_functions():
    from repro.core.codec import WireEncoder

    envelope = {"kind": "message", "seq": 1, "payload": {"v": 1}}
    tracer = Tracer().install()
    tracer.start()
    WireEncoder().encode_envelope(envelope)
    tracer.stop()
    tracer.uninstall()
    recorded = sum(tracer.calls)
    assert recorded >= 1
    injector = Injector("codec", 0.05).install()
    start = time.perf_counter()
    WireEncoder().encode_envelope(envelope)
    assert time.perf_counter() - start >= 0.05
    injector.uninstall()
    start = time.perf_counter()
    WireEncoder().encode_envelope(envelope)
    assert time.perf_counter() - start < 0.05
    assert sum(tracer.calls) == recorded  # the removed tracer saw nothing
    assert injector.calls == 1
