"""Chaos-driven circuit breaker tests (the health tentpole under fire).

A seeded crash/restart cycle drives the per-peer delivery breaker around
its whole lifecycle (open on exhausted retry budget, half-open on probe,
closed on recovery), and an identical fault schedule run with health
disabled shows the adaptive runtime re-binds faster and wastes fewer
delivery attempts."""

from repro.chaos import FaultPlan, RecoveryReport, time_to_rebind
from repro.core.directory import LEASE
from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.flags import RUNTIME_FLAGS

CRASH_AT = 2.0


def text(payload, size=100):
    return UMessage("text/plain", payload, size)


def drip(bed, out, count, interval=0.5):
    def sender():
        for index in range(count):
            out.send(text(f"m{index}"))
            yield bed.kernel.timeout(interval)

    return bed.kernel.process(sender(), name="drip")


def crash_pair(restart_after):
    """Source on r1 query-bound to a sink on r2; r2 crashes at CRASH_AT."""
    bed = build_testbed(hosts=["h1", "h2"])
    r1 = bed.add_runtime("h1", **RUNTIME_FLAGS)
    r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)

    received = []
    sink = Translator("display", role="display")
    sink.add_digital_input("data-in", "text/plain", received.append)
    r2.register_translator(sink)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    r1.register_translator(source)

    bed.settle(1.0)
    binding = r1.connect_query(out, Query(role="display"))
    assert binding.path_count == 1

    plan = FaultPlan()
    fault = plan.runtime_crash(r2, at=CRASH_AT, restart_after=restart_after)
    bed.add_chaos(plan)
    return bed, r1, r2, binding, out, received, fault


class TestBreakerLifecycle:
    def test_crash_restart_cycle_walks_breaker_through_all_states(self):
        """Outage past the retry budget: the breaker opens (flushing the
        doomed spool), half-opens when the restarted peer announces, and
        closes on the first successful probe -- after which delivery
        resumes."""
        bed, r1, r2, binding, out, received, fault = crash_pair(
            restart_after=60.0
        )
        drip(bed, out, count=140, interval=0.5)
        bed.settle(80.0)

        # The retry budget (~52 s of capped backoff) ran out mid-outage.
        assert bed.trace.count("transport.undeliverable") >= 1
        assert bed.trace.count("transport.breaker-open") >= 1
        breaker = r1.transport._breakers[r2.runtime_id]
        states = [state for _time, state in breaker.transitions]
        assert states[:3] == ["open", "half-open", "closed"]
        assert bed.trace.count("transport.breaker-close") >= 1
        assert breaker.is_closed

        # Everything spooled behind the dead peer was flushed, not dropped
        # one-by-one off the spool's tail.
        assert r1.transport.spool_flushed > 0
        flush = bed.trace.records("transport.spool-flush")
        assert flush and flush[0].details["flushed"] > 0
        opened = bed.trace.records("transport.breaker-open")[0]
        assert "spool_dropped" in opened.details
        assert "spool_flushed" in opened.details

        # Delivery resumed after recovery.
        assert binding.path_count == 1
        assert "m130" in {m.payload for m in received}

    def test_breaker_opens_only_after_budget_exhaustion(self):
        """A short crash (well inside the retry budget) must never trip
        the breaker: blind retry already covers it."""
        bed, r1, r2, binding, out, received, fault = crash_pair(
            restart_after=5.0
        )
        drip(bed, out, count=30, interval=0.5)
        bed.settle(30.0)
        assert bed.trace.count("transport.retry") > 0
        assert bed.trace.count("transport.breaker-open") == 0
        assert r2.runtime_id not in r1.transport._breakers
        assert r1.transport.spool_flushed == 0


def failover_triple(health_enabled):
    """r1 hosts a source with a failover binding; r2 and r3 each host a
    matching sink.  r2 (the initially-bound target) crashes for good."""
    bed = build_testbed(hosts=["h1", "h2", "h3"])
    r1 = bed.add_runtime("h1", health_enabled=health_enabled, **RUNTIME_FLAGS)
    r2 = bed.add_runtime("h2", health_enabled=health_enabled, **RUNTIME_FLAGS)
    r3 = bed.add_runtime("h3", health_enabled=health_enabled, **RUNTIME_FLAGS)

    received = []
    for index, runtime in enumerate((r2, r3)):
        sink = Translator(f"display-{index}", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        runtime.register_translator(sink)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    r1.register_translator(source)

    bed.settle(1.0)
    binding = r1.connect_query(out, Query(role="display"), failover=True)
    assert len(binding.bound_translators) == 1

    plan = FaultPlan()
    fault = plan.runtime_crash(r2, at=CRASH_AT)  # permanent
    bed.add_chaos(plan)

    drip(bed, out, count=120, interval=0.5)
    bed.settle(90.0)

    rebind = time_to_rebind(bed.trace, after=CRASH_AT)
    report = RecoveryReport(
        scenario="health on" if health_enabled else "health off",
        fault="permanent crash of bound peer",
        healed_at=CRASH_AT,
        rebound_at=None if rebind is None else CRASH_AT + rebind,
        messages_sent=120,
        messages_received=len(received),
    )
    return bed, r1, binding, report


class TestFailoverBeatsBaseline:
    def test_health_enabled_rebinds_faster_and_wastes_less(self):
        """Identical fault schedule, health on vs off: delivery-failure
        degradation fails the binding over within the transport's first
        few retries, instead of waiting out the directory lease; and the
        breaker + failover stop burning attempts on the dead peer."""
        bed_on, r1_on, binding_on, report_on = failover_triple(True)
        bed_off, r1_off, binding_off, report_off = failover_triple(False)

        assert report_on.rebound_at is not None
        assert report_off.rebound_at is not None
        # Health-aware: failover within a few transport retries (< 5 s);
        # baseline: no re-bind until the lease expires.
        assert report_on.time_to_rebind < 5.0
        assert report_off.time_to_rebind > LEASE * 0.8
        assert report_on.time_to_rebind < report_off.time_to_rebind

        wasted_on = r1_on.transport.retries + r1_on.transport.undeliverable
        wasted_off = r1_off.transport.retries + r1_off.transport.undeliverable
        assert wasted_on < wasted_off

        # Both end up bound to the surviving sink and deliver more data
        # with health on (shorter outage window).
        assert binding_on.bound_translators[0].endswith("display-1")
        assert binding_off.bound_translators[0].endswith("display-1")
        assert report_on.messages_received > report_off.messages_received
