"""Journaled sagas: commit, compensate, retry, interleaving, gating.

Functional coverage of :mod:`repro.core.saga` on a live (un-crashed)
federation; the crash-at-every-boundary recovery proof lives in
``tests/chaos/test_saga_boundaries.py``.
"""

import pytest

from repro.core.errors import InvokeError, SagaError
from repro.core.messages import UMessage
from repro.core.profile import PortRef
from repro.core.query import Query
from repro.core.saga import SagaStep
from repro.core.translator import Translator
from repro.testbed import build_testbed


def token_device(translator_id, role, state):
    """A sink translator holding a token set: ``+tok`` adds, ``-tok``
    removes (idempotently), ``!...`` raises (terminal failure)."""
    sink = Translator(translator_id, role=role)

    def handler(message):
        payload = message.payload
        if payload.startswith("!"):
            raise ValueError(f"refused: {payload}")
        if payload.startswith("+"):
            state.append(payload[1:])
        elif payload[1:] in state:
            state.remove(payload[1:])

    sink.add_digital_input("op-in", "text/plain", handler)
    return sink


def add(token):
    return UMessage("text/plain", f"+{token}", size=16)


def remove(token):
    return UMessage("text/plain", f"-{token}", size=16)


def refuse(token):
    return UMessage("text/plain", f"!{token}", size=16)


def build(**kwargs):
    bed = build_testbed(hosts=["h1", "h2", "h3"])
    r1 = bed.add_runtime("h1", **kwargs)
    r2 = bed.add_runtime("h2", **kwargs)
    r3 = bed.add_runtime("h3", **kwargs)
    lock_state, light_state = [], []
    lock = token_device("lock-0", "lock", lock_state)
    light = token_device("light-0", "light", light_state)
    r2.register_translator(lock)
    r3.register_translator(light)
    bed.settle(2.0)
    bed.devices = {"lock": lock, "light": light}
    return bed, r1, r2, r3, lock_state, light_state


class TestSagaCommit:
    def test_two_step_saga_commits_and_applies_both_effects(self):
        bed, r1, r2, r3, lock, light = build()
        saga = r1.connect_saga([
            (Query(role="lock"), add("t1"), remove("t1")),
            (Query(role="light"), add("t1"), remove("t1")),
        ])
        bed.settle(10.0)
        assert saga.status == "committed"
        assert lock == ["t1"] and light == ["t1"]
        assert r1.sagas.idle
        assert r1.sagas.committed == 1
        assert r1.sagas.outcome(saga.saga_id) == "committed"

    def test_local_and_remote_steps_mix(self):
        bed, r1, r2, r3, lock, light = build()
        local_state = []
        r1.register_translator(token_device("cam-0", "camera", local_state))
        bed.settle(2.0)
        saga = r1.connect_saga([
            (Query(role="camera"), add("t2"), remove("t2")),
            (Query(role="lock"), add("t2"), remove("t2")),
        ])
        bed.settle(10.0)
        assert saga.status == "committed"
        assert local_state == ["t2"] and lock == ["t2"]

    def test_pinned_target_step(self):
        bed, r1, r2, r3, lock, light = build()
        ref = PortRef(r2.runtime_id, bed.devices["lock"].translator_id, "op-in")
        saga = r1.connect_saga([(ref, add("t3"), remove("t3"))])
        bed.settle(10.0)
        assert saga.status == "committed"
        assert lock == ["t3"]

    def test_saga_records_are_journaled_and_force_synced(self):
        from repro.core.journal import replay_blob

        bed, r1, r2, r3, lock, light = build()
        r1.connect_saga([(Query(role="lock"), add("t4"), remove("t4"))])
        bed.settle(10.0)
        kinds = [r["kind"] for r in replay_blob(r1.journal.blob)[0]]
        for kind in ("saga-begin", "saga-step-start", "saga-step-done", "saga-end"):
            assert kind in kinds, f"missing {kind} in {kinds}"
        # The participant journaled its applied-record too.
        r2_kinds = [r["kind"] for r in replay_blob(r2.journal.blob)[0]]
        assert "saga-applied" in r2_kinds


class TestSagaCompensation:
    def test_terminal_failure_compensates_applied_steps_in_reverse(self):
        bed, r1, r2, r3, lock, light = build()
        saga = r1.connect_saga([
            (Query(role="lock"), add("t5"), remove("t5")),
            (Query(role="light"), add("t5"), remove("t5")),
            (Query(role="light"), refuse("t5"), remove("t5")),
        ])
        bed.settle(20.0)
        assert saga.status == "compensated"
        assert lock == [] and light == []
        assert r1.sagas.rolled_back == 1
        assert r1.sagas.idle

    def test_empty_query_exhausts_stall_patience_then_compensates(self):
        bed, r1, r2, r3, lock, light = build()
        saga = r1.connect_saga([
            (Query(role="lock"), add("t6"), remove("t6")),
            (Query(role="nothing-has-this-role"), add("t6")),
        ], timeout_s=1.0, max_attempts=2)
        bed.settle(20.0)
        assert saga.status == "compensated"
        assert lock == []

    def test_step_without_compensation_is_skipped_during_rollback(self):
        bed, r1, r2, r3, lock, light = build()
        saga = r1.connect_saga([
            (Query(role="lock"), add("t7")),  # declared side-effect free
            (Query(role="light"), refuse("t7")),
        ])
        bed.settle(20.0)
        assert saga.status == "compensated"
        # No compensation was declared, so the forward effect stands.
        assert lock == ["t7"]


class TestSagaRetry:
    def test_transient_failures_retry_within_budget(self):
        bed, r1, r2, r3, lock, light = build()
        flaky_state, failures = [], {"left": 2}
        flaky = Translator("flaky-0", role="flaky")

        def handler(message):
            if failures["left"] > 0:
                failures["left"] -= 1
                exc = ValueError("transient wobble")
                exc.retryable = True
                raise exc
            flaky_state.append(message.payload)

        flaky.add_digital_input("op-in", "text/plain", handler)
        r2.register_translator(flaky)
        bed.settle(2.0)
        saga = r1.connect_saga(
            [(Query(role="flaky"), add("t8"), remove("t8"))],
            max_attempts=5,
        )
        bed.settle(30.0)
        assert saga.status == "committed"
        assert flaky_state == ["+t8"]
        assert failures["left"] == 0

    def test_budget_exhaustion_on_transient_failures_compensates(self):
        bed, r1, r2, r3, lock, light = build()
        always = Translator("always-0", role="always-fails")

        def handler(message):
            exc = ValueError("still wobbling")
            exc.retryable = True
            raise exc

        always.add_digital_input("op-in", "text/plain", handler)
        r3.register_translator(always)
        bed.settle(2.0)
        saga = r1.connect_saga([
            (Query(role="lock"), add("t9"), remove("t9")),
            (Query(role="always-fails"), add("t9"), remove("t9")),
        ], max_attempts=2)
        bed.settle(30.0)
        assert saga.status == "compensated"
        assert lock == []


class TestSagaInterleaving:
    def test_independent_sagas_never_block_each_other(self):
        """A saga stuck retrying against a crashed participant must not
        delay an unrelated saga against a healthy one."""
        bed, r1, r2, r3, lock, light = build()
        # Saga A pins the light device on r3, then r3 crashes: A can only
        # retry (pinned targets never fail over).
        r3.crash()
        pinned = PortRef(r3.runtime_id, bed.devices["light"].translator_id, "op-in")
        saga_a = r1.connect_saga(
            [(pinned, add("tA"), remove("tA"))],
            timeout_s=2.0, max_attempts=50,
        )
        bed.settle(1.0)
        assert saga_a.status == "running"
        # Saga B against the healthy lock device commits while A retries.
        saga_b = r1.connect_saga([(Query(role="lock"), add("tB"), remove("tB"))])
        bed.settle(10.0)
        assert saga_b.status == "committed"
        assert lock == ["tB"]
        assert saga_a.status == "running"
        # Heal r3: A completes on its own.
        r3.restart()
        bed.settle(60.0)
        assert saga_a.status == "committed"
        assert light == ["tA"]

    def test_two_concurrent_sagas_commit_independently(self):
        bed, r1, r2, r3, lock, light = build()
        saga_a = r1.connect_saga([
            (Query(role="lock"), add("tC"), remove("tC")),
            (Query(role="light"), add("tC"), remove("tC")),
        ])
        saga_b = r1.connect_saga([
            (Query(role="light"), add("tD"), remove("tD")),
            (Query(role="lock"), add("tD"), remove("tD")),
        ])
        bed.settle(15.0)
        assert saga_a.status == "committed"
        assert saga_b.status == "committed"
        assert sorted(lock) == ["tC", "tD"] and sorted(light) == ["tC", "tD"]


class TestSagaGating:
    def test_malformed_actions_raise(self):
        bed = build_testbed(hosts=["h1"])
        r1 = bed.add_runtime("h1")
        with pytest.raises(SagaError):
            r1.connect_saga([])
        with pytest.raises(SagaError):
            r1.connect_saga(["not-an-action"])
        with pytest.raises(SagaError):
            r1.connect_saga([("not-a-target", add("t"))])
        with pytest.raises(SagaError):
            SagaStep(message=add("t"))  # neither query nor target
        with pytest.raises(SagaError):
            SagaStep(
                message=add("t"),
                query=Query(role="x"),
                target=PortRef("r", "t", "p"),
            )


class TestInvokeError:
    def test_structured_fields(self):
        cause = ValueError("boom")
        err = InvokeError("lock-0", step=2, cause=cause, retryable=True)
        assert err.translator_id == "lock-0"  # raw ids pass through untouched
        assert err.step == 2
        assert err.cause is cause
        assert err.retryable
        assert "lock-0" in str(err) and "step 2" in str(err)

    def test_invoke_surface_wraps_handler_exceptions(self):
        bed = build_testbed(hosts=["h1"])
        r1 = bed.add_runtime("h1")
        bad = Translator("bad-0", role="bad")

        def handler(message):
            raise RuntimeError("device on fire")

        bad.add_digital_input("op-in", "text/plain", handler)
        r1.register_translator(bad)

        def scenario():
            with pytest.raises(InvokeError) as excinfo:
                yield from bad.invoke("op-in", add("t"), step=1)
            assert excinfo.value.translator_id == bad.translator_id
            assert excinfo.value.step == 1
            assert not excinfo.value.retryable
            return True

        assert bed.run(scenario())
