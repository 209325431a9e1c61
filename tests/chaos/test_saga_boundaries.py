"""The saga recovery proof: crash at every boundary, never half-applied.

For a 3-step saga over token devices, a :class:`SagaBoundaryCrash` kills
the coordinator exactly at each journal boundary -- before ("pre") or
after ("post") the record is durable -- under both warm restart and cold
journal recovery, and device-state inspection asserts the invariant:
**either every step's effect is applied (saga committed), or every applied
effect is compensated (saga compensated) -- never half.**  A separate
scenario crashes a *participant* mid-step (after applying, before
replying) and proves the failover path: the coordinator re-binds to an
equivalent device and a queued *cancel* undoes the stray effect once the
original participant comes back.

``CHAOS_SEED`` salts the workload (token names and saga ids feed the
jittered backoff seeds), so the CI matrix sweeps the boundaries under
multiple seeds; ``CHAOS_DATAPLANE`` / ``CHAOS_SHARDED`` re-run the sweep
on those transport/directory variants (see :mod:`tests.chaos.flags`).
"""

import pytest

from repro.chaos import FaultPlan, SagaBoundaryCrash
from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.flags import RUNTIME_FLAGS, SEED

ROLES = ["lock", "light", "camera"]


def token_device(translator_id, role, state):
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


def build(extra_hosts=()):
    hosts = ["h1", "h2", "h3", "h4"] + list(extra_hosts)
    bed = build_testbed(hosts=hosts)
    coordinator = bed.add_runtime("h1", **RUNTIME_FLAGS)
    participants = [bed.add_runtime(h, **RUNTIME_FLAGS) for h in hosts[1:]]
    states = {}
    devices = {}
    for runtime, role in zip(participants[:3], ROLES):
        state = []
        device = token_device(f"{role}-dev", role, state)
        runtime.register_translator(device)
        states[role] = state
        devices[role] = device
    bed.settle(2.0)
    return bed, coordinator, participants, states, devices


def msg(payload):
    return UMessage("text/plain", payload, size=16)


def three_step_actions(token, fail_last=False):
    """One action per role; each adds ``token`` and compensates by
    removing it.  ``fail_last`` makes the third step terminally refuse."""
    actions = []
    for index, role in enumerate(ROLES):
        forward = f"+{token}" if not (fail_last and index == 2) else f"!{token}"
        actions.append((Query(role=role), msg(forward), msg(f"-{token}")))
    return actions


#: Every coordinator-side boundary of the forward (commit) path, crossed
#: with pre/post durability and each of the 3 steps.
COMMIT_POINTS = [
    (boundary, phase, step)
    for boundary in ("step-start", "step-done")
    for phase in ("pre", "post")
    for step in (0, 1, 2)
]


class TestCommitBoundarySweep:
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize(
        "boundary,phase,step",
        COMMIT_POINTS,
        ids=[f"{b}-{p}-s{s}" for b, p, s in COMMIT_POINTS],
    )
    def test_crash_then_heal_commits_each_effect_exactly_once(
        self, boundary, phase, step, cold
    ):
        bed, coordinator, participants, states, devices = build()
        fault = SagaBoundaryCrash(
            coordinator,
            boundary,
            phase=phase,
            step=step,
            lose_state=cold,
            recover_after=3.0,
        )
        bed.add_chaos(FaultPlan([fault]))
        token = f"tok-{SEED}-{boundary}-{phase}-{step}"
        saga = coordinator.connect_saga(three_step_actions(token))
        bed.settle(90.0)
        assert fault.fired_at is not None, "boundary crash never fired"
        assert coordinator.sagas.outcome(saga.saga_id) == "committed"
        assert coordinator.sagas.idle
        # The recovery proof: every device applied the token exactly once
        # -- the re-driven step was deduped, nothing was left half-done.
        for role in ROLES:
            assert states[role] == [token], (
                f"{role} state {states[role]!r} after {boundary}/{phase} "
                f"crash at step {step} ({'cold' if cold else 'warm'})"
            )

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_crash_at_begin_boundary(self, phase, cold):
        """Pre: the saga never became durable -- nothing may apply.
        Post: the begin record survives and the saga commits."""
        bed, coordinator, participants, states, devices = build()
        fault = SagaBoundaryCrash(
            coordinator, "begin", phase=phase, lose_state=cold, recover_after=3.0
        )
        bed.add_chaos(FaultPlan([fault]))
        bed.settle(0.1)  # let the controller register the boundary hook
        token = f"tok-{SEED}-begin-{phase}"
        saga = coordinator.connect_saga(three_step_actions(token))
        bed.settle(90.0)
        assert fault.fired_at is not None
        if phase == "pre":
            assert saga.status == "aborted"
            for role in ROLES:
                assert states[role] == []
        else:
            assert coordinator.sagas.outcome(saga.saga_id) == "committed"
            for role in ROLES:
                assert states[role] == [token]


#: Compensation-path boundaries: the rollback's own begin record (it
#: carries the failing step index 2), one compensation step record, and
#: the compensated step-done (occurrence 2: the first match at step 1 is
#: the forward apply).
COMPENSATE_POINTS = [
    ("compensate", "pre", 2, 1),
    ("compensate", "post", 2, 1),
    ("compensate", "pre", 1, 1),
    ("compensate", "post", 1, 1),
    ("step-done", "pre", 1, 2),
    ("step-done", "post", 1, 2),
]


class TestCompensateBoundarySweep:
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize(
        "boundary,phase,step,occurrence",
        COMPENSATE_POINTS,
        ids=[f"{b}-{p}-s{s}-n{n}" for b, p, s, n in COMPENSATE_POINTS],
    )
    def test_crash_then_heal_compensates_every_applied_effect(
        self, boundary, phase, step, occurrence, cold
    ):
        bed, coordinator, participants, states, devices = build()
        fault = SagaBoundaryCrash(
            coordinator,
            boundary,
            phase=phase,
            step=step,
            occurrence=occurrence,
            lose_state=cold,
            recover_after=3.0,
        )
        bed.add_chaos(FaultPlan([fault]))
        token = f"tok-{SEED}-comp-{boundary}-{phase}-{step}"
        saga = coordinator.connect_saga(
            three_step_actions(token, fail_last=True)
        )
        bed.settle(120.0)
        assert fault.fired_at is not None, "boundary crash never fired"
        assert coordinator.sagas.outcome(saga.saga_id) == "compensated"
        assert coordinator.sagas.idle
        # All-or-compensated: steps 0 and 1 applied, then were undone;
        # step 2 terminally refused and never applied.
        for role in ROLES:
            assert states[role] == [], (
                f"{role} state {states[role]!r} after {boundary}/{phase} "
                f"compensation crash ({'cold' if cold else 'warm'})"
            )


class TestParticipantCrashFailover:
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_applied_but_unacked_step_fails_over_and_cancels(self, cold):
        """The ambiguity case: a participant applies a step and crashes
        before replying.  The coordinator times out, quarantines the peer
        (step timeouts feed the health monitor), re-binds to an equivalent
        device, and queues a cancel -- which undoes the stray effect once
        the original participant heals.  Exactly one device ends up
        holding the effect."""
        bed, coordinator, participants, states, devices = build()
        # An equivalent lock device on h4 for the failover to land on.
        r2, r4 = participants[0], participants[2]
        alt_state = []
        r4.register_translator(token_device("lock-alt", "lock", alt_state))
        bed.settle(2.0)
        fault = SagaBoundaryCrash(
            r2,
            "applied",
            phase="post",
            step=0,
            lose_state=cold,
            recover_after=40.0,
            observe=r2,
        )
        bed.add_chaos(FaultPlan([fault]))
        token = f"tok-{SEED}-failover"
        saga = coordinator.connect_saga(
            [(Query(role="lock"), msg(f"+{token}"), msg(f"-{token}"))],
            timeout_s=2.0,
            max_attempts=12,
        )
        bed.settle(180.0)
        assert fault.fired_at is not None, "participant crash never fired"
        assert coordinator.sagas.outcome(saga.saga_id) == "committed"
        assert coordinator.sagas.rebinds >= 1
        # The replacement holds the token; the cancel undid the stray
        # effect on the original once it recovered.
        assert alt_state == [token], alt_state
        assert states["lock"] == [], states["lock"]
