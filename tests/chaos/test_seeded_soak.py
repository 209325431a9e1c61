"""Seeded chaos soak: a randomized fault schedule against the full stack.

CI runs this module across a matrix of seeds and flags (see
:mod:`tests.chaos.flags`); any integer seed must leave the system in a
sane steady state once the faults stop -- the health machinery may
degrade, quarantine, open breakers and fail bindings over mid-storm, but
after the storm every surviving runtime's directory converges, breakers
close again, and traffic flows.
"""

from repro.chaos import RecoveryReport, random_plan
from repro.core.errors import ShardUnavailable
from repro.core.health import HealthState
from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.flags import (
    LOSE_STATE,
    REPLICATION,
    RUNTIME_FLAGS,
    SEED,
    SHARDED,
)

STORM_HORIZON = 60.0
# Lease (15 s) + announce interval + breaker reopen max (60 s) with slack.
CALM_DOWN = 90.0


def build_soak():
    """Three runtimes, a failover binding, and a steady sender."""
    bed = build_testbed(hosts=["h1", "h2", "h3"])
    kwargs = dict(RUNTIME_FLAGS, replication_factor=2 if REPLICATION else 1)
    r1 = bed.add_runtime("h1", **kwargs)
    r2 = bed.add_runtime("h2", **kwargs)
    r3 = bed.add_runtime("h3", **kwargs)

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

    total = int((STORM_HORIZON + CALM_DOWN) / 0.5)

    def sender():
        for index in range(total):
            out.send(UMessage("text/plain", f"m{index}", 100))
            yield bed.kernel.timeout(0.5)

    bed.kernel.process(sender(), name="soak-sender")
    return bed, (r1, r2, r3), binding, received


def flat_oracle(runtimes):
    """role -> translator ids from local registrations: the flat truth
    sharded keyed lookups are judged against for reconvergence."""
    table = {}
    for runtime in runtimes:
        for entry in runtime.directory._entries.values():
            if entry.local:
                table.setdefault(entry.profile.role, set()).add(
                    entry.profile.translator_id
                )
    return table


def lookups_agree(runtimes, oracle):
    for runtime in runtimes:
        for role, expected in oracle.items():
            try:
                got = {
                    p.translator_id
                    for p in runtime.lookup(Query(role=role))
                }
            except ShardUnavailable:
                return False
            if got != expected:
                return False
    return True


class TestSeededSoak:
    def test_storm_then_convergence(self):
        bed, runtimes, binding, received = build_soak()
        r1, r2, r3 = runtimes
        plan = random_plan(
            seed=SEED,
            horizon=STORM_HORIZON,
            media=[bed.lan],
            runtimes=[r2, r3],
            fault_count=8,
            max_duration=10.0,
            lose_state=LOSE_STATE,
        )
        oracle = flat_oracle(runtimes)
        bed.add_chaos(plan)
        # Run the storm to its last heal, then walk the calm-down in
        # steps, watching (in sharded mode) for the first instant every
        # runtime's keyed lookups agree with the flat oracle again --
        # the soak's time-to-reconverge-after-heal metric.
        bed.settle(plan.horizon + 0.1)
        healed_at = bed.kernel.now
        reconverged_at = None
        calm_end = (
            bed.kernel.now
            + STORM_HORIZON
            + CALM_DOWN
            - (plan.horizon + 0.1)
        )
        while bed.kernel.now < calm_end:
            bed.settle(1.0)
            if (
                SHARDED
                and reconverged_at is None
                and lookups_agree(runtimes, oracle)
            ):
                reconverged_at = bed.kernel.now
        if SHARDED:
            report = RecoveryReport(
                scenario="seeded-soak",
                fault=f"storm-seed-{SEED}",
                healed_at=healed_at,
                rebound_at=None,
                messages_sent=0,
                messages_received=0,
                reconverged_at=reconverged_at,
            )
            assert report.reconverged_at is not None, (
                "sharded lookups never re-agreed with the flat oracle "
                "after the storm"
            )
            assert report.time_to_reconverge is not None
            assert report.time_to_reconverge >= 0.0

        # The storm is over and every runtime restarted (random_plan always
        # passes restart_after), so the directories must reconverge: each
        # runtime sees all three translators.
        for runtime in runtimes:
            runtime.directory.check_index_consistency()
            assert len(runtime.lookup(Query())) == 3, runtime.runtime_id

        # Every breaker that opened mid-storm has closed again.
        for runtime in runtimes:
            for key, breaker in runtime.transport._breakers.items():
                assert breaker.is_closed, key

        # No lingering quarantine or degradation after the calm-down.
        for runtime in runtimes:
            for profile in runtime.lookup(Query()):
                state = runtime.health.effective_health(profile)
                assert state is HealthState.HEALTHY, profile.translator_id

        # The failover binding survived the storm bound to a live sink,
        # and traffic flowed after the faults stopped.
        assert len(binding.bound_translators) == 1
        assert received
        assert f"m{int(STORM_HORIZON / 0.5) + 30}" in {
            m.payload for m in received
        }

    def test_soak_replays_identically(self):
        """The seeded soak is a reproducible experiment: the same seed
        drives the identical fault schedule twice."""
        import itertools

        import repro.core.binding as binding_module
        import repro.core.messages as messages_module
        import repro.core.runtime as runtime_module
        import repro.core.saga as saga_module
        import repro.core.translator as translator_module
        import repro.core.transport as transport_module

        def run_once():
            # Several ids embed process-global counters (translator ids,
            # message sequence numbers, path/binding/saga ids).  Pin them
            # so both runs draw identical ids: the sharded directory
            # rendezvous-hashes translator ids (placement shifts with the
            # id) and the binary codec's frame size varies with id digit
            # count (transmission time shifts by nanoseconds otherwise).
            translator_module._instance_counter = itertools.count(10_000)
            messages_module._sequence = itertools.count(10_000)
            transport_module._path_counter = itertools.count(10_000)
            runtime_module._runtime_counter = itertools.count(1_000)
            binding_module._binding_counter = itertools.count(1_000)
            saga_module._saga_counter = itertools.count(1_000)
            bed, runtimes, _binding, _received = build_soak()
            plan = random_plan(
                seed=SEED,
                horizon=STORM_HORIZON,
                media=[bed.lan],
                runtimes=list(runtimes[1:]),
                fault_count=8,
                max_duration=10.0,
                lose_state=LOSE_STATE,
            )
            bed.add_chaos(plan)
            bed.settle(STORM_HORIZON + CALM_DOWN)
            return [
                (record.time, record.category)
                for record in bed.trace
                if record.category.startswith(("chaos.", "health.", "binding."))
            ]

        assert run_once() == run_once()


def token_device(translator_id, role, state):
    sink = Translator(translator_id, role=role)

    def handler(message):
        payload = message.payload
        if payload.startswith("+"):
            state.append(payload[1:])
        elif payload[1:] in state:
            state.remove(payload[1:])

    sink.add_digital_input("op-in", "text/plain", handler)
    return sink


class TestSagaSoak:
    def test_saga_mix_storm_holds_all_or_compensated(self):
        """A steady stream of 2-step sagas runs *through* the storm; the
        participants crash (cold when CHAOS_LOSE_STATE=1), time out and
        recover mid-saga.  Once everything settles, each saga's token is
        on both devices (committed) or on neither (compensated) -- never
        on exactly one -- and the directories are index-consistent."""
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        kwargs = dict(RUNTIME_FLAGS, replication_factor=2 if REPLICATION else 1)
        r1 = bed.add_runtime("h1", **kwargs)
        r2 = bed.add_runtime("h2", **kwargs)
        r3 = bed.add_runtime("h3", **kwargs)
        lock_state, light_state = [], []
        r2.register_translator(token_device("soak-lock", "lock", lock_state))
        r3.register_translator(token_device("soak-light", "light", light_state))
        bed.settle(1.0)

        sagas = []

        def msg(payload):
            return UMessage("text/plain", payload, size=16)

        def saga_feeder():
            for index in range(int(STORM_HORIZON / 3.0)):
                token = f"s{SEED}-{index}"
                sagas.append(r1.connect_saga([
                    (Query(role="lock"), msg(f"+{token}"), msg(f"-{token}")),
                    (Query(role="light"), msg(f"+{token}"), msg(f"-{token}")),
                ], timeout_s=2.0, max_attempts=6))
                yield bed.kernel.timeout(3.0)

        bed.kernel.process(saga_feeder(), name="saga-feeder")
        plan = random_plan(
            seed=SEED,
            horizon=STORM_HORIZON,
            media=[bed.lan],
            runtimes=[r2, r3],
            fault_count=8,
            max_duration=10.0,
            lose_state=LOSE_STATE,
        )
        bed.add_chaos(plan)
        bed.settle(STORM_HORIZON + CALM_DOWN)
        # Give stragglers (compensations against a late-healing peer)
        # bounded extra time to drain.
        for _ in range(5):
            if r1.sagas.idle:
                break
            bed.settle(30.0)
        assert r1.sagas.idle, f"{r1.sagas.active_count} saga(s) never finished"

        # The invariant, by device-state inspection: a token is either on
        # both devices or on neither.
        assert sorted(lock_state) == sorted(light_state), (
            f"half-applied sagas: lock={sorted(lock_state)} "
            f"light={sorted(light_state)}"
        )
        # The storm must not have starved everything: some sagas committed.
        assert r1.sagas.committed >= 1
        assert r1.sagas.committed + r1.sagas.rolled_back == len(sagas)
        for runtime in (r1, r2, r3):
            runtime.directory.check_index_consistency()
