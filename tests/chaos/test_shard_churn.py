"""Shard ownership churn: join/leave/crash must move placements without
losing or duplicating profiles, standing queries must survive the crash of
a shard owner that hosts neither endpoint, and journal recovery must
restore a shard owner's slice byte-equivalently.

The placement invariant checked throughout: once membership settles, every
runtime's shard store holds exactly ``shards_of_profile(p) & owned`` for
each stored profile, all runtimes agree on one shard map, and every
registered profile is present on the owner of every shard its index keys
hash to -- so any node's routed lookup finds everything.
"""

import itertools
import json
import random

import pytest

from repro.core.directory import LEASE, DirectoryListener
from repro.core.errors import ShardUnavailable
from repro.core.messages import UMessage
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.replica import slice_digest
from repro.core.shapes import Direction, PortSpec, Shape
from repro.core.shard import placement_salt
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.flags import DATA_PLANE_FLAGS, REPLICATION, SEED
from tests.core.test_directory_index import random_profile



def assert_placement_invariant(cluster):
    """All live runtimes agree on one shard map and each store holds
    exactly its owned slice of every registered profile."""
    reference = cluster[0].shards.map
    table = {s: reference.owner(s) for s in range(reference.shard_count)}
    for runtime in cluster[1:]:
        assert {
            s: runtime.shards.map.owner(s)
            for s in range(runtime.shards.map.shard_count)
        } == table, f"shard map diverged on {runtime.runtime_id}"
    for runtime in cluster:
        for tid, entry in runtime.shards.store.snapshot().items():
            profile = TranslatorProfile.from_dict(entry["profile"])
            expected = sorted(
                runtime.shards.shards_of_profile(profile)
                & set(runtime.shards._owned)
            )
            assert entry["shards"] == expected, (
                f"{runtime.runtime_id} holds {tid} under {entry['shards']}, "
                f"expected {expected}"
            )
    # Completeness: every registered profile sits on the owner of every
    # shard its keys hash to.
    by_id = {runtime.runtime_id: runtime for runtime in cluster}
    registered = {}
    for runtime in cluster:
        for entry in runtime.directory._entries.values():
            if entry.local:
                registered[entry.profile.translator_id] = entry.profile
    for tid, profile in registered.items():
        for shard in cluster[0].shards.shards_of_profile(profile):
            owner = by_id[table[shard]]
            held = owner.shards.store.snapshot().get(tid)
            assert held is not None and shard in held["shards"], (
                f"profile {tid} missing from shard {shard} on "
                f"{owner.runtime_id}"
            )
    return registered


def assert_all_visible(cluster, expected_ids):
    for runtime in cluster:
        got = {p.translator_id for p in runtime.lookup(Query())}
        assert got == expected_ids, (
            f"{runtime.runtime_id} sees {len(got)} of "
            f"{len(expected_ids)} profiles"
        )


def populate(rng, runtimes, count, start=0):
    ids = set()
    for index in range(start, start + count):
        origin = rng.choice(runtimes)
        profile = random_profile(rng, index, origin.runtime_id)
        origin.directory.register(profile)
        ids.add(profile.translator_id)
    return ids


class TestOwnershipChurn:
    def test_join_then_leave_rebalances_without_loss(self):
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        cluster = [
            bed.add_runtime(h, sharding_enabled=True, **DATA_PLANE_FLAGS)
            for h in ("h1", "h2", "h3")
        ]
        rng = random.Random(61)
        ids = populate(rng, cluster, 30)
        # Exactness of the placement invariant needs a full lease past the
        # last membership change: placements directed under a transiently
        # divergent view age out only once they stayed unowned that long.
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        versions = [r.shards.map.version for r in cluster]

        # Join: a fourth owner takes over its rendezvous share; the three
        # incumbents each lose only the shards the newcomer now wins.
        joined = bed.add_runtime("h4", sharding_enabled=True, **DATA_PLANE_FLAGS)
        cluster.append(joined)
        bed.settle(LEASE + 5.0)
        assert all(r.shards.map.version > v for r, v in zip(cluster, versions))
        assert len(joined.shards._owned) > 0
        assert joined.shards.store.profile_count > 0
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)

        # Leave: h2 shuts down; its lease expires, its shards move and
        # its locally registered profiles are reaped everywhere.
        leaver = cluster.pop(1)
        lost_ids = {
            e.profile.translator_id
            for e in leaver.directory._entries.values()
            if e.local
        }
        leaver.shutdown()
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids - lost_ids)
        for runtime in cluster:
            runtime.directory.check_index_consistency()

    def test_owner_crash_mid_registration_self_heals(self):
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        r1, r2, r3 = (
            bed.add_runtime(h, sharding_enabled=True, **DATA_PLANE_FLAGS)
            for h in ("h1", "h2", "h3")
        )
        bed.settle(2.0)
        # Register a burst at r1 and crash r3 before placement can land:
        # in-flight stores to r3's shards die with it.
        rng = random.Random(62)
        ids = populate(rng, [r1], 20)
        r3.crash(lose_state=True)
        bed.settle(LEASE + 5.0)
        # Origins re-pushed to the post-crash owners: nothing lost.
        survivors = [r1, r2]
        assert_placement_invariant(survivors)
        assert_all_visible(survivors, ids)

        # The crashed owner recovers cold, rejoins, and wins its shards
        # back; the federation converges with no duplicates.
        r3.recover()
        bed.settle(LEASE + 5.0)
        cluster = [r1, r2, r3]
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        for runtime in cluster:
            runtime.directory.check_index_consistency()


class TestStandingQueryContinuity:
    def _role_owned_by(self, probe, owner_id, translator_id):
        """A role string whose ``(role, value)`` placement for
        ``translator_id`` is owned by ``owner_id`` under the probe's
        converged map."""
        for index in range(512):
            role = f"churn-role-{index}"
            shard = probe.shards.placement_shard(("role", role), translator_id)
            if probe.shards.map.owner(shard) == owner_id:
                return role
        raise AssertionError(f"no candidate role owned by {owner_id}")

    def test_binding_and_subscription_survive_owner_crash(self):
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        r1, r2, r3 = (
            bed.add_runtime(h, sharding_enabled=True, **DATA_PLANE_FLAGS)
            for h in ("h1", "h2", "h3")
        )
        bed.settle(2.0)
        # The interesting case: the owner of the sink's key placement
        # (r3) hosts neither the binding (r1) nor the translator (r2).
        role = self._role_owned_by(r1, r3.runtime_id, "churn-sink")

        received = []
        sink = Translator("churn-sink", role=role)
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("churn-src", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(2.0)

        added = []
        r1.directory.subscribe_query(
            Query(role=role),
            DirectoryListener.from_callbacks(
                added=lambda p: added.append(p.translator_id)
            ),
        )
        binding = r1.connect_query(out, Query(role=role))
        bed.settle(2.0)
        assert binding.bound_translators == [sink.translator_id]

        # Kill the shard owner.  The binding must stay bound (shard
        # handoff is placement-only, never an unbind) and traffic must
        # keep flowing between the surviving endpoints.
        r3.crash(lose_state=True)
        bed.settle(LEASE + 5.0)
        assert binding.bound_translators == [sink.translator_id]
        out.send(UMessage("text/plain", "across-the-crash", 100))
        bed.settle(2.0)
        assert any(m.payload == "across-the-crash" for m in received)

        # Interest was re-routed to the new owner: a late registration
        # for the same key still reaches r1's standing query.
        sink2 = Translator("churn-sink-2", role=role)
        sink2.add_digital_input("data-in", "text/plain", lambda m: None)
        r2.register_translator(sink2)
        bed.settle(2.0)
        assert sink2.translator_id in added

        r3.recover()
        bed.settle(LEASE + 5.0)
        for runtime in (r1, r2, r3):
            got = {p.translator_id for p in runtime.lookup(Query(role=role))}
            assert got == {sink.translator_id, sink2.translator_id}


def shard_state(runtime):
    return (
        json.dumps(runtime.shards.store.snapshot(), sort_keys=True),
        sorted(runtime.shards._owned),
    )


class TestByteEquivalentRecovery:
    def test_single_node_slice_restored_verbatim(self):
        bed = build_testbed(hosts=["h1"])
        r1 = bed.add_runtime("h1", sharding_enabled=True, **DATA_PLANE_FLAGS)
        roles = ["display", "storage", "printer", "sensor"]
        mimes = ["text/plain", "image/jpeg", "audio/wav"]
        for index in range(8):
            translator = Translator(
                f"solo-{index}", role=roles[index % len(roles)]
            )
            translator.add_digital_input(
                "data-in", mimes[index % len(mimes)], lambda m: None
            )
            r1.register_translator(translator)
        bed.settle(2.0)
        before = shard_state(r1)
        assert r1.shards.store.profile_count == 8

        r1.crash(lose_state=True)
        assert r1.shards.store.profile_count == 0  # really gone
        r1.recover()
        # Immediately after recovery -- before any gossip -- the journal
        # alone must have restored the owned slice byte for byte (a
        # single node owns every shard in both incarnations).
        assert shard_state(r1) == before
        bed.settle(2.0)
        assert shard_state(r1) == before

    def test_multi_node_slice_restored_after_reconvergence(self):
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        cluster = [
            bed.add_runtime(h, sharding_enabled=True, **DATA_PLANE_FLAGS)
            for h in ("h1", "h2", "h3")
        ]
        rng = random.Random(63)
        ids = populate(rng, cluster, 24)
        # A full lease so startup-transient placements have aged out and
        # the baseline snapshot is the exact owned slice.
        bed.settle(LEASE + 5.0)
        subject = cluster[0]
        before = shard_state(subject)
        assert subject.shards.store.profile_count > 0

        subject.crash(lose_state=True)
        subject.recover()
        # Reconvergence: the recovered node briefly owns everything under
        # its self-only view, then peers reannounce and the map settles
        # back to the pre-crash assignment.
        bed.settle(LEASE + 5.0)
        assert shard_state(subject) == before
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)


class TestPartitionOracle:
    """Randomized minority-partition + churn + heal, judged against the
    flat oracle of surviving local registrations.  Runs flat
    (replication_factor=1) and, under ``CHAOS_REPLICATION=1``, replicated
    -- the converged outcome must be identical, and in the replicated
    run no write from a deposed primary may survive the heal."""

    @pytest.mark.parametrize("seed", [17, 43])
    def test_partition_churn_heal_converges_to_oracle(self, seed):
        hosts = ["h1", "h2", "h3", "h4", "h5"]
        bed = build_testbed(hosts=hosts)
        factor = 2 if REPLICATION else 1
        cluster = [
            bed.add_runtime(
                h, sharding_enabled=True, **DATA_PLANE_FLAGS, replication_factor=factor
            )
            for h in hosts
        ]
        rng = random.Random(seed)
        ids = populate(rng, cluster, 40)
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)

        origin_of = {}
        for runtime in cluster:
            for entry in runtime.directory._entries.values():
                if entry.local:
                    origin_of[entry.profile.translator_id] = runtime

        minority, majority = cluster[0], cluster[1:]
        bed.lan.partition([["h1"], ["h2", "h3", "h4", "h5"]])

        # Churn on both sides of the split: registrations land on each
        # side, and a few pre-partition majority profiles are withdrawn
        # while the minority still holds stale copies of them.
        new_majority = populate(rng, majority, 8, start=100)
        new_minority = populate(rng, [minority], 4, start=200)
        removable = sorted(
            tid for tid in ids if origin_of[tid] in majority
        )
        unregistered = set(rng.sample(removable, 3))
        for tid in unregistered:
            origin_of[tid].directory.unregister(tid)

        # Keyed lookups mid-partition must either answer or fail with the
        # structured, retryable signal -- never a silent wrong answer
        # about a key the reachable side authoritatively owns.  Lookup
        # caches are cleared so a warm TTL cache cannot mask either path.
        bed.settle(2.0)
        for runtime in cluster:
            runtime.shards._cache.clear()
        for runtime in majority:
            for role in ("display", "sensor", "printer"):
                try:
                    runtime.lookup(Query(role=role))
                except ShardUnavailable as exc:
                    assert exc.retryable

        # A full lease inside the partition: each side reaps the other's
        # origins, including every stale copy of the withdrawn profiles.
        bed.settle(LEASE + 5.0)
        bed.lan.heal()
        bed.settle(LEASE + 10.0)

        expected = (ids | new_majority | new_minority) - unregistered
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, expected)
        for runtime in cluster:
            runtime.directory.check_index_consistency()

        # Zero stale survivors: a profile withdrawn mid-partition must
        # not linger in any authoritative store or any replica slice.
        for runtime in cluster:
            resurrected = (
                set(runtime.shards.store.snapshot()) & unregistered
            )
            assert not resurrected, (
                f"{runtime.runtime_id} store resurrects {resurrected}"
            )
            for shard in runtime.shards.replicas.shards():
                slice_ = runtime.shards.replicas.get(shard)
                stale = set(slice_.entries) & unregistered
                assert not stale, (
                    f"{runtime.runtime_id} replica slice {shard} "
                    f"resurrects {stale}"
                )
        # No write from a deposed primary survives: after the heal every
        # replica slice anywhere matches its primary's authoritative slice
        # content.
        if REPLICATION:
            by_id = {r.runtime_id: r for r in cluster}
            for runtime in cluster:
                for shard in runtime.shards.replicas.shards():
                    slice_ = runtime.shards.replicas.get(shard)
                    owner = by_id[runtime.shards.map.owner(shard)]
                    authoritative = {
                        p.translator_id: p
                        for p in owner.shards.store.slice_of(shard)
                    }
                    assert slice_digest(slice_.entries) == slice_digest(
                        authoritative
                    ), (
                        f"{runtime.runtime_id} replica of shard {shard} "
                        f"diverges from {owner.runtime_id} after heal"
                    )


def hot_ids():
    """Translator ids with placement salt 0: every index key of every
    ``hot-device`` profile named by them lands on one sub-shard."""
    for index in itertools.count():
        tid = f"hot-{index:05d}"
        if placement_salt(tid) == 0:
            yield tid


class TestHotKeyChurn:
    """Register/unregister churn of one hot key, whose population
    wanders across 64 profiles per sub-shard, in the configuration a
    user would run: the full data plane, sharding and replication.
    Every node must serve exactly the live profiles.  A removal reaches
    only the owners in the origin's current table, so placement must
    follow the membership view alone: a table that moved with load left
    unregistered copies behind."""

    def test_every_node_sees_exactly_the_live_hot_profiles(self):
        hosts = [f"h{i}" for i in range(8)]
        bed = build_testbed(hosts=hosts)
        cluster = [
            bed.add_runtime(
                h, compression_enabled=True, sharding_enabled=True,
                replication_factor=2, shard_count=64,
            )
            for h in hosts
        ]
        bed.settle(2.0)
        rng = random.Random(SEED)
        ids = hot_ids()
        live = {}

        def register():
            origin, tid = rng.choice(cluster), next(ids)
            origin.directory.register(
                TranslatorProfile(
                    translator_id=tid,
                    name=tid,
                    platform="upnp",
                    device_type="hot-device",
                    role="display",
                    runtime_id=origin.runtime_id,
                    shape=Shape([PortSpec.digital("in", Direction.IN, "text/plain")]),
                )
            )
            live[tid] = origin

        for _ in range(56):
            register()
        for _ in range(300):  # 60 sim-s, one step every 0.2 s
            if len(live) < 48 or (len(live) <= 80 and rng.random() < 0.5):
                register()
            else:
                tid = rng.choice(sorted(live))
                live.pop(tid).directory.unregister(tid)
            bed.settle(0.2)
        bed.settle(20.0)
        for runtime in cluster:
            got = {
                p.translator_id
                for p in runtime.lookup(Query(device_type="hot-device"))
            }
            assert got == set(live), (
                f"{runtime.runtime_id}: {len(got - set(live))} unregistered "
                f"served, {len(set(live) - got)} live missing"
            )
