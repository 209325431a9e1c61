"""Sharded directory: shard map properties and the sharded-vs-flat oracle.

The shard layer is a placement/routing optimisation, not a semantics
change: for every query, a sharded cluster's routed ``lookup`` must return
exactly the profiles the flat replica's linear scan returns, across
arbitrary randomized corpora and through registration churn.  The shard
map itself must be deterministic (every node computes the identical
assignment from the identical membership view) and minimally disruptive
(a membership change only moves the departed/arrived member's shards).
"""

from __future__ import annotations

import random

import pytest

from repro.core.directory import DirectoryError
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.runtime import UMiddleRuntime
from repro.core.shard import (
    DEFAULT_SHARD_COUNT,
    ShardMap,
    ShardStore,
    shard_of_key,
)

from tests.core.test_directory_index import random_profile, random_query


class TestShardMap:
    def test_assignment_is_deterministic_across_instances(self):
        members = [f"rt-{i}" for i in range(7)]
        a = ShardMap(256)
        b = ShardMap(256)
        a.rebuild(members)
        b.rebuild(reversed(members))  # order of the view must not matter
        assert [a.owner(s) for s in range(256)] == [
            b.owner(s) for s in range(256)
        ]

    def test_every_shard_owned_and_reasonably_balanced(self):
        members = [f"rt-{i}" for i in range(10)]
        shard_map = ShardMap(1024)
        shard_map.rebuild(members)
        counts = {m: len(shard_map.owned_by(m)) for m in members}
        assert sum(counts.values()) == 1024
        assert all(count > 0 for count in counts.values())
        # Rendezvous balance: no owner more than ~3x the fair share.
        assert max(counts.values()) <= 3 * (1024 // 10)

    def test_membership_change_moves_only_the_affected_shards(self):
        members = [f"rt-{i}" for i in range(8)]
        shard_map = ShardMap(512)
        shard_map.rebuild(members)
        before = {s: shard_map.owner(s) for s in range(512)}
        shard_map.rebuild(members[:-1])  # rt-7 leaves
        for shard in range(512):
            if before[shard] != "rt-7":
                # Shards the leaver did not own must not move at all.
                assert shard_map.owner(shard) == before[shard], shard
            else:
                assert shard_map.owner(shard) != "rt-7"
        # And the join back restores the exact original assignment.
        shard_map.rebuild(members)
        assert {s: shard_map.owner(s) for s in range(512)} == before

    def test_rebuild_reports_change_and_bumps_version(self):
        shard_map = ShardMap(64)
        assert shard_map.rebuild(["a", "b"]) is True
        version = shard_map.version
        assert shard_map.rebuild(["b", "a"]) is False  # same view
        assert shard_map.version == version
        assert shard_map.rebuild(["a", "b", "c"]) is True
        assert shard_map.version == version + 1

    def test_owners_ranked_starts_with_the_owner(self):
        shard_map = ShardMap(128)
        shard_map.rebuild([f"rt-{i}" for i in range(5)])
        for shard in range(0, 128, 17):
            ranked = shard_map.owners_ranked(shard)
            assert ranked[0] == shard_map.owner(shard)
            assert sorted(ranked) == sorted(shard_map.members)

    def test_maps_of_one_view_rank_alike_and_hand_out_fresh_lists(self):
        """Rankings are cached once per view for every map that holds
        it; each call still returns a list its caller may change."""
        members = [f"rt-{i}" for i in range(5)]
        first, second = ShardMap(128), ShardMap(128)
        first.rebuild(members)
        second.rebuild(reversed(members))
        expected = first.owners_ranked(9)
        ranked = second.owners_ranked(9)
        assert ranked == expected
        ranked.reverse()
        assert first.owners_ranked(9) == second.owners_ranked(9) == expected
        second.rebuild(members[:-1])
        assert second.owners_ranked(9) == [m for m in expected if m != "rt-4"]
        assert first.owners_ranked(9) == expected

    def test_key_hashing_is_stable(self):
        key = ("role", "display")
        assert shard_of_key(key, 128) == shard_of_key(key, 128)
        assert 0 <= shard_of_key(key, 128) < 128
        with pytest.raises(ValueError):
            ShardMap(0)


class TestShardStore:
    def _profile(self, rng, index, origin="origin-rt"):
        return random_profile(rng, index, origin)

    def test_store_remove_placement_bookkeeping(self):
        rng = random.Random(1)
        store = ShardStore()
        profile = self._profile(rng, 0)
        changed, placed, previous = store.store(profile, [3, 9])
        assert changed and placed and previous is None
        assert store.placements_of(profile.translator_id) == (3, 9)
        # Re-storing the identical profile under one more shard is a
        # placement-only change.
        changed, placed, previous = store.store(profile, [9, 11])
        assert not changed and placed and previous is profile
        assert store.placements_of(profile.translator_id) == (3, 9, 11)
        assert store.origins() == {"origin-rt"}
        removed = store.remove(profile.translator_id)
        assert removed is profile
        assert store.profile_count == 0
        assert store.origins() == set()

    def test_drop_shard_evicts_only_sole_placements(self):
        rng = random.Random(2)
        store = ShardStore()
        keep = self._profile(rng, 0)
        lose = self._profile(rng, 1)
        store.store(keep, [5, 6])
        store.store(lose, [5])
        gone = store.drop_shard(5)
        assert gone == [lose.translator_id]
        assert store.placements_of(keep.translator_id) == (6,)
        assert store.bucket(keep.index_keys()[0])

    def test_lookup_matches_scan(self):
        rng = random.Random(3)
        store = ShardStore()
        for index in range(120):
            store.store(self._profile(rng, index), [index % 16])
        for _ in range(200):
            query = random_query(rng)
            indexed = {p.translator_id for p in store.lookup(query)}
            scanned = {p.translator_id for p in store.scan(query)}
            assert indexed == scanned, query


@pytest.fixture
def cluster(kernel, network):
    """Four sharded runtimes with seeded membership and no sockets: pure
    router/store/fabric behavior (placement dispatches through the fabric
    directly when no socket exists)."""
    runtimes = []
    for index in range(4):
        node = network.add_node(f"shard-host-{index}")
        runtimes.append(
            UMiddleRuntime(
                node,
                name=f"shard-rt-{index}",
                auto_start=False,
                sharding_enabled=True,
            )
        )
    members = [runtime.runtime_id for runtime in runtimes]
    for runtime in runtimes:
        runtime.shards.seed_members(members)
    return runtimes


@pytest.fixture
def flat(kernel, network):
    """The flat-replica oracle holding the identical corpus."""
    node = network.add_node("flat-oracle-host")
    return UMiddleRuntime(node, name="flat-oracle-rt", auto_start=False)


def populate(rng, cluster, flat, count):
    """Register ``count`` random profiles, each local to a random cluster
    member, and mirror the full corpus into the flat oracle."""
    profiles = []
    for index in range(count):
        origin = rng.choice(cluster)
        profile = random_profile(rng, index, origin.runtime_id)
        origin.directory.register(profile)
        flat.directory._store_entry(
            profile, local=False, now=flat.kernel.now
        )
        profiles.append(profile)
    return profiles


def assert_sharded_oracle(cluster, flat, query):
    expected = sorted(
        p.translator_id for p in flat.directory.lookup_linear(query)
    )
    for runtime in cluster:
        got = sorted(p.translator_id for p in runtime.lookup(query))
        assert got == expected, (
            f"sharded lookup diverged from flat oracle on "
            f"{runtime.runtime_id} for {query!r}"
        )


class TestShardedLookupOracle:
    def test_routed_lookup_equals_flat_scan(self, cluster, flat):
        rng = random.Random(20060706)
        for runtime in cluster:
            runtime.shards.cache_ttl = 0.0  # no stale windows in the oracle
        populate(rng, cluster, flat, 160)
        for runtime in cluster:
            assert runtime.shards.store.profile_count > 0  # all participate
        for _ in range(250):
            assert_sharded_oracle(cluster, flat, random_query(rng))
        # Keyless queries fan out and still enumerate everything, once.
        assert_sharded_oracle(cluster, flat, Query())
        assert all(r.shards.fanout_lookups > 0 for r in cluster)

    def test_oracle_holds_through_registration_churn(self, cluster, flat):
        rng = random.Random(424242)
        for runtime in cluster:
            runtime.shards.cache_ttl = 0.0
        profiles = populate(rng, cluster, flat, 80)
        by_origin = {p.translator_id: p for p in profiles}
        live = [p.translator_id for p in profiles]
        for step in range(120):
            if rng.random() < 0.4 and live:
                victim = live.pop(rng.randrange(len(live)))
                origin_id = by_origin[victim].runtime_id
                origin = next(
                    r for r in cluster if r.runtime_id == origin_id
                )
                origin.directory.unregister(victim)
                flat.directory._drop_entry(victim)
            else:
                profile = random_profile(
                    rng, 10_000 + step, rng.choice(cluster).runtime_id
                )
                origin = next(
                    r
                    for r in cluster
                    if r.runtime_id == profile.runtime_id
                )
                origin.directory.register(profile)
                flat.directory._store_entry(
                    profile, local=False, now=flat.kernel.now
                )
                by_origin[profile.translator_id] = profile
                live.append(profile.translator_id)
            if step % 10 == 0:
                assert_sharded_oracle(cluster, flat, random_query(rng))
                for runtime in cluster:
                    runtime.directory.check_index_consistency()
        assert_sharded_oracle(cluster, flat, Query())

    def test_hot_key_cache_serves_within_ttl_then_refreshes(self, cluster):
        rng = random.Random(7)
        reader = cluster[0]
        reader.shards.cache_ttl = 5.0
        profile = random_profile(rng, 0, cluster[1].runtime_id)
        cluster[1].directory.register(profile)
        query = Query(platform=profile.platform)
        first = reader.lookup(query)
        assert any(
            p.translator_id == profile.translator_id for p in first
        )
        # With four members, the key's sub-shards are never all
        # self-owned: the first lookup paid real owner round trips.
        cost = reader.shards.routed_lookups
        assert cost > 0
        again = reader.lookup(query)
        assert reader.shards.routed_lookups == cost  # cache hit
        assert reader.shards.cache_hits > 0
        assert [p.translator_id for p in again] == [
            p.translator_id for p in first
        ]
        # Past the TTL the owners are consulted again, at the same cost.
        reader.kernel.run(until=reader.kernel.now + 6.0)
        reader.lookup(query)
        assert reader.shards.routed_lookups == 2 * cost


class TestShardingOffIsFlat:
    def test_default_runtime_never_routes(self, kernel, network):
        node = network.add_node("flat-host")
        runtime = UMiddleRuntime(node, name="flat-rt", auto_start=False)
        assert not runtime.shards.enabled
        rng = random.Random(11)
        for index in range(40):
            runtime.directory.register(
                random_profile(rng, index, runtime.runtime_id)
            )
        for _ in range(60):
            query = random_query(rng)
            assert [
                p.translator_id for p in runtime.lookup(query)
            ] == [
                p.translator_id
                for p in runtime.directory.lookup_linear(query)
            ]
        assert runtime.shards.routed_lookups == 0
        assert runtime.shards.store.profile_count == 0


class TestConsistencyDiff:
    """Satellite: check_index_consistency raises a real DirectoryError
    (surviving ``python -O``) carrying a structured diff."""

    def _runtime(self, network):
        node = network.add_node(f"diff-host-{id(self) % 1000}")
        return UMiddleRuntime(node, name=None, auto_start=False)

    def test_consistent_directory_returns_empty_diff(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(5)
        for index in range(10):
            runtime.directory.register(
                random_profile(rng, index, runtime.runtime_id)
            )
        assert runtime.directory.check_index_consistency() == {}

    def test_divergence_raises_with_structured_diff(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(6)
        profile = random_profile(rng, 0, runtime.runtime_id)
        runtime.directory.register(profile)
        # Corrupt the index: ghost id in one bucket, drop another bucket.
        key = profile.index_keys()[0]
        runtime.directory._index[key].add("ghost-id")
        other = profile.index_keys()[1]
        del runtime.directory._index[other]
        with pytest.raises(DirectoryError) as excinfo:
            runtime.directory.check_index_consistency()
        diff = excinfo.value.diff
        assert diff["index"][key]["spurious"] == ["ghost-id"]
        assert diff["index"][other]["missing"] == [profile.translator_id]
        assert "diverged" in str(excinfo.value)

    def test_unhealthy_counter_divergence_reported(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(8)
        runtime.directory.register(
            random_profile(rng, 0, runtime.runtime_id)
        )
        runtime.directory._unhealthy_entries += 1
        with pytest.raises(DirectoryError) as excinfo:
            runtime.directory.check_index_consistency()
        assert excinfo.value.diff["unhealthy"] == {
            "expected": 0,
            "recorded": 1,
        }


class TestDigestFastPath:
    """Satellite: senders ship cached wire digests so receivers intern
    without recomputing canonical JSON + SHA-1 per profile."""

    def test_from_dict_with_digest_reuses_interned_instance(self):
        rng = random.Random(9)
        profile = random_profile(rng, 0, "digest-rt")
        data = profile.to_dict()
        first = TranslatorProfile.from_dict(data)
        assert TranslatorProfile.from_dict(data, digest=profile.wire_digest) is first

    def test_announcements_carry_parallel_digests(self, single):
        runtime = single.runtimes[0]
        rng = random.Random(10)
        profiles = [
            random_profile(rng, index, runtime.runtime_id)
            for index in range(3)
        ]
        payload = runtime.directory._announcement(
            profiles, removed=[], full=True, heartbeat=False
        )
        assert payload["digests"] == [p.wire_digest for p in profiles]
        assert len(payload["digests"]) == len(payload["profiles"])
