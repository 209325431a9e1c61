"""Replicated shard slices under chaos: keyed lookups must survive a
primary crash and a minority partition through ranked-replica degraded
reads, owner fencing must keep a deposed primary's writes out,
handoff must warm-ingest from surviving replicas, and the whole overlay
must be inert at the default ``replication_factor=1``.

The oracle throughout is the flat truth: the union of every runtime's
*local* registrations, grouped by role.  A routed keyed lookup is judged
correct when it returns exactly the oracle's ids for that role.
"""

import random

from repro.chaos import FaultPlan, LinkAsymmetry, random_plan
from repro.chaos.metrics import RecoveryReport
from repro.core.directory import LEASE, DirectoryListener
from repro.core.errors import ShardUnavailable
from repro.core.journal import replay_blob
from repro.core.messages import UMessage
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.replica import slice_digest
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.test_shard_churn import (
    assert_all_visible,
    assert_placement_invariant,
    populate,
)
from tests.core.test_directory_index import random_profile

#: Journal record kinds that only the replication overlay writes.
REPLICA_RECORD_KINDS = {
    "shard-promote",
    "shard-replica",
    "shard-replica-drop",
    "shard-replica-origin",
}

FIVE = ["h1", "h2", "h3", "h4", "h5"]


def build_cluster(hosts, replication_factor=2, seed=71, profiles=60):
    bed = build_testbed(hosts=hosts)
    cluster = [
        bed.add_runtime(
            host,
            sharding_enabled=True,
            replication_factor=replication_factor,
        )
        for host in hosts
    ]
    rng = random.Random(seed)
    ids = populate(rng, cluster, profiles)
    # A full lease past the last membership change: placements and
    # replica slices have all settled to the converged map.
    bed.settle(LEASE + 5.0)
    return bed, cluster, ids


def role_oracle(cluster):
    """role -> translator ids, straight from local registrations: the
    flat oracle routed keyed lookups are judged against."""
    table = {}
    for runtime in cluster:
        for entry in runtime.directory._entries.values():
            if entry.local:
                table.setdefault(entry.profile.role, set()).add(
                    entry.profile.translator_id
                )
    return table


def probe_round(probers, oracle):
    """One keyed lookup per (prober, role); returns the tally of
    (correct, wrong, unavailable) against the oracle."""
    correct = wrong = unavailable = 0
    for prober in probers:
        for role in sorted(oracle):
            try:
                got = {
                    p.translator_id
                    for p in prober.lookup(Query(role=role))
                }
            except ShardUnavailable:
                unavailable += 1
                continue
            if got == oracle[role]:
                correct += 1
            else:
                wrong += 1
    return correct, wrong, unavailable


def drop_lookup_caches(runtimes):
    """The failover tests measure replica reads, not TTL-cache hits (and
    with replication off, a warm cache would mask the unavailability the
    test must observe)."""
    for runtime in runtimes:
        runtime.shards._cache.clear()


def assert_replica_coherence(cluster):
    """Every replica slice anywhere matches its primary's authoritative
    slice content -- no write from a deposed primary survives
    convergence."""
    by_id = {runtime.runtime_id: runtime for runtime in cluster}
    for runtime in cluster:
        for shard in runtime.shards.replicas.shards():
            slice_ = runtime.shards.replicas.get(shard)
            owner = by_id.get(runtime.shards.map.owner(shard))
            assert owner is not None, f"shard {shard} owner not in cluster"
            expected = {
                p.translator_id: p
                for p in owner.shards.store.slice_of(shard)
            }
            assert slice_digest(slice_.entries) == slice_digest(expected), (
                f"{runtime.runtime_id} replica of shard {shard} diverges "
                f"from {owner.runtime_id}: "
                f"{sorted(slice_.entries)} != {sorted(expected)}"
            )


def late_sink(router, origin, owners, received):
    """A sink translator, for ``origin`` to register later, whose every
    placement under ``router``'s map lands on a member of ``owners``; its
    role, platform, device type and input MIME type are its own."""
    for index in range(4096):
        sink = Translator(
            "late-sink",
            platform=f"late-platform-{index}",
            device_type=f"urn:late:{index}",
            role=f"late-role-{index}",
            translator_id=f"late-sink-{index}",
        )
        sink.add_digital_input("data-in", f"text/x-late-{index}", received.append)
        profile = TranslatorProfile(
            translator_id=sink.translator_id,
            name=sink.name,
            platform=sink.platform,
            device_type=sink.device_type,
            role=sink.role,
            runtime_id=origin.runtime_id,
            shape=sink.shape,
        )
        if all(
            router.map.owner(shard) in owners
            for shard in router.shards_of_profile(profile)
        ):
            return sink
    raise AssertionError(f"no sink lands on {sorted(owners)} alone")


class TestAvailabilityUnderCrash:
    def test_replicated_lookups_survive_primary_crash(self):
        bed, cluster, ids = build_cluster(FIVE)
        assert_placement_invariant(cluster)
        oracle = role_oracle(cluster)
        victim = cluster[-1]
        probers = cluster[:-1]
        correct, wrong, unavailable = probe_round(probers, oracle)
        assert wrong == 0 and unavailable == 0  # healthy baseline

        victim.crash()
        drop_lookup_caches(probers)
        totals = [0, 0, 0]
        # Probe well inside the lease window: the membership view still
        # names the dead victim as primary, so only replica failover can
        # serve its shards.
        for _ in range(8):
            bed.settle(1.0)
            for index, count in enumerate(probe_round(probers, oracle)):
                totals[index] += count
        total = sum(totals)
        assert totals[2] == 0, f"{totals[2]} lookups raised ShardUnavailable"
        assert totals[0] / total >= 0.99, (
            f"only {totals[0]}/{total} keyed lookups correct during crash"
        )
        assert sum(r.shards.degraded_reads for r in probers) > 0
        degraded = [
            record
            for record in bed.trace.records("shard.degraded-read")
        ]
        assert degraded, "no degraded reads were traced"

        victim.restart()
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)

    def test_unreplicated_lookups_fail_on_the_same_schedule(self):
        """The control run: replication off (the default factor of 1),
        identical population and crash -- the shard blackout must now be
        *measurable* as structured ShardUnavailable failures."""
        bed, cluster, ids = build_cluster(FIVE, replication_factor=1)
        oracle = role_oracle(cluster)
        victim = cluster[-1]
        probers = cluster[:-1]
        victim.crash()
        drop_lookup_caches(probers)
        totals = [0, 0, 0]
        for _ in range(8):
            bed.settle(1.0)
            for index, count in enumerate(probe_round(probers, oracle)):
                totals[index] += count
        assert totals[2] > 0, "expected ShardUnavailable without replicas"
        assert sum(r.shards.unavailable_lookups for r in probers) > 0
        assert any(
            True for _ in bed.trace.records("shard.unavailable")
        ), "no shard.unavailable trace emitted"

        # The structured surface: shard, owner, retryable.
        caught = None
        for prober in probers:
            for role in sorted(oracle):
                try:
                    prober.lookup(Query(role=role))
                except ShardUnavailable as exc:
                    caught = exc
                    break
            if caught is not None:
                break
        assert caught is not None
        assert caught.retryable
        assert caught.owner == victim.runtime_id
        assert 0 <= caught.shard < victim.shards.map.shard_count

        victim.restart()
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)


class TestAvailabilityUnderPartition:
    def test_minority_partition_served_from_replicas_then_reconverges(self):
        bed, cluster, ids = build_cluster(FIVE)
        oracle = role_oracle(cluster)
        minority = cluster[0]
        majority = cluster[1:]

        bed.lan.partition([["h1"], ["h2", "h3", "h4", "h5"]])
        drop_lookup_caches(majority)
        totals = [0, 0, 0]
        for _ in range(8):
            bed.settle(1.0)
            for index, count in enumerate(probe_round(majority, oracle)):
                totals[index] += count
        total = sum(totals)
        assert totals[2] == 0, f"{totals[2]} lookups raised ShardUnavailable"
        assert totals[0] / total >= 0.99, (
            f"only {totals[0]}/{total} keyed lookups correct during the "
            "partition"
        )
        assert sum(r.shards.degraded_reads for r in majority) > 0

        # Let the minority's lease expire: every majority view deposes
        # it, while the minority's own view keeps only itself -- and so
        # names it the owner of every shard.  The receiver's view is what
        # fences, so that self-view grants it no write on the majority.
        bed.settle(LEASE + 5.0)
        for runtime in majority:
            assert minority.runtime_id not in runtime.shards.map.members, (
                f"{runtime.runtime_id} failed to depose the minority"
            )
        assert minority.shards.map.members == (minority.runtime_id,)

        # Heal and measure time-to-reconverge: the first instant every
        # runtime's keyed lookups agree with the flat oracle again.
        bed.lan.heal()
        healed_at = bed.kernel.now
        reconverged_at = None
        for _ in range(int((LEASE + 25.0) / 0.5)):
            bed.settle(0.5)
            agreed = True
            for runtime in cluster:
                for role in sorted(oracle):
                    try:
                        got = {
                            p.translator_id
                            for p in runtime.lookup(Query(role=role))
                        }
                    except ShardUnavailable:
                        agreed = False
                        break
                    if got != oracle[role]:
                        agreed = False
                        break
                if not agreed:
                    break
            if agreed:
                reconverged_at = bed.kernel.now
                break

        report = RecoveryReport(
            scenario="minority-partition",
            fault="partition",
            healed_at=healed_at,
            rebound_at=None,
            messages_sent=0,
            messages_received=0,
            reconverged_at=reconverged_at,
        )
        assert report.reconverged_at is not None, "never reconverged"
        assert report.time_to_reconverge is not None
        assert 0.0 <= report.time_to_reconverge <= LEASE + 25.0

        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)


class TestEpochFencing:
    """Owner-anchored fencing: a replica applies a replica-plane frame
    only when the sender owns the shard in the replica's own view."""

    def _replica_holding(self, cluster):
        """A (receiver, shard) pair where the receiver passively holds a
        non-empty replica slice for a shard another runtime owns."""
        by_id = {r.runtime_id: r for r in cluster}
        for receiver in cluster:
            for shard in sorted(receiver.shards.replicas.shards()):
                slice_ = receiver.shards.replicas.get(shard)
                owner_id = receiver.shards.map.owner(shard)
                if slice_.entries and owner_id != receiver.runtime_id:
                    return receiver, shard, by_id[owner_id]
        raise AssertionError("no populated replica slice found")

    def test_non_owner_push_is_fenced(self):
        bed, cluster, ids = build_cluster(
            ["h1", "h2", "h3"], seed=73, profiles=24
        )
        receiver, shard, owner = self._replica_holding(cluster)

        zombie = random_profile(random.Random(99), 999, "rt-ghost")
        frame = {
            "kind": "umiddle-shard-replica",
            "origin": "rt-ghost",  # not the owner under any member's map
            "slices": {
                str(shard): {
                    "profiles": [zombie.to_dict()],
                    "digests": [zombie.wire_digest],
                    "removed": [],
                    "full": False,
                }
            },
        }
        fenced_before = receiver.shards.fenced_frames
        receiver.shards.handle(frame)
        assert receiver.shards.fenced_frames == fenced_before + 1
        slice_ = receiver.shards.replicas.get(shard)
        assert zombie.translator_id not in slice_.entries
        assert any(True for _ in bed.trace.records("shard.fenced"))

        # The same frame from the *current* owner is accepted: authority
        # is anchored on the membership view.
        frame["origin"] = owner.runtime_id
        receiver.shards.handle(frame)
        assert receiver.shards.fenced_frames == fenced_before + 1
        assert zombie.translator_id in (
            receiver.shards.replicas.get(shard).entries
        )

    def test_non_owner_digest_is_fenced_without_reply(self):
        bed, cluster, ids = build_cluster(
            ["h1", "h2", "h3"], seed=73, profiles=24
        )
        receiver, shard, owner = self._replica_holding(cluster)
        (bystander,) = [
            r for r in cluster if r is not receiver and r is not owner
        ]
        # A digest claiming the slice is empty: the receiver's populated
        # slice mismatches it, so only the fence keeps it from replying.
        frame = {
            "kind": "umiddle-shard-digest",
            "origin": bystander.runtime_id,
            "shards": {str(shard): [0, slice_digest({})]},
        }
        fenced_before = receiver.shards.fenced_frames
        replies_before = receiver.shards.digest_replies
        receiver.shards.handle(frame)
        assert receiver.shards.fenced_frames == fenced_before + 1
        assert receiver.shards.digest_replies == replies_before

        # The same digest from the owner draws the mismatch reply.
        frame["origin"] = owner.runtime_id
        receiver.shards.handle(frame)
        assert receiver.shards.fenced_frames == fenced_before + 1
        assert receiver.shards.digest_replies == replies_before + 1

    def test_deposed_primary_write_does_not_survive_heal(self):
        bed, cluster, ids = build_cluster(FIVE, seed=79, profiles=40)
        minority = cluster[0]
        majority = cluster[1:]
        bed.lan.partition([["h1"], ["h2", "h3", "h4", "h5"]])
        # Past the lease: the majority has deposed h1 and re-owned its
        # shards.
        bed.settle(LEASE + 5.0)

        receiver, shard, _owner = self._replica_holding(majority)
        assert receiver.shards.map.owner(shard) != minority.runtime_id
        # The write the deposed primary streams under its own view, in
        # which it still owns the shard: its runtime as origin.
        zombie = random_profile(random.Random(101), 998, minority.runtime_id)
        frame = {
            "kind": "umiddle-shard-replica",
            "origin": minority.runtime_id,
            "slices": {
                str(shard): {
                    "profiles": [zombie.to_dict()],
                    "digests": [zombie.wire_digest],
                    "removed": [],
                    "full": True,
                }
            },
        }
        fenced_before = receiver.shards.fenced_frames
        entries_before = dict(receiver.shards.replicas.get(shard).entries)
        receiver.shards.handle(frame)
        assert receiver.shards.fenced_frames == fenced_before + 1
        assert receiver.shards.replicas.get(shard).entries == entries_before

        bed.lan.heal()
        bed.settle(LEASE + 10.0)
        # No deposed-primary write survived the heal: the zombie id is in
        # no authoritative store and no replica slice anywhere.
        for runtime in cluster:
            assert zombie.translator_id not in runtime.shards.store.snapshot()
            for held in runtime.shards.replicas.shards():
                entries = runtime.shards.replicas.get(held).entries
                assert zombie.translator_id not in entries
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)


class TestHandoffAndRecovery:
    def test_membership_handoff_warm_ingests_from_replicas(self):
        bed, cluster, ids = build_cluster(["h1", "h2", "h3", "h4"], seed=83)
        victim = cluster[-1]
        survivors = cluster[:-1]
        victim_local = {
            e.profile.translator_id
            for e in victim.directory._entries.values()
            if e.local
        }
        before = {r.runtime_id: r.shards.warm_ingests for r in survivors}
        victim.crash()
        bed.settle(LEASE + 5.0)
        gained = sum(
            r.shards.warm_ingests - before[r.runtime_id] for r in survivors
        )
        assert gained > 0, "handoff never promoted a replica slice"
        assert any(True for _ in bed.trace.records("shard.warm-ingest"))
        assert_placement_invariant(survivors)
        assert_all_visible(survivors, ids - victim_local)
        assert_replica_coherence(survivors)

    def _crash_and_rejoin(self, cold):
        """Crash the last of a settled 4-node cluster for 0.25 s (well
        inside the lease, so no peer expires it), bring it back, and check
        that the rejoin costs one round trip and one rebalance that moves
        nothing."""
        bed, cluster, ids = build_cluster(["h1", "h2", "h3", "h4"], seed=97)
        victim = cluster[-1]
        router = victim.shards
        peers = {runtime.runtime_id for runtime in cluster[:-1]}
        view, owned = router.map.members, router._owned
        assert set(view) == peers | {victim.runtime_id}
        syncs = sum(r.shards.replica_syncs for r in cluster)
        fenced = sum(r.shards.fenced_frames for r in cluster)
        rebalances = router.rebalances
        last_lsn = victim.journal._lsn

        victim.crash(lose_state=cold)
        if cold:
            assert router.map.members == ()  # the view died with the process
        bed.settle(0.25)
        if cold:
            victim.recover()
        else:
            victim.restart()
        # Before any gossip: routing already runs on the view it crashed with.
        assert router.map.members == view
        assert router._owned == owned == router.map.owned_by(victim.runtime_id)

        bed.settle(0.01)
        assert set(victim.directory._runtimes) == peers
        bed.settle(LEASE + 5.0)
        assert router.rebalances == rebalances + 1
        records, _, _ = replay_blob(bytes(victim.journal.blob))
        if cold:
            # The chain restarted at recovery's checkpoint.
            assert records[0]["kind"] == "checkpoint"
            assert records[0]["data"]["shard_members"] == list(view)
            last_lsn = 0
        rejoin_kinds = {r["kind"] for r in records if r["lsn"] > last_lsn}
        assert "shard-own" not in rejoin_kinds
        assert sum(r.shards.replica_syncs for r in cluster) == syncs
        assert sum(r.shards.fenced_frames for r in cluster) == fenced
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)

    def test_cold_rejoin_is_one_round_trip_and_one_rebalance(self):
        self._crash_and_rejoin(cold=True)

    def test_warm_rejoin_is_one_round_trip_and_one_rebalance(self):
        self._crash_and_rejoin(cold=False)

    def test_rejoin_learns_a_peer_that_joined_while_down(self):
        bed, cluster, ids = build_cluster(["h1", "h2", "h3", "h4"], seed=97)
        victim = cluster[-1]
        victim.crash(lose_state=True)
        joined = bed.add_runtime(
            "h5", sharding_enabled=True, replication_factor=2
        )
        ids |= populate(random.Random(101), [joined], 8, start=1000)
        bed.settle(0.25)
        victim.recover()
        bed.settle(0.01)
        assert joined.runtime_id in victim.shards.map.members
        cluster.append(joined)
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)

    def test_rejoin_repairs_placements_sent_while_down(self):
        """A placement and a removal a peer addressed to the victim while
        it was down were lost, and with the victim's lease unexpired no
        membership change re-sends them: the rejoin's holdings report
        must.  Without it the withdrawn profile stays served and the new
        one stays missing from the victim's shards."""
        bed, cluster, ids = build_cluster(["h1", "h2", "h3", "h4"], seed=97)
        victim, origin = cluster[-1], cluster[0]
        owned = victim.shards._owned

        def lands_on_victim(profile):
            return bool(origin.shards.shards_of_profile(profile) & owned)

        withdrawn = next(
            entry.profile
            for entry in origin.directory._entries.values()
            if entry.local and lands_on_victim(entry.profile)
        )
        victim.crash(lose_state=True)
        origin.directory.unregister(withdrawn.translator_id)
        ids.discard(withdrawn.translator_id)
        added = populate(random.Random(103), [origin], 4, start=2000)
        assert any(
            lands_on_victim(origin.directory.profile_of(tid)) for tid in added
        )
        ids |= added
        bed.settle(0.25)
        victim.recover()
        bed.settle(LEASE + 5.0)
        assert withdrawn.translator_id not in victim.shards.store.snapshot()
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)

    def _restarted_subscriber_hears_a_late_registration(self, cold):
        """A standing query's interest lives with its key's owners.  Down
        for longer than a lease, the subscriber is expired and its interest
        dropped there; the rejoin must register it again, or neither the
        binding nor the listener hears of a profile added afterwards."""
        bed, cluster, _ = build_cluster(["h1", "h2", "h3", "h4"], seed=97)
        victim, host = cluster[-1], cluster[0]
        received = []
        # Every placement of the sink lands on a peer, so only the peers'
        # deltas can tell the victim about it.
        peers = {runtime.runtime_id for runtime in cluster[:-1]}
        sink = late_sink(victim.shards, host, peers, received)
        role = sink.role
        mime = str(sink.input_port("data-in").mime)
        source = Translator("late-src", role="sensor")
        out = source.add_digital_output("data-out", mime)
        victim.register_translator(source)
        victim.connect_query(out, Query(role=role))
        added = []
        listener = DirectoryListener.from_callbacks(
            added=lambda p: added.append(p.translator_id)
        )
        victim.directory.subscribe_query(Query(role=role), listener)
        bed.settle(2.0)

        victim.crash(lose_state=cold)
        bed.settle(LEASE + 5.0)
        if cold:
            victim.recover()
            # The listener was in-memory state; the binding is journaled.
            victim.directory.subscribe_query(Query(role=role), listener)
        else:
            victim.restart()
        bed.settle(LEASE + 5.0)
        assert victim.shards.map.members == host.shards.map.members

        host.register_translator(sink)
        bed.settle(2.0)
        assert sink.translator_id in added
        (binding,) = victim._bindings
        assert binding.bound_translators == [sink.translator_id]
        out.send(UMessage(mime, "after-the-rejoin", 100))
        bed.settle(2.0)
        assert [m.payload for m in received] == ["after-the-rejoin"]

    def test_cold_restarted_subscriber_hears_a_late_registration(self):
        self._restarted_subscriber_hears_a_late_registration(cold=True)

    def test_warm_restarted_subscriber_hears_a_late_registration(self):
        self._restarted_subscriber_hears_a_late_registration(cold=False)

    def test_cold_restarted_owner_keeps_its_subscribers(self):
        """A cold restart empties an owner's interest table, and inside
        the lease no subscriber sees a membership change that would make
        it subscribe again: the rejoin's holdings report must, or the
        subscriber never hears of a profile placed on that owner alone."""
        bed, (subscriber, owner), _ = build_cluster(
            ["h1", "h2"], replication_factor=1, profiles=8
        )
        sink = late_sink(owner.shards, owner, {owner.runtime_id}, [])
        added = []
        subscriber.directory.subscribe_query(
            Query(role=sink.role),
            DirectoryListener.from_callbacks(
                added=lambda p: added.append(p.translator_id)
            ),
        )
        bed.settle(2.0)
        owner.crash(lose_state=True)
        bed.settle(0.25)
        owner.recover()
        bed.settle(2.0)
        owner.register_translator(sink)
        bed.settle(2.0)
        assert added == [sink.translator_id]

    def test_replica_slices_survive_a_cold_crash(self):
        bed, cluster, ids = build_cluster(
            ["h1", "h2", "h3"], seed=89, profiles=24
        )
        subject = max(
            cluster, key=lambda r: r.shards.replicas.profile_count
        )
        assert subject.shards.replicas.profile_count > 0
        # Self-origin slice entries are excluded from the survival set:
        # bare ``directory.register`` profiles are not journaled (seed
        # semantics), so after a cold crash their local registration is
        # gone and warm-ingest must not let the replica tier resurrect a
        # profile its own origin no longer claims.  They stay served by
        # their surviving *primary* and re-enter this node's slices via
        # anti-entropy after reconvergence.
        replicated_before = {
            tid
            for slice_data in subject.shards.replicas.snapshot().values()
            for tid, profile in slice_data["entries"].items()
            if profile["runtime_id"] != subject.runtime_id
        }
        assert replicated_before, "no peer-origin replica entries to track"

        subject.crash(lose_state=True)
        assert subject.shards.replicas.profile_count == 0  # really gone
        subject.recover()
        # The journal restored every peer-origin replicated profile: the
        # recovered router routes on the view it crashed with, so the
        # profiles are back in its replica slices (or, for an entry also
        # placed on a shard it owns, in its store) -- either way the
        # profile survived the crash on this node, before any gossip.
        held = set(subject.shards.store.snapshot())
        still_replica = {
            tid
            for slice_data in subject.shards.replicas.snapshot().values()
            for tid in slice_data["entries"]
        }
        missing = replicated_before - held - still_replica
        assert not missing, f"replica entries lost in recovery: {missing}"

        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        assert_replica_coherence(cluster)


class TestFactorOneInert:
    def test_default_factor_runs_byte_identical_to_unreplicated(self):
        """With the default ``replication_factor=1`` the overlay must be
        invisible: no replica counters move, no replica wire frames, and
        the journal contains none of the replication record kinds -- even
        across churn that exercises handoff."""
        # Keep the cold-crash victim free of bare-registered profiles:
        # ``directory.register`` entries (unlike translators) are not
        # journaled, so a victim-local one reaped during the dead window
        # would be gone for good -- seed behavior, not under test here.
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        cluster = [
            bed.add_runtime(
                host, sharding_enabled=True, replication_factor=1
            )
            for host in ("h1", "h2", "h3")
        ]
        ids = populate(random.Random(91), cluster[:-1], 30)
        bed.settle(LEASE + 5.0)
        victim = cluster[-1]
        victim.crash(lose_state=True)
        bed.settle(LEASE + 5.0)
        victim.recover()
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)

        for runtime in cluster:
            router = runtime.shards
            assert not router.replicated
            assert router.replicas.slice_count == 0
            assert router.degraded_reads == 0
            assert router.warm_ingests == 0
            assert router.fenced_frames == 0
            assert router.replica_pushes_sent == 0
            assert router.replica_pushes_received == 0
            assert router.digests_sent == 0
            assert router.digest_replies == 0
            assert router.replica_syncs == 0
            records, _, _ = replay_blob(bytes(runtime.journal.blob))
            kinds = {record["kind"] for record in records}
            assert not kinds & REPLICA_RECORD_KINDS, (
                f"replication records in a factor-1 journal: "
                f"{kinds & REPLICA_RECORD_KINDS}"
            )


class TestLinkAsymmetry:
    def test_one_way_block_drops_exactly_one_direction(self):
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1")
        r2 = bed.add_runtime("h2")
        first = Translator("asym-a", role="sensor")
        first.add_digital_output("out", "text/plain")
        r1.register_translator(first)
        second = Translator("asym-b", role="display")
        second.add_digital_input("in", "text/plain", lambda m: None)
        r2.register_translator(second)
        bed.settle(2.0)
        both = {first.translator_id, second.translator_id}
        for runtime in (r1, r2):
            assert {
                p.translator_id for p in runtime.lookup(Query())
            } == both

        # h2 stops hearing h1 -- but not vice versa: r2 leases r1 out
        # while r1 keeps hearing r2's announcements.
        bed.lan.block_direction("h1", "h2")
        bed.settle(LEASE + 5.0)
        assert {p.translator_id for p in r1.lookup(Query())} == both
        assert {
            p.translator_id for p in r2.lookup(Query())
        } == {second.translator_id}
        assert any(True for _ in bed.trace.records("net.asymmetry-drop"))

        assert not r1.node.reachable(r2.node)  # one dead direction is dead
        bed.lan.unblock_direction("h1", "h2")
        assert r1.node.reachable(r2.node)
        bed.settle(LEASE + 10.0)
        for runtime in (r1, r2):
            assert {
                p.translator_id for p in runtime.lookup(Query())
            } == both

    def test_chaos_controller_injects_and_heals_asymmetry(self):
        bed = build_testbed(hosts=["h1", "h2"])
        bed.add_runtime("h1")
        bed.add_runtime("h2")
        plan = FaultPlan()
        fault = plan.link_asymmetry(
            bed.lan, "h1", "h2", at=1.0, duration=4.0
        )
        assert isinstance(fault, LinkAsymmetry)
        bed.add_chaos(plan)
        bed.settle(2.0)
        assert ("h1", "h2") in bed.lan._blocked
        bed.settle(5.0)
        assert not bed.lan._blocked
        injected = [
            record
            for record in bed.trace.records("chaos.inject")
            if "asymmetry" in record.message
        ]
        assert injected

    def test_random_plan_draws_asymmetry_only_when_opted_in(self):
        bed = build_testbed(hosts=["h1", "h2", "h3"])

        def kinds(asymmetry):
            found = set()
            for seed in range(12):
                plan = random_plan(
                    seed=seed,
                    horizon=30.0,
                    media=[bed.lan],
                    fault_count=8,
                    asymmetry=asymmetry,
                )
                found |= {type(fault).__name__ for fault in plan}
            return found

        assert "LinkAsymmetry" in kinds(asymmetry=True)
        assert "LinkAsymmetry" not in kinds(asymmetry=False)

        # Determinism: the same seed draws the identical plan.
        def describe(seed):
            plan = random_plan(
                seed=seed,
                horizon=30.0,
                media=[bed.lan],
                fault_count=8,
                asymmetry=True,
            )
            return [(f.at, f.duration, f.describe()) for f in plan]

        assert describe(5) == describe(5)
