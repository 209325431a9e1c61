"""Unit tests for the write-ahead journal: record framing, checksum and
torn-tail handling, group commit, and replay into RecoveredState."""

import random
from types import SimpleNamespace

import pytest

from repro.core.directory import LEASE
from repro.core.journal import (
    DurableMedia,
    Journal,
    RecoveredState,
    durable_media,
    encode_record,
    replay_blob,
)
from repro.testbed import build_testbed

from tests.chaos.test_shard_churn import (
    assert_all_visible,
    assert_placement_invariant,
    populate,
)
from tests.core.test_directory_index import random_profile


def records_of(blob):
    return replay_blob(blob)[0]


class TestRecordFraming:
    def test_roundtrip(self):
        line = encode_record(1, "register", {"x": 1})
        records, clean, junk = replay_blob(line)
        assert junk == 0
        assert clean == len(line)
        assert records == [{"lsn": 1, "kind": "register", "data": {"x": 1}}]

    def test_canonical_json_is_stable(self):
        a = encode_record(1, "k", {"b": 2, "a": 1})
        b = encode_record(1, "k", {"a": 1, "b": 2})
        assert a == b

    def test_bit_flip_stops_scan_at_prefix(self):
        blob = bytearray()
        for lsn in range(1, 4):
            blob += encode_record(lsn, "k", {"n": lsn})
        # Flip one byte inside the JSON body of the second record.
        first_len = len(encode_record(1, "k", {"n": 1}))
        blob[first_len + 12] ^= 0x01
        records, clean, junk = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1]
        assert clean == first_len
        assert junk == len(blob) - first_len

    def test_torn_tail_without_newline_is_discarded(self):
        whole = encode_record(1, "k", {})
        torn = encode_record(2, "k", {})[:-5]  # partial write, no newline
        records, clean, junk = replay_blob(whole + torn)
        assert [r["lsn"] for r in records] == [1]
        assert clean == len(whole)
        assert junk == len(torn)

    def test_lsn_gap_stops_scan(self):
        blob = encode_record(1, "k", {}) + encode_record(3, "k", {})
        records, _clean, junk = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1]
        assert junk > 0

    def test_garbage_blob_yields_nothing(self):
        records, clean, junk = replay_blob(b"not a journal at all\n")
        assert records == [] and clean == 0 and junk > 0


class TestDurableMedia:
    def test_blobs_keyed_and_isolated(self):
        media = DurableMedia()
        media.blob("a").extend(b"xyz")
        assert media.size("a") == 3
        assert media.size("b") == 0

    def test_truncate_tail_and_flip(self):
        media = DurableMedia()
        media.blob("a").extend(b"0123456789")
        assert media.truncate_tail("a", 4) == 4
        assert bytes(media.blob("a")) == b"012345"
        assert media.truncate_tail("a", 100) == 6
        assert media.flip_tail_byte("a") is False  # empty now
        media.blob("a").extend(b"ABCDEF")
        assert media.flip_tail_byte("a", offset_from_end=0) is True
        assert media.blob("a")[-1] == ord("F") ^ 0x5A

    def test_durable_media_is_per_network(self):
        bed1 = build_testbed(hosts=["h1"])
        bed2 = build_testbed(hosts=["h1"])
        m1 = durable_media(bed1.network)
        assert durable_media(bed1.network) is m1
        assert durable_media(bed2.network) is not m1


class TestJournal:
    def make_runtime(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        return bed, bed.add_runtime("h1", **kwargs)

    def test_synchronous_append_is_immediately_durable(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        before = journal.size_bytes
        journal.append("k", {"v": 1})
        assert journal.pending_bytes == 0
        assert journal.size_bytes > before
        assert journal.fsyncs >= 1

    def test_group_commit_buffers_until_interval(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        durable_before = journal.size_bytes
        journal.append("k", {"v": 1})
        journal.append("k", {"v": 2})
        assert journal.pending_bytes > 0
        assert journal.size_bytes == durable_before
        bed.settle(1.5)
        assert journal.pending_bytes == 0
        assert journal.size_bytes > durable_before

    def test_crash_loses_pending_and_rolls_back_lsn(self):
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.append("k", {"v": 1})
        journal.sync()
        journal.append("k", {"v": 2})
        journal.append("k", {"v": 3})
        journal.lose_pending()
        assert journal.records_lost == 2
        assert journal.pending_bytes == 0
        # The next append continues a gapless durable chain.
        journal.append("k", {"v": 4})
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == [1, 2]

    def test_disabled_journal_writes_nothing(self):
        bed, runtime = self.make_runtime(journal_enabled=False)
        runtime.journal.append("k", {"v": 1})
        assert runtime.journal.size_bytes == 0
        assert runtime.journal.records_appended == 0

    def test_muted_journal_drops_appends(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        journal.muted = True
        before = journal.records_appended
        journal.append("k", {"v": 1})
        assert journal.records_appended == before

    def test_unserializable_payload_raises_without_lsn_gap(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        with pytest.raises(TypeError):
            journal.append("k", {"v": object()})
        journal.append("k", {"v": 1})
        journal.sync()
        assert [r["lsn"] for r in records_of(journal.blob)][-1] == journal._lsn

    def test_auto_checkpoint_bounds_blob_and_preserves_state(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        total = Journal.CHECKPOINT_EVERY_RECORDS + 50
        for index in range(total):
            journal.append(
                "register", {"profile": {"translator_id": f"t{index}"}}
            )
        assert journal.checkpoints >= 1
        records = records_of(journal.blob)
        # Compacted: one checkpoint plus the post-checkpoint tail, not
        # thousands of raw records.
        assert records[0]["kind"] == "checkpoint"
        assert len(records) <= 60
        state = journal.replay()
        assert len(state.registered) == total

    def test_sync_repairs_corrupt_tail_under_live_runtime(self):
        """Corruption landing while the runtime is alive must not strand
        later appends behind the bad frame: sync() rewrites stable storage
        from the mirror instead of extending the junk."""
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.append("register", {"profile": {"translator_id": "a"}})
        journal.sync()
        durable_media(bed.network).flip_tail_byte(
            runtime.runtime_id, offset_from_end=4
        )
        journal.append("register", {"profile": {"translator_id": "b"}})
        journal.sync()
        assert journal.tail_repairs == 1
        state = journal.replay()
        assert not state.truncated  # the repair already scrubbed the damage
        assert {"a", "b"} <= set(state.registered)

    def test_replay_truncates_corrupt_tail_physically(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        journal.append("k", {"v": 1})
        journal.append("k", {"v": 2})
        media = durable_media(bed.network)
        media.flip_tail_byte(runtime.runtime_id, offset_from_end=4)
        state = journal.replay()
        assert state.truncated
        assert state.discarded_bytes > 0
        # The blob now ends at the consistent prefix and new appends extend it.
        journal.append("k", {"v": 3})
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == sorted(lsns) and len(lsns) == 2


class TestReplaySemantics:
    def apply(self, *steps):
        state = RecoveredState()
        for kind, data in steps:
            Journal._apply(state, kind, data)
        return state

    def test_register_unregister_and_health(self):
        profile = {"translator_id": "t1", "health": "healthy"}
        state = self.apply(
            ("register", {"profile": profile}),
            ("health", {"translator_id": "t1", "health": "degraded"}),
        )
        assert state.registered["t1"]["health"] == "degraded"
        state = self.apply(
            ("register", {"profile": profile}),
            ("unregister", {"translator_id": "t1"}),
        )
        assert state.registered == {}

    def test_spool_ack_alignment_is_fifo(self):
        e1 = {"kind": "message", "stream": "s", "seq": 1}
        e2 = {"kind": "message", "stream": "s", "seq": 2}
        state = self.apply(
            ("spool", {"peer": "p", "envelope": e1, "size": 10}),
            ("spool", {"peer": "p", "envelope": e2, "size": 20}),
            ("spool-ack", {"peer": "p"}),
        )
        assert [env["seq"] for env, _size in state.spool["p"]] == [2]
        # Sequence counters remember the highest ever assigned, acked or not.
        assert state.stream_seqs["s"] == 2

    def test_spool_flush_and_breaker_records(self):
        e1 = {"kind": "message", "stream": "s", "seq": 1}
        state = self.apply(
            ("spool", {"peer": "p", "envelope": e1, "size": 10}),
            ("spool-flush", {"peer": "p"}),
            ("breaker", {"peer": "p", "state": "open", "times_opened": 2}),
        )
        assert "p" not in state.spool
        assert state.breakers["p"]["times_opened"] == 2
        state = self.apply(
            ("breaker", {"peer": "p", "state": "open", "times_opened": 2}),
            ("breaker", {"peer": "p", "state": "closed"}),
        )
        assert state.breakers == {}

    def test_binding_and_path_lifecycle(self):
        state = self.apply(
            ("binding-open", {"binding_id": "b1", "port": "x", "query": {}}),
            ("path-open", {"path_id": "p1", "src": "a", "dst": "b", "qos": None}),
            ("binding-close", {"binding_id": "b1"}),
            ("path-close", {"path_id": "p1"}),
        )
        assert state.bindings == {} and state.paths == {}

    def test_seq_reserve_raises_stream_counters(self):
        state = self.apply(
            ("seq-reserve", {"stream": "s", "upto": 65}),
            (
                "spool",
                {
                    "peer": "p",
                    "envelope": {"kind": "message", "stream": "s", "seq": 1},
                    "size": 10,
                },
            ),
        )
        # The durable reservation wins over the (lower) stamped sequence,
        # so a recovered sender resumes past the whole reserved range.
        assert state.stream_seqs["s"] == 65

    def test_checkpoint_record_replaces_state(self):
        envelope = {"kind": "message", "stream": "s", "seq": 3}
        state = self.apply(
            ("register", {"profile": {"translator_id": "old"}}),
            (
                "checkpoint",
                {
                    "registered": {"new": {"translator_id": "new"}},
                    "bindings": {"b1": {"binding_id": "b1"}},
                    "paths": {},
                    "spool": {"p": [[envelope, 7]]},
                    "stream_seqs": {"s": 67},
                    "breakers": {},
                },
            ),
        )
        assert set(state.registered) == {"new"}
        assert set(state.bindings) == {"b1"}
        assert state.spool["p"] == [(envelope, 7)]
        assert state.stream_seqs == {"s": 67}

    def test_unknown_kinds_are_ignored(self):
        state = self.apply(("future-kind", {"anything": True}))
        assert state.registered == {} and state.applied_records == 0

    def test_retired_codec_negotiation_records_replay_ignored(self):
        """Blobs from when the transport negotiated the codec per peer hold
        ``codec-ready``/``codec-z-ready`` records and checkpoints carrying
        ``codec_peers``/``codec_z_peers``.  Cold recovery replays such a
        blob with those entries ignored, and its checkpoint drops them."""
        checkpoint = {
            "registered": {},
            "bindings": {},
            "paths": {},
            "spool": {},
            "stream_seqs": {"ctl:rt-h2": 67},
            "breakers": {},
        }
        old = [
            (
                "checkpoint",
                dict(checkpoint, codec_peers=["rt-h2"], codec_z_peers=["rt-h2"]),
            ),
            ("codec-ready", {"peer": "rt-h3"}),
            ("codec-z-ready", {"peer": "rt-h3"}),
            ("seq-reserve", {"stream": "ctl:rt-h3", "upto": 65}),
        ]
        bed = build_testbed(hosts=["h1"])
        blob = durable_media(bed.network).blob("rt-h1")
        for lsn, (kind, data) in enumerate(old, start=1):
            blob.extend(encode_record(lsn, kind, data, binary=True))
        replayed = self.apply(*((r["kind"], r["data"]) for r in records_of(blob)))
        assert vars(replayed) == vars(self.apply(("checkpoint", checkpoint), old[3]))
        runtime = bed.add_runtime("h1", codec_enabled=True)
        runtime.crash(lose_state=True)
        runtime.recover()
        records = records_of(runtime.journal.blob)
        assert [r["kind"] for r in records] == ["checkpoint"]
        data = records[0]["data"]
        assert data["stream_seqs"] == {"ctl:rt-h2": 67, "ctl:rt-h3": 65}
        assert "codec_peers" not in data and "codec_z_peers" not in data

    def test_retired_ownership_epoch_records_replay_ignored(self):
        """Blobs from when the replica tier kept an ownership epoch hold
        ``shard-epoch`` records, ``shard-replica`` records stamped with an
        ``epoch`` and checkpoints carrying ``shard_epoch`` and per-slice
        ``epoch`` fields.  Such a blob replays to the same state as the
        same blob without those entries, and cold recovery's checkpoint
        drops them."""
        rng = random.Random(7)
        p1 = random_profile(rng, 1, "rt-h2").to_dict()
        p2 = random_profile(rng, 2, "rt-h3").to_dict()
        t1, t2 = p1["translator_id"], p2["translator_id"]
        checkpoint = {
            "registered": {},
            "bindings": {},
            "paths": {},
            "spool": {},
            "stream_seqs": {},
            "breakers": {},
            "shard_owned": [3],
            "replica_slices": {"5": {"entries": {t1: p1}}},
        }
        push = {"shard": 5, "profiles": [p2], "removed": [t1], "full": False}
        sync = {"shard": 9, "profiles": [p1], "removed": [], "full": True}
        current = [
            ("checkpoint", checkpoint),
            ("shard-replica", push),
            ("shard-replica", sync),
        ]
        old = [
            (
                "checkpoint",
                dict(
                    checkpoint,
                    shard_epoch=4,
                    replica_slices={"5": {"epoch": 3, "entries": {t1: p1}}},
                ),
            ),
            ("shard-epoch", {"epoch": 5}),
            ("shard-replica", dict(push, epoch=5)),
            ("shard-epoch", {"epoch": 6}),
            ("shard-replica", dict(sync, epoch=2)),
        ]

        def replayed(steps, blob):
            for lsn, (kind, data) in enumerate(steps, start=1):
                blob.extend(encode_record(lsn, kind, data))
            return self.apply(*((r["kind"], r["data"]) for r in records_of(blob)))

        bed = build_testbed(hosts=["h1"])
        state = replayed(old, durable_media(bed.network).blob("rt-h1"))
        assert vars(state) == vars(replayed(current, bytearray()))
        assert state.replica_slices == {
            "5": {"entries": {t2: p2}},
            "9": {"entries": {t1: p1}},
        }
        runtime = bed.add_runtime(
            "h1", sharding_enabled=True, replication_factor=2
        )
        runtime.crash(lose_state=True)
        runtime.recover()
        records = records_of(runtime.journal.blob)
        assert [r["kind"] for r in records] == ["checkpoint"]
        data = records[0]["data"]
        assert "shard_epoch" not in data
        # The slices name their profiles by index into the checkpoint's
        # profile table; replayed, they are exactly the slices above.
        replayed_slices = self.apply(("checkpoint", data)).replica_slices
        assert replayed_slices == state.replica_slices


    def test_retired_weight_records_replay_ignored(self):
        """Blobs from when shard placement followed load hold
        ``shard-weights`` records and checkpoints carrying
        ``shard_weights``.  Such a blob replays to the same state as the
        same blob without those entries, and cold recovery's checkpoint
        drops the field."""
        rng = random.Random(11)
        p1 = random_profile(rng, 1, "rt-h2").to_dict()
        p2 = random_profile(rng, 2, "rt-h2").to_dict()
        checkpoint = {
            "registered": {},
            "bindings": {},
            "paths": {},
            "spool": {},
            "stream_seqs": {},
            "breakers": {},
            "shard_entries": {
                p1["translator_id"]: {"profile": p1, "shards": [3]}
            },
            "shard_owned": [3, 9],
            "shard_members": ["rt-h1", "rt-h2"],
        }
        store = {"profile": p2, "shards": [9]}
        current = [("checkpoint", checkpoint), ("shard-store", store)]
        old = [
            (
                "checkpoint",
                dict(checkpoint, shard_weights={"epoch": 2, "tiers": {"3": 1}}),
            ),
            ("shard-weights", {"epoch": 3, "tiers": {"3": 2, "9": 1}}),
            ("shard-store", store),
            ("shard-weights", {"epoch": 4, "tiers": {}}),
        ]

        def replayed(steps, blob):
            for lsn, (kind, data) in enumerate(steps, start=1):
                blob.extend(encode_record(lsn, kind, data, binary=True))
            return self.apply(*((r["kind"], r["data"]) for r in records_of(blob)))

        bed = build_testbed(hosts=["h1"])
        state = replayed(old, durable_media(bed.network).blob("rt-h1"))
        assert vars(state) == vars(replayed(current, bytearray()))
        assert set(state.shard_entries) == {
            p1["translator_id"], p2["translator_id"]
        }
        runtime = bed.add_runtime("h1", sharding_enabled=True, codec_enabled=True)
        runtime.crash(lose_state=True)
        runtime.recover()
        records = records_of(runtime.journal.blob)
        assert [r["kind"] for r in records] == ["checkpoint"]
        data = records[0]["data"]
        assert "shard_weights" not in data
        sealed = self.apply(("checkpoint", data))
        assert sealed.shard_entries == state.shard_entries

    def test_shard_members_replay_and_blobs_without_them(self):
        """``shard-own`` records and checkpoints carry the shard map's
        member ids.  A blob written before they did replays to the same
        state as before, with no members (so recovery starts from a
        self-only view); a later record without them clears the view."""
        checkpoint = {
            "registered": {},
            "bindings": {},
            "paths": {},
            "spool": {},
            "stream_seqs": {},
            "breakers": {},
            "shard_owned": [3, 7],
        }
        members = ["rt-h1", "rt-h2", "rt-h3"]
        old = self.apply(
            ("checkpoint", checkpoint), ("shard-own", {"owned": [7]})
        )
        new = self.apply(
            ("checkpoint", dict(checkpoint, shard_members=members)),
            ("shard-own", {"owned": [7], "members": members}),
        )
        assert old.shard_owned == new.shard_owned == [7]
        assert old.shard_members == [] and new.shard_members == members
        assert vars(new) == dict(vars(old), shard_members=members)
        assert self.apply(("checkpoint", checkpoint)).shard_members == []
        cleared = self.apply(
            ("shard-own", {"owned": [7], "members": members}),
            ("shard-own", {"owned": [3]}),
        )
        assert cleared.shard_members == []

    @staticmethod
    def _recover_sharded(strip_members):
        """Cold-crash and recover the last runtime of a settled 3-node
        replicated cluster, optionally after rewriting its blob the way a
        journal without member ids would have written it.  Returns the
        recovered view before any gossip and every store once settled."""
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        cluster = [
            bed.add_runtime(host, sharding_enabled=True, replication_factor=2)
            for host in ("h1", "h2", "h3")
        ]
        ids = populate(random.Random(31), cluster[:-1], 24)
        bed.settle(LEASE + 5.0)
        victim = cluster[-1]
        victim.crash(lose_state=True)
        if strip_members:
            blob = victim.journal.blob
            records = records_of(blob)
            del blob[:]
            for record in records:
                data = dict(record["data"])
                data.pop("members", None)  # shard-own
                data.pop("shard_members", None)  # checkpoint
                blob.extend(encode_record(record["lsn"], record["kind"], data))
            assert Journal(victim, victim.journal.media).replay().shard_members == []
        bed.settle(0.25)
        victim.recover()
        view = victim.shards.map.members
        bed.settle(LEASE + 5.0)
        assert_placement_invariant(cluster)
        assert_all_visible(cluster, ids)
        return view, {r.runtime_id: r.shards.store.snapshot() for r in cluster}

    def test_recovery_without_members_converges_to_the_same_placement(self):
        kept_view, kept = self._recover_sharded(strip_members=False)
        old_view, old = self._recover_sharded(strip_members=True)
        assert kept_view == ("rt-h1", "rt-h2", "rt-h3")
        assert old_view == ("rt-h3",)  # today's self-only recovery view
        assert old == kept

    def test_checkpoint_round_trips_shard_members(self):
        bed = build_testbed(hosts=["h1", "h2"])
        runtimes = [
            bed.add_runtime(host, sharding_enabled=True) for host in ("h1", "h2")
        ]
        bed.settle(2.0)
        journal = runtimes[0].journal
        journal.checkpoint()
        records = records_of(journal.blob)
        assert [r["kind"] for r in records] == ["checkpoint"]
        assert records[0]["data"]["shard_members"] == ["rt-h1", "rt-h2"]
        assert journal.replay().shard_members == ["rt-h1", "rt-h2"]

    @staticmethod
    def _journal(media=None):
        """A binary journal on its own media, outside any runtime."""
        return Journal(
            SimpleNamespace(runtime_id="rt-h1"), media or DurableMedia(),
            binary=True,
        )

    @staticmethod
    def _inline_profiles(data):
        """A table checkpoint rewritten the way a journal without the
        ``profiles`` table writes it: every profile inline."""
        table = data["profiles"]
        legacy = {key: value for key, value in data.items() if key != "profiles"}
        legacy["shard_entries"] = {
            tid: {"profile": table[entry["profile"]], "shards": entry["shards"]}
            for tid, entry in data.get("shard_entries", {}).items()
        }
        legacy["replica_slices"] = {
            shard: {
                "entries": {
                    tid: table[index]
                    for tid, index in slice_["entries"].items()
                }
            }
            for shard, slice_ in data.get("replica_slices", {}).items()
        }
        return legacy

    def test_checkpoint_writes_each_shard_profile_once(self):
        """A profile held in the shard store and in two replica slices is
        written once, in the checkpoint's ``profiles`` table; a version
        that differs (here in health) gets its own entry.  The checkpoint
        replays to the same state as the same content written inline, and
        the sections share one dict per table entry."""
        rng = random.Random(11)
        p1 = random_profile(rng, 1, "rt-h2").to_dict()
        p2 = random_profile(rng, 2, "rt-h3").to_dict()
        p2_degraded = dict(p2, health="degraded")
        t1, t2 = p1["translator_id"], p2["translator_id"]
        journal = self._journal()
        journal.append("shard-store", {"profile": p1, "shards": [3]})
        journal.append("shard-store", {"profile": p2_degraded, "shards": [4]})
        journal.append(
            "shard-replica",
            {"shard": 5, "profiles": [p1, p2], "removed": [], "full": True},
        )
        # An equal dict that is another object still shares the entry.
        journal.append(
            "shard-replica",
            {"shard": 9, "profiles": [dict(p1)], "removed": [], "full": True},
        )
        journal.checkpoint()
        [record] = records_of(journal.blob)
        data = record["data"]
        assert data["profiles"] == [p1, p2_degraded, p2]
        assert data["shard_entries"] == {
            t1: {"profile": 0, "shards": [3]},
            t2: {"profile": 1, "shards": [4]},
        }
        assert data["replica_slices"] == {
            "5": {"entries": {t1: 0, t2: 2}},
            "9": {"entries": {t1: 0}},
        }
        table_state = self._journal(journal.media).replay()
        media = DurableMedia()
        media.blob("rt-h1").extend(
            encode_record(1, "checkpoint", self._inline_profiles(data), True)
        )
        inline_state = self._journal(media).replay()
        assert vars(table_state) == vars(inline_state)
        assert table_state.shard_entries[t1]["profile"] == p1
        slices = table_state.replica_slices
        assert slices["5"]["entries"][t1] is slices["9"]["entries"][t1]
        assert slices["5"]["entries"][t1] is table_state.shard_entries[t1]["profile"]
        assert slices["5"]["entries"][t2] is not table_state.shard_entries[t2]["profile"]

    @pytest.mark.parametrize("inline", [False, True], ids=["table", "inline"])
    def test_cold_recovery_from_either_checkpoint_layout(self, inline):
        """A cold crash right after a checkpoint recovers the same shard
        store and replica slices from a checkpoint with the profile table
        and from the same checkpoint with every profile inline (the layout
        of every blob written before the table)."""
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        cluster = [
            bed.add_runtime(host, sharding_enabled=True, replication_factor=2)
            for host in ("h1", "h2", "h3")
        ]
        populate(random.Random(31), cluster[:-1], 24)
        bed.settle(LEASE + 5.0)
        victim = cluster[-1]
        store = victim.shards.store.snapshot()
        slices = victim.shards.replicas.snapshot()
        victim.journal.checkpoint()
        victim.crash(lose_state=True)
        blob = victim.journal.blob
        [record] = records_of(blob)
        data = record["data"]
        held = len(data["shard_entries"]) + sum(
            len(slice_["entries"]) for slice_ in data["replica_slices"].values()
        )
        assert len(data["profiles"]) < held  # the table shared something
        if inline:
            del blob[:]
            blob.extend(
                encode_record(1, "checkpoint", self._inline_profiles(data), True)
            )
        victim.recover()
        assert victim.shards.store.snapshot() == store
        assert victim.shards.replicas.snapshot() == slices

    def test_health_after_a_table_checkpoint_changes_only_registered(self):
        """``registered`` entries are the mirror's own copies, so a
        ``health`` record changes them and never the profile dict the
        shard store and a replica slice share (nor the caller's dict)."""
        p1 = random_profile(random.Random(13), 1, "rt-h1").to_dict()
        t1 = p1["translator_id"]
        journal = self._journal()
        journal.append("register", {"profile": p1})
        journal.append("shard-store", {"profile": p1, "shards": [3]})
        journal.append(
            "shard-replica",
            {"shard": 5, "profiles": [p1], "removed": [], "full": True},
        )
        journal.checkpoint()
        state = journal.replay()  # now the journal's live mirror
        shared = state.shard_entries[t1]["profile"]
        assert state.replica_slices["5"]["entries"][t1] is shared
        assert state.registered[t1] is not shared
        journal.append("health", {"translator_id": t1, "health": "degraded"})
        assert state.registered[t1]["health"] == "degraded"
        assert shared["health"] == "healthy"
        journal.checkpoint()
        again = self._journal(journal.media).replay()
        assert again.registered[t1] == dict(p1, health="degraded")
        assert again.shard_entries[t1]["profile"] == p1
        assert again.replica_slices["5"]["entries"][t1] == p1
        assert p1["health"] == "healthy"


class TestAmortizedSpoolRecords:
    """`append_spool` folding and the batched replay kinds it produces."""

    def make_runtime(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        return bed, bed.add_runtime("h1", **kwargs)

    def envelope(self, seq):
        return {"kind": "message", "stream": "s", "seq": seq}

    def test_spool_batch_replays_every_entry_in_order(self):
        state = RecoveredState()
        Journal._apply(
            state,
            "spool-batch",
            {
                "peer": "p",
                "entries": [[self.envelope(1), 10], [self.envelope(2), 20]],
            },
        )
        assert [e["seq"] for e, _s in state.spool["p"]] == [1, 2]
        assert state.stream_seqs["s"] == 2

    def test_counted_ack_pops_fifo_prefix(self):
        state = RecoveredState()
        Journal._apply(
            state,
            "spool-batch",
            {"peer": "p", "entries": [[self.envelope(i), 10] for i in range(1, 5)]},
        )
        Journal._apply(state, "spool-ack", {"peer": "p", "count": 3})
        assert [e["seq"] for e, _s in state.spool["p"]] == [4]

    def test_legacy_uncounted_ack_still_pops_one(self):
        state = RecoveredState()
        Journal._apply(
            state,
            "spool",
            {"peer": "p", "envelope": self.envelope(1), "size": 10},
        )
        Journal._apply(state, "spool-ack", {"peer": "p"})
        assert state.spool.get("p", []) == []

    def test_synchronous_commit_never_folds(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        before = journal.records_appended
        journal.append_spool("p", self.envelope(1), 10)
        journal.append_spool("p", self.envelope(2), 10)
        assert journal.spool_folds == 0
        assert journal.records_appended == before + 2
        spooled = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [len(d["entries"]) for d in spooled] == [1, 1]

    def test_group_commit_folds_same_peer_run_into_one_record(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        before = journal.records_appended
        for seq in range(1, 6):
            journal.append_spool("p", self.envelope(seq), 10)
        assert journal.spool_folds == 4
        assert journal.records_appended == before + 1
        journal.sync()
        spooled = [
            r for r in records_of(journal.blob) if r["kind"] == "spool-batch"
        ]
        assert len(spooled) == 1
        assert [e[0]["seq"] for e in spooled[0]["data"]["entries"]] == [
            1, 2, 3, 4, 5,
        ]

    def test_interleaved_record_ends_the_fold(self):
        """Growing a spool-batch past e.g. a spool-flush would reorder
        replay; any other append must break the foldable run."""
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        journal.append("spool-flush", {"peer": "p"})
        journal.append_spool("p", self.envelope(2), 10)
        journal.sync()
        records = records_of(journal.blob)
        kinds = [r["kind"] for r in records]
        assert kinds[-3:] == ["spool-batch", "spool-flush", "spool-batch"]
        # Replay order is flush-safe: only the post-flush entry survives.
        state = RecoveredState()
        for record in records:
            Journal._apply(state, record["kind"], record["data"])
        assert [e["seq"] for e, _s in state.spool["p"]] == [2]

    def test_fold_does_not_cross_peers(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p1", self.envelope(1), 10)
        journal.append_spool("p2", self.envelope(2), 10)
        journal.append_spool("p1", self.envelope(3), 10)
        assert journal.spool_folds == 0
        journal.sync()
        batches = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [(d["peer"], len(d["entries"])) for d in batches] == [
            ("p1", 1), ("p2", 1), ("p1", 1),
        ]

    def test_sync_ends_the_fold(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        journal.sync()
        journal.append_spool("p", self.envelope(2), 10)
        assert journal.spool_folds == 0  # flushed records are immutable

    def test_unserializable_entry_raises_without_corrupting_the_fold(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        with pytest.raises(TypeError):
            journal.append_spool("p", {"kind": "message", "x": object()}, 10)
        journal.append_spool("p", self.envelope(2), 10)
        journal.sync()
        batches = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [[e[0]["seq"] for e in d["entries"]] for d in batches] == [[1, 2]]

    def test_lose_pending_drops_the_folded_record(self):
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.sync()
        durable = len(records_of(journal.blob))
        for seq in range(1, 4):
            journal.append_spool("p", self.envelope(seq), 10)
        journal.lose_pending()
        assert len(records_of(journal.blob)) == durable
        # The LSN chain continues gaplessly after the loss.
        journal.append_spool("p", self.envelope(9), 10)
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)
