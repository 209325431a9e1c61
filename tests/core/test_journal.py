"""Unit tests for the write-ahead journal: record framing, checksum and
torn-tail handling, group commit, and replay into RecoveredState."""

import random
import zlib
from types import SimpleNamespace

import pytest

from repro.core.codec import (
    JOURNAL_MAGIC,
    JOURNAL_MAGIC_BLOB,
    JOURNAL_MAGIC_Z,
    BlobSymbols,
    CodecError,
    WireEncoder,
    decode_journal_body,
    encode_journal_body,
)
from repro.core.directory import LEASE
from repro.core.journal import (
    DurableMedia,
    Journal,
    RecoveredState,
    durable_media,
    encode_record,
    replay_blob,
)
from repro.core.messages import UMessage
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.test_shard_churn import (
    assert_all_visible,
    assert_placement_invariant,
    populate,
)
from tests.core.test_directory_index import random_profile


def records_of(blob):
    return replay_blob(blob)[0]


def replayed(records):
    """The state a replay of ``records`` rebuilds."""
    state = RecoveredState()
    for record in records:
        Journal._apply(state, record["kind"], record["data"])
    return state


def stub_runtime():
    """A runtime stand-in for a journal driven by hand: its group-commit
    timer never fires (the test syncs), and traces are dropped."""
    return SimpleNamespace(
        runtime_id="rt-h1",
        kernel=SimpleNamespace(call_later=lambda delay, callback: None),
        trace=lambda *args, **kwargs: None,
    )


class TestRecordFraming:
    def test_roundtrip(self):
        line = encode_record(1, "register", {"x": 1})
        records, clean, junk = replay_blob(line)
        assert junk == 0
        assert clean == len(line)
        assert records == [{"lsn": 1, "kind": "register", "data": {"x": 1}}]

    def test_key_order_does_not_change_the_replayed_record(self):
        # Bodies keep the data's key order, and replay equality ignores it.
        a = encode_record(1, "k", {"b": 2, "a": 1})
        b = encode_record(1, "k", {"a": 1, "b": 2})
        assert a == encode_record(1, "k", {"b": 2, "a": 1})
        assert records_of(a) == records_of(b)

    def test_bit_flip_stops_scan_at_prefix(self):
        blob = bytearray()
        for lsn in range(1, 4):
            blob += encode_record(lsn, "k", {"n": lsn})
        # Flip one byte inside the body of the second record.
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
    #: Runtime keywords of every case: the paper flags.  The journal
    #: writes one body form whatever the flags, and
    #: ``TestJournalBinaryBodies`` runs the same cases on the data plane's.
    DATA_PLANE: dict = {}

    def make_runtime(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        runtime = bed.add_runtime("h1", **self.DATA_PLANE, **kwargs)
        assert runtime.data_plane_enabled is bool(self.DATA_PLANE)
        return bed, runtime

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


class TestJournalBinaryBodies(TestJournal):
    DATA_PLANE = {"batching_enabled": True}


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
            ("spool-ack", {"peer": "p", "count": 1}),
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
            blob.extend(encode_record(lsn, kind, data))
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
                blob.extend(encode_record(lsn, kind, data))
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
        """A journal on its own media, outside any runtime."""
        return Journal(SimpleNamespace(runtime_id="rt-h1"), media or DurableMedia())

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
            encode_record(1, "checkpoint", self._inline_profiles(data), compress=True)
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
                encode_record(
                    1, "checkpoint", self._inline_profiles(data), compress=True
                )
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


def paper_stream(count=12, opaque_at=5):
    """A paper-flag runtime (the default flags) streaming ``count``
    messages to a paper-flag peer, the one at ``opaque_at`` with a
    payload no journal can hold.  Returns the testbed, both runtimes, the
    output port and the sink's received messages once every message is
    delivered."""
    bed = build_testbed(hosts=["h1", "h2"])
    producer = bed.add_runtime("h1")
    consumer = bed.add_runtime("h2")
    received = []
    sink = Translator("display", role="display")
    sink.add_digital_input("data-in", "text/plain", received.append)
    consumer.register_translator(sink)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    bed.settle(1.0)
    producer.connect(out, sink.profile.port_ref("data-in"))
    for index in range(count):
        payload = object() if index == opaque_at else f"m{index}"
        out.send(UMessage("text/plain", payload, 100))
    bed.settle(10.0)
    assert len(received) == count
    return bed, producer, consumer, out, received


class TestAmortizedSpoolRecords:
    """One ``spool`` record per spooled envelope, acked by one counted
    ``spool-ack`` record per frame, on both data planes."""

    DATA_PLANE = TestJournal.DATA_PLANE
    make_runtime = TestJournal.make_runtime

    def envelope(self, seq):
        return {"kind": "message", "stream": "s", "seq": seq}

    def test_counted_ack_pops_fifo_prefix(self):
        state = RecoveredState()
        for seq in range(1, 5):
            Journal._apply(
                state, "spool", {"peer": "p", "envelope": self.envelope(seq), "size": 10}
            )
        Journal._apply(state, "spool-ack", {"peer": "p", "count": 3})
        assert [e["seq"] for e, _s in state.spool["p"]] == [4]
        assert state.stream_seqs["s"] == 4

    def test_group_commit_appends_one_record_per_spool(self):
        """Under group commit, k same-peer spools append k records, and
        each append only extends the pending buffer: no pending record
        is rewritten."""
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        before = journal.records_appended
        pending = [bytes(journal._pending)]
        for seq in range(1, 6):
            journal.append_spool("p", self.envelope(seq), 10)
            pending.append(bytes(journal._pending))
        assert journal.records_appended == before + 5
        for shorter, longer in zip(pending, pending[1:]):
            assert len(longer) > len(shorter) and longer.startswith(shorter)
        journal.sync()
        spooled = [r["data"] for r in records_of(journal.blob) if r["kind"] == "spool"]
        assert spooled == [
            {"peer": "p", "envelope": self.envelope(seq), "size": 10}
            for seq in range(1, 6)
        ]


class TestAmortizedSpoolRecordsBinaryBodies(TestAmortizedSpoolRecords):
    DATA_PLANE = {"batching_enabled": True}


class TestPaperRuntimeJournal:
    def test_paper_runtime_journals_binary_records_and_recovers(self):
        """A runtime with the paper flags writes the one journal form:
        binary bodies, one ``spool`` record per envelope and a
        ``spool-ack {count: 1}`` per one-envelope frame; a cold crash
        with envelopes spooled replays to the mirror it held."""
        bed, producer, consumer, out, received = paper_stream()
        blob = bytes(producer.journal.blob)
        assert {line[9] for line in blob.split(b"\n")[:-1]} <= {
            JOURNAL_MAGIC, JOURNAL_MAGIC_Z, JOURNAL_MAGIC_BLOB,
        }
        records = records_of(blob)
        spools = [r["data"] for r in records if r["kind"] == "spool"]
        acks = [r["data"] for r in records if r["kind"] == "spool-ack"]
        stream = producer.transport._peer_streams[consumer.runtime_id]
        assert len(spools) == producer.transport.messages_relayed == 12
        assert stream.messages_sent == 12  # one envelope per frame
        assert acks == [{"count": 1, "peer": consumer.runtime_id}] * 12
        assert [d["envelope"]["kind"] for d in spools].count("opaque") == 1

        consumer.crash()  # the next envelopes stay spooled, unacked
        for index in range(12, 16):
            payload = object() if index == 14 else f"m{index}"
            out.send(UMessage("text/plain", payload, 100))
        bed.settle(0.5)
        mirror = producer.journal._mirror
        held = {
            "registered": mirror.registered,
            "paths": mirror.paths,
            "spool": mirror.spool,
            "stream_seqs": mirror.stream_seqs,
        }
        assert len(mirror.spool[consumer.runtime_id]) == 4
        producer.crash(lose_state=True)
        state = replayed(records_of(producer.journal.blob))
        assert {key: getattr(state, key) for key in held} == held
        consumer.restart()
        producer.recover()
        assert producer.transport.respooled == 3  # the opaque one is skipped
        bed.settle(30.0)
        payloads = [m.payload for m in received if isinstance(m.payload, str)]
        assert payloads == [f"m{i}" for i in range(16) if i not in (5, 14)]


class TestBinaryWalCrashBoundaries:
    """A journal's blob cut at every record boundary and inside its
    records.  Its blob-scoped records share one symbol table, so every cut
    must replay, and a journal opened over a cut must continue the table,
    through failed encodes and lost group-commit windows alike.  Two
    writers fill the blob: seeded appends by hand, and a paper-flag
    runtime streaming to a peer (opaque markers, ``seq-reserve``)."""

    PEERS = ("rt-p0", "rt-p1", "rt-p2")

    @staticmethod
    def _journal(media, fsync_interval):
        return Journal(stub_runtime(), media, fsync_interval=fsync_interval)

    @staticmethod
    def _envelope(rng, peer, seq):
        return {
            "kind": "message",
            "stream": f"{peer}:s{rng.randrange(3)}",
            "seq": seq,
            "dst": f"{peer}/display-{rng.randrange(4)}/data-in",
            "payload": {"site": f"room-{rng.randrange(12)}", "v": rng.randrange(99)},
        }

    @staticmethod
    def _profile(rng, translator_id, **fields):
        """A registered profile: a fresh id and recurring strings."""
        profile = {
            "translator_id": translator_id,
            "name": f"room-{rng.randrange(12)}",
            "platform": rng.choice(("upnp", "jini", "bluetooth")),
        }
        profile.update(fields)
        return {"profile": profile}

    def _write(self, journal, rng):
        """300 seeded appends.  Returns (translator id, name) for each
        record written right after a lost group-commit window that reuses
        a name first defined in the lost window."""
        reused = []
        seq = 0
        peer = self.PEERS[0]
        for step in range(300):
            if rng.random() < 0.3:
                peer = rng.choice(self.PEERS)  # runs of one peer
            roll = rng.random()
            if step == 120:
                # An int beyond the varint range rides the codec too.
                journal.append("register", self._profile(rng, f"t{step}", serial=2**70))
                journal.sync()
            elif step == 210:
                seq += 1
                fresh = dict(self._envelope(rng, peer, seq), stream=f"{peer}:new")
                journal.append_spool(peer, fresh, 40)
                with pytest.raises(TypeError):
                    journal.append_spool(
                        peer, {"kind": "message", "payload": {"new": object()}}, 40
                    )
                # The failed append defined nothing, and the record before
                # it keeps the symbols it defined.
                journal.append("register", self._profile(rng, f"t{step}", name=f"{peer}:new"))
            elif step % 75 == 50:
                name = f"lost-{step}"
                journal.append("register", self._profile(rng, f"gone-{step}", name=name))
                journal.lose_pending()
                journal.append("register", self._profile(rng, f"kept-{step}", name=name))
                reused.append((f"kept-{step}", name))
            elif roll < 0.55:
                seq += 1
                journal.append_spool(
                    peer, self._envelope(rng, peer, seq), rng.randrange(20, 200)
                )
            elif roll < 0.7:
                journal.append("spool-ack", {"peer": peer, "count": rng.randrange(1, 4)})
            else:
                journal.append("register", self._profile(rng, f"t{step}"))
            if rng.random() < 0.2:
                journal.sync()
        journal.sync()
        return reused

    @staticmethod
    def _paper_producer():
        """A paper-flag producer's journal after it streamed to a peer
        and then spooled, unacked, while the peer was down."""
        bed, producer, consumer, out, _received = paper_stream()
        consumer.crash()
        for index in range(4):
            payload = object() if index == 2 else f"late-{index}"
            out.send(UMessage("text/plain", payload, 100))
        bed.settle(0.5)
        kinds = [r["kind"] for r in records_of(producer.journal.blob)]
        assert {"register", "path-open", "seq-reserve", "spool", "spool-ack"} <= set(kinds)
        assert len(producer.journal._mirror.spool[consumer.runtime_id]) == 4
        return producer.journal

    @pytest.fixture(params=[0.0, 1.0, None], ids=["sync", "group-commit", "paper-producer"])
    def written(self, request):
        if request.param is None:
            journal, reused = self._paper_producer(), []
        else:
            journal = self._journal(DurableMedia(), request.param)
            reused = self._write(journal, random.Random(43))
        blob = bytes(journal.blob)
        ends = [index + 1 for index, byte in enumerate(blob) if byte == 0x0A]
        return journal, reused, blob, list(zip([0] + ends[:-1], ends))

    def test_the_blob_replays_every_record_written(self, written):
        journal, reused, blob, spans = written
        records, clean, junk = replay_blob(blob)
        assert (clean, junk) == (len(blob), 0)
        assert [r["lsn"] for r in records] == list(range(1, journal._lsn + 1))
        bodies = {blob[start + 9] for start, _end in spans}
        assert bodies == {JOURNAL_MAGIC_BLOB}
        state = replayed(records)
        assert state.registered == journal._mirror.registered
        assert state.spool == journal._mirror.spool
        # A record that reuses a string first defined in a lost record
        # replays: the lost record's definitions left the table with it.
        for translator_id, name in reused:
            assert state.registered[translator_id]["name"] == name
        if journal.fsync_interval:
            assert not [t for t in state.registered if t.startswith("gone-")]

    def _append_ten(self, media, fsync_interval):
        """Open a journal over ``media`` and append ten records that
        reference strings a cut defined and define one string each;
        returns the journal and the records its blob replays to."""
        reopened = self._journal(media, fsync_interval)
        for index in range(10):
            reopened.append("register", {"profile": {
                "translator_id": f"more-{index}",
                "name": f"room-{index}",
                "dst": f"{self.PEERS[index % 3]}/display-{index % 4}/data-in",
            }})
        reopened.sync()
        records, _clean, junk = replay_blob(media.blob("rt-h1"))
        assert junk == 0
        state = replayed(records)
        assert state.registered == reopened._mirror.registered
        assert [state.registered[f"more-{i}"]["name"] for i in range(10)] == [
            f"room-{i}" for i in range(10)
        ]
        return reopened, records

    def test_every_record_boundary_cut_replays_and_takes_new_records(self, written):
        journal, _reused, blob, spans = written
        records = records_of(blob)
        assert len(records) == len(spans)
        for index, cut in enumerate([start for start, _end in spans] + [len(blob)]):
            media = DurableMedia()
            media.blob("rt-h1").extend(blob[:cut])
            reopened, replayed_records = self._append_ten(media, journal.fsync_interval)
            # The cut replays to exactly the records before it, and the
            # ten appended after it follow them.
            assert replayed_records[:index] == records[:index], cut
            assert len(replayed_records) == index + 10
            assert reopened.tail_repairs == 0

    def test_every_torn_cut_replays_one_record_fewer(self, written):
        journal, _reused, blob, spans = written
        records = records_of(blob)
        rng = random.Random(47)
        for index, (start, end) in enumerate(spans):
            cut = rng.randrange(start + 1, end)
            assert replay_blob(blob[:cut]) == (records[:index], start, cut - start)
            if index % 10 == 0:
                # A journal opened over a torn cut rewrites its blob from
                # the replayed records before the first flush.
                media = DurableMedia()
                media.blob("rt-h1").extend(blob[:cut])
                reopened, _records = self._append_ten(media, journal.fsync_interval)
                assert reopened.tail_repairs == 1


#: A blob of self-contained bodies, the form journals wrote before
#: blob-scoped bodies existed: a compressed checkpoint (``0xB3``), then a
#: spool, a spool-ack and a register whose int is beyond the varint range
#: (``0xB2``).
SELF_CONTAINED_BLOB = bytes.fromhex(
    "383264396431333720b3789c5dcbb10e8230180061d282f6fe59376727517010024f"
    "4322d0029a46ebe0dbdb303a7cd3e58c6667369c8c965e85c264dce8a9644897eee1"
    "a9654c3ffee969c566af90db9246dcf6eede7ee9be32a950aecb44c540cd488ba5c1"
    "c9acc2754df37f223709e7e8105da2224a38b2d7ea078cb218080a"
    "623666363136663620b208030914080309161b6e650572742d683209170805090009"
    "01090c1b6e660872742d68313a7031090d0302091b6e1b6e671572742d68322f6469"
    "73706c61792f646174612d696e090608011b6e6801760302090703500900091c0915"
    "03040a"
    "656234383730303120b208030914080209161b6e650572742d683209030302090009"
    "1e091503060a"
    "383437383539333120b2080309140801093508021b6e650673657269616c0c094000"
    "0000000000000009361b6e6602743909000922091503080a"
)
LAMP = {"name": "lamp", "platform": "upnp", "runtime_id": "rt-h1", "role": "display"}
SPOOLED = {
    "kind": "message",
    "stream": "rt-h1:p1",
    "seq": 1,
    "dst": "rt-h2/display/data-in",
    "payload": {"v": 1},
}


class TestBlobScopedBodies:
    """Blob-scoped bodies next to blobs written before them, and read the
    wrong way."""

    def test_a_blob_of_self_contained_bodies_replays_unchanged(self):
        empty = {"bindings": {}, "paths": {}, "spool": {}, "stream_seqs": {}, "breakers": {}}
        registered = {t: dict(LAMP, translator_id=t) for t in ("t0", "t1", "t2")}
        records, clean, junk = replay_blob(SELF_CONTAINED_BLOB)
        assert (clean, junk) == (len(SELF_CONTAINED_BLOB), 0)
        lines = SELF_CONTAINED_BLOB.split(b"\n")[:-1]
        assert [line[9] for line in lines] == [JOURNAL_MAGIC_Z] + [JOURNAL_MAGIC] * 3
        assert records == [
            {"data": dict(empty, registered=registered), "kind": "checkpoint", "lsn": 1},
            {
                "data": {"peer": "rt-h2", "envelope": SPOOLED, "size": 40},
                "kind": "spool",
                "lsn": 2,
            },
            {"data": {"peer": "rt-h2", "count": 1}, "kind": "spool-ack", "lsn": 3},
            {
                "data": {"profile": {"serial": 2**70, "translator_id": "t9"}},
                "kind": "register",
                "lsn": 4,
            },
        ]

    def test_a_journal_opened_on_it_appends_blob_scoped_records(self):
        media = DurableMedia()
        media.blob("rt-h1").extend(SELF_CONTAINED_BLOB)
        journal = Journal(stub_runtime(), media)
        journal.append_spool("rt-h2", dict(SPOOLED, seq=2), 40)
        journal.append("register", {"profile": dict(LAMP, translator_id="t3")})
        journal.append("register", {"profile": dict(LAMP, translator_id="t4")})
        blob = bytes(media.blob("rt-h1"))
        assert blob.startswith(SELF_CONTAINED_BLOB)
        tail = blob[len(SELF_CONTAINED_BLOB):].split(b"\n")[:-1]
        assert [line[9] for line in tail] == [JOURNAL_MAGIC_BLOB] * 3
        assert len(tail[2]) < len(tail[1])  # t4 reuses the strings t3 defined
        records, _clean, junk = replay_blob(blob)
        assert junk == 0
        assert records[:4] == records_of(SELF_CONTAINED_BLOB)
        assert [r["data"] for r in records[4:]] == [
            {"peer": "rt-h2", "envelope": dict(SPOOLED, seq=2), "size": 40},
            {"profile": dict(LAMP, translator_id="t3")},
            {"profile": dict(LAMP, translator_id="t4")},
        ]
        assert set(Journal(stub_runtime(), media).replay().registered) == {
            "t0", "t1", "t2", "t3", "t4", "t9",
        }

    def test_a_blob_scoped_body_needs_its_blobs_table(self):
        table = WireEncoder()
        first, second, third = (
            encode_journal_body(
                {"data": {"name": name, "id": f"t{lsn}"}, "kind": "register", "lsn": lsn},
                table=table,
            )
            for lsn, name in ((1, "lamp"), (2, "lamp"), (3, "desk"))
        )
        for body in (first, second, third):
            with pytest.raises(CodecError, match="without its blob's table"):
                decode_journal_body(body)
        symbols = BlobSymbols()
        with pytest.raises(CodecError, match="undefined symbol"):
            decode_journal_body(second, table=symbols)
        with pytest.raises(CodecError, match="out of order"):
            decode_journal_body(third, table=symbols)
        with pytest.raises(CodecError, match="truncated"):
            decode_journal_body(first[:-1], table=symbols)
        assert symbols == {}  # each failed decode defined nothing
        for lsn, body in enumerate((first, second, third), start=1):
            name = "desk" if lsn == 3 else "lamp"
            assert decode_journal_body(body, table=symbols)["data"] == {
                "name": name, "id": f"t{lsn}",
            }
        assert sorted(symbols.values()) == ["desk", "lamp", "t1", "t2", "t3"]

    def test_replay_stops_at_a_reference_no_earlier_record_defined(self):
        journal = Journal(stub_runtime(), DurableMedia())
        journal.append("register", {"profile": {"translator_id": "t1", "name": "lamp"}})
        # A writer whose table ran ahead of the blob's names "ghost" by an
        # id no record in the blob defined; its record's CRC is valid.
        ahead = WireEncoder()
        encode_journal_body({"data": ["t1", "lamp", "ghost"]}, table=ahead)
        body = encode_journal_body(
            {"data": {"profile": {"translator_id": "ghost"}}, "kind": "register", "lsn": 2},
            table=ahead,
        )
        rogue = b"%08x " % zlib.crc32(body) + body + b"\n"
        good = bytes(journal.blob)
        blob = good + rogue + encode_record(3, "register", {"profile": {"translator_id": "t3"}})
        symbols = BlobSymbols()
        records, clean, junk = replay_blob(blob, symbols)
        assert [r["lsn"] for r in records] == [1]
        assert (clean, junk) == (len(good), len(blob) - len(good))
        assert sorted(symbols.values()) == ["lamp", "t1"]
        # A record that decodes but breaks the LSN chain defines nothing.
        gap = encode_record(
            5, "register", {"profile": {"translator_id": "t2", "name": "desk"}},
            table=symbols.encoder(),
        )
        symbols = BlobSymbols()
        assert replay_blob(good + gap, symbols)[1:] == (len(good), len(gap))
        assert sorted(symbols.values()) == ["lamp", "t1"]

