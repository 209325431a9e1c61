"""Crash-consistent cold restart and exactly-once delivery.

The write-ahead journal must make ``crash(lose_state=True)`` +
``recover()`` indistinguishable (directory contents, standing queries,
bound paths) from never having crashed; a corrupted journal tail must
degrade to the last checksum-consistent prefix instead of raising; and
post-recovery respools must be suppressed by the receiver's dedup window
rather than delivered twice.
"""

import json
import random
import re

from repro.chaos import FaultPlan
from repro.core.health import HALF_OPEN, OPEN
from repro.core.journal import durable_media, replay_blob
from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.chaos.flags import RUNTIME_FLAGS

SEEDS = [7, 23, 101]

ROLES = ["display", "storage", "printer", "sensor"]
MIMES = ["text/plain", "image/jpeg", "audio/wav"]


def normalize(text):
    """Mask the process-global translator-id counter (``t42-feed`` ->
    ``t*-feed``) so two populations built in the same process compare
    equal; everything else must match byte for byte."""
    return re.sub(r"\bt\d+-", "t*-", text)


def directory_bytes(runtime):
    """Canonical byte form of a runtime's *local* directory contents, in
    registration order."""
    local = [
        entry.profile.to_dict()
        for entry in sorted(
            (e for e in runtime.directory._entries.values() if e.local),
            key=lambda e: e.seq,
        )
    ]
    return normalize(json.dumps(local, sort_keys=True)).encode("utf-8")


def binding_shape(binding):
    return (
        json.dumps(binding.query.to_dict(), sort_keys=True),
        binding.failover,
        [normalize(t) for t in binding.bound_translators],
    )


def path_shape(runtime):
    return sorted(
        (normalize(str(p.src_ref)), normalize(str(p.dst_ref)))
        for p in runtime.transport._paths_by_id.values()
    )


class TestColdRestart:
    def build(self, **kwargs):
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", **{**RUNTIME_FLAGS, **kwargs})
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        loop_in = source.add_digital_input("loop-in", "text/plain", lambda m: None)
        r1.register_translator(source)
        bed.settle(1.0)
        return bed, r1, r2, source, out, loop_in, sink, received

    def test_recover_restores_directory_bindings_and_paths(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        binding = r1.connect_query(out, Query(role="display"))
        path = r1.connect(out, loop_in)  # local application path
        original_path_id = path.path_id
        bed.settle(1.0)
        assert binding.bound_translators == [sink.translator_id]

        r1.crash(lose_state=True)
        # The cold crash really lost the in-memory state.
        assert r1.directory.profiles() == []
        assert not r1._bindings
        assert not r1.transport._paths_by_id

        r1.recover()
        bed.settle(10.0)

        # Local directory entries back in registration order, remote
        # entries re-learned through gossip.
        assert {p.translator_id for p in r1.lookup(Query())} == {
            source.translator_id,
            sink.translator_id,
        }
        # The standing query re-bound under its journaled identity.
        assert len(r1._bindings) == 1
        recovered = r1._bindings[0]
        assert recovered.binding_id == binding.binding_id
        assert recovered.bound_translators == [sink.translator_id]
        # The application path came back under its original id.
        assert original_path_id in r1.transport._paths_by_id
        # And traffic flows end to end again.
        out.send(UMessage("text/plain", "after-recovery", 100))
        bed.settle(2.0)
        assert any(m.payload == "after-recovery" for m in received)

    def test_closed_state_is_not_resurrected(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        binding = r1.connect_query(out, Query(role="display"))
        path = r1.connect(out, loop_in)
        bed.settle(1.0)
        binding.close()
        path.close()
        r1.crash(lose_state=True)
        r1.recover()
        bed.settle(5.0)
        assert r1._bindings == []
        assert path.path_id not in r1.transport._paths_by_id

    def test_unregistered_translator_stays_gone(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        extra = Translator("ephemeral", role="storage")
        extra.add_digital_input("in", "text/plain", lambda m: None)
        r1.register_translator(extra)
        r1.unregister_translator(extra)
        r1.crash(lose_state=True)
        r1.recover()
        bed.settle(5.0)
        assert all(
            p.translator_id != extra.translator_id
            for p in r1.directory.profiles()
        )

    def test_recover_after_warm_crash_falls_back_to_restart(self):
        """A warm crash keeps the in-memory directory, bindings and
        outboxes alive; recover() must not replay the journal on top of
        them (duplicate DynamicBindings, double-spooled envelopes)."""
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        binding = r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        r1.crash()  # warm: lose_state defaults to False
        r1.recover()
        bed.settle(10.0)
        assert r1._bindings == [binding]  # not duplicated by a replay
        assert binding.bound_translators == [sink.translator_id]
        out.send(UMessage("text/plain", "after-warm-recover", 100))
        bed.settle(2.0)
        assert any(m.payload == "after-warm-recover" for m in received)

    def test_recovery_seals_the_journal_with_a_checkpoint(self):
        from repro.core.journal import replay_blob

        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        r1.crash(lose_state=True)
        r1.recover()
        records = replay_blob(r1.journal.blob)[0]
        assert records and records[0]["kind"] == "checkpoint"

    def test_journal_off_cold_crash_degrades_to_warm_restart(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build(
            journal_enabled=False
        )
        binding = r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        assert durable_media(bed.network).size(r1.runtime_id) == 0
        r1.crash(lose_state=True)
        # Without a journal there is nothing on disk: today's in-memory
        # semantics apply, so local state survives for the warm path...
        assert any(
            p.translator_id == source.translator_id
            for p in r1.directory.profiles()
        )
        assert r1._bindings == [binding]
        r1.recover()  # degrades to restart()
        bed.settle(10.0)
        # ...and the federation is re-learned from gossip exactly as today.
        assert {p.translator_id for p in r1.lookup(Query())} == {
            source.translator_id,
            sink.translator_id,
        }
        assert binding.bound_translators == [sink.translator_id]

    def test_torn_tail_recovers_to_consistent_prefix_without_raising(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        plan = FaultPlan()
        crash = plan.runtime_crash(r1, at=1.0, lose_state=True)
        plan.journal_corruption(r1, at=1.5, mode="truncate", nbytes=9)
        bed.add_chaos(plan)
        bed.settle(2.0)
        r1.recover()  # must not raise
        assert any(
            record.category == "journal.truncated" for record in bed.trace
        )
        bed.settle(10.0)
        # The registration prefix survived; the binding record was in the
        # torn tail region or survived -- either way the runtime is sane.
        r1.directory.check_index_consistency()
        assert any(
            p.translator_id == source.translator_id
            for p in r1.directory.profiles()
        )
        assert crash.injected_at is not None

    def test_flipped_tail_byte_recovers_without_raising(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        r1.crash(lose_state=True)
        durable_media(bed.network).flip_tail_byte(r1.runtime_id, offset_from_end=4)
        r1.recover()  # must not raise
        bed.settle(10.0)
        r1.directory.check_index_consistency()
        assert any(
            p.translator_id == source.translator_id
            for p in r1.directory.profiles()
        )

    def test_breaker_restored_half_open_not_closed(self):
        bed, r1, r2, source, out, loop_in, sink, received = self.build()
        path = r1.connect(out, sink.profile.port_ref("data-in"))
        bed.settle(1.0)
        r2.crash()  # peer stays dead: r1's retry budget will exhaust
        for index in range(3):
            out.send(UMessage("text/plain", f"doomed-{index}", 100))
        bed.settle(120.0)
        breaker = r1.transport._breakers.get(r2.runtime_id)
        assert breaker is not None and not breaker.is_closed

        r1.crash(lose_state=True)
        assert not r1.transport._breakers  # in-memory state died
        r1.recover()
        restored = r1.transport._breakers.get(r2.runtime_id)
        assert restored is not None
        assert restored.state == OPEN
        # Half-open semantics: the next admission test is a single probe,
        # not a closed breaker's free pass.
        assert restored.allow() is True
        assert restored.state == HALF_OPEN
        assert restored.allow() is False
        assert path.path_id  # silence unused warning


class TestSeededEquivalence:
    """After crash(lose_state=True) + recover(), directory contents,
    standing-query subscriptions and bound paths are byte-equal to a
    never-crashed control run, across several seeds."""

    def build_population(self, seed):
        rng = random.Random(seed)
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", **RUNTIME_FLAGS)
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        for index in range(rng.randrange(4, 9)):
            translator = Translator(
                f"svc-{seed}-{index}", role=rng.choice(ROLES)
            )
            translator.add_digital_input(
                "in", rng.choice(MIMES), lambda m: None
            )
            r1.register_translator(translator)
        peer_sink = Translator(f"peer-sink-{seed}", role="display")
        peer_sink.add_digital_input("data-in", "text/plain", lambda m: None)
        r2.register_translator(peer_sink)
        source = Translator(f"src-{seed}", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(1.0)
        binding = r1.connect_query(out, Query(role="display"))
        bed.settle(1.0)
        return bed, r1, binding

    def test_recovered_state_byte_equal_to_control(self):
        for seed in SEEDS:
            control_bed, control_r1, control_binding = self.build_population(seed)
            subject_bed, subject_r1, _original = self.build_population(seed)

            control_bed.settle(20.0)

            subject_r1.crash(lose_state=True)
            subject_bed.settle(2.0)
            subject_r1.recover()
            subject_bed.settle(18.0)

            assert directory_bytes(subject_r1) == directory_bytes(
                control_r1
            ), seed
            assert len(subject_r1._bindings) == 1, seed
            assert binding_shape(subject_r1._bindings[0]) == binding_shape(
                control_binding
            ), seed
            assert path_shape(subject_r1) == path_shape(control_r1), seed
            # Lookup order (registration order) also survives recovery.
            assert [
                normalize(p.translator_id) for p in subject_r1.lookup(Query())
            ] == [
                normalize(p.translator_id) for p in control_r1.lookup(Query())
            ], seed


class TestExactlyOnce:
    def build_pipeline(self):
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", **RUNTIME_FLAGS)
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(1.0)
        r1.connect(out, sink.profile.port_ref("data-in"))
        return bed, r1, r2, out, received

    def test_post_recovery_respool_is_suppressed_not_redelivered(self):
        bed, r1, r2, out, received = self.build_pipeline()

        def sender():
            for index in range(120):
                out.send(UMessage("text/plain", f"m{index}", 200))
                yield bed.kernel.timeout(0.05)

        bed.kernel.process(sender(), name="burst-sender")
        plan = FaultPlan()
        # Stretch the delivery/ack window so the cold crash lands between
        # the peer's TCP delivery and the sender's drained() ack...
        plan.link_degrade(bed.lan, at=1.5, duration=6.0, latency_s=0.4)
        # ...then cold-crash the sender mid-burst and recover it.
        plan.runtime_crash(r1, at=4.0, restart_after=4.0, lose_state=True)
        bed.add_chaos(plan)
        bed.settle(40.0)

        # The journal respooled unacked envelopes on recovery...
        assert r1.transport.respooled > 0
        # ...and the ones the receiver already had were suppressed by the
        # dedup window, not delivered twice.
        assert r2.transport.duplicates_suppressed > 0
        payloads = [m.payload for m in received]
        assert len(payloads) == len(set(payloads)), "duplicate delivery"
        assert any(
            record.category == "transport.duplicate" for record in bed.trace
        )

    def test_group_commit_crash_does_not_suppress_new_messages(self):
        """Sequence reservations: with a generous fsync_interval the spool
        records for delivered envelopes can die in the group-commit window,
        but the durable seq-reserve record keeps the recovered sender's
        counters past everything the receiver ever saw -- new messages must
        never be mistaken for duplicates of reused sequence numbers."""
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", fsync_interval=5.0, **RUNTIME_FLAGS)
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(1.0)
        r1.connect(out, sink.profile.port_ref("data-in"))
        r1.journal.sync()  # registration + path-open durable; spool isn't
        for index in range(10):
            out.send(UMessage("text/plain", f"pre-{index}", 100))
        bed.settle(2.0)  # delivered, but spool/ack records still pending
        delivered_before = len(received)
        assert delivered_before > 0

        r1.crash(lose_state=True)  # kills the un-fsynced window
        r1.recover()
        bed.settle(15.0)  # re-learn the peer via gossip
        out.send(UMessage("text/plain", "after-recovery", 100))
        bed.settle(3.0)

        payloads = [m.payload for m in received]
        assert "after-recovery" in payloads, (
            "recovered sender reused a delivered sequence number; the "
            "receiver's high-water mark swallowed a new message"
        )
        assert len(payloads) == len(set(payloads))

    def test_opaque_spool_markers_do_not_misalign_a_second_recovery(self):
        """The respool skips opaque markers (payload was never journal-
        representable); the recovery checkpoint must therefore drop them
        from the durable spool view too, or the post-recovery acks would
        pop the wrong entries and a second recovery would respool
        already-acked envelopes."""
        bed, r1, r2, out, received = self.build_pipeline()
        r2.crash()  # peer down: everything spools
        out.send(UMessage("text/plain", "m1", 100))
        out.send(UMessage("text/plain", object(), 100))  # -> opaque marker
        out.send(UMessage("text/plain", "m3", 100))
        bed.settle(0.5)  # drained into the per-peer spool, retrying

        r1.crash(lose_state=True)
        r2.restart()
        r1.recover()
        assert r1.transport.respooled == 2  # the marker was skipped
        bed.settle(30.0)  # re-learn the peer, deliver, ack

        r1.crash(lose_state=True)
        r1.recover()
        bed.settle(5.0)
        # Both real envelopes were acked after the first recovery; nothing
        # is left to respool -- a misaligned durable FIFO would have
        # resurrected m3 here.
        assert r1.transport.respooled == 2
        assert sorted(
            m.payload for m in received if isinstance(m.payload, str)
        ) == ["m1", "m3"]

    def test_journal_off_run_has_no_respool(self):
        """Same fault schedule with the journal disabled reproduces the
        pre-journal behavior: a warm-style relearn with nothing respooled
        from stable storage."""
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", journal_enabled=False, **RUNTIME_FLAGS)
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(1.0)
        r1.connect(out, sink.profile.port_ref("data-in"))

        def sender():
            for index in range(120):
                out.send(UMessage("text/plain", f"m{index}", 200))
                yield bed.kernel.timeout(0.05)

        bed.kernel.process(sender(), name="burst-sender")
        plan = FaultPlan()
        plan.link_degrade(bed.lan, at=1.5, duration=6.0, latency_s=0.4)
        plan.runtime_crash(r1, at=4.0, restart_after=4.0, lose_state=True)
        bed.add_chaos(plan)
        bed.settle(40.0)

        assert r1.transport.respooled == 0
        payloads = [m.payload for m in received]
        assert len(payloads) == len(set(payloads))

    def test_concurrent_runtimes_never_confuse_dedup_window(self):
        """Regression for the process-global UMessage.sequence: two
        runtimes producing concurrently interleave that test-only counter,
        but dedup keys on per-(sender, path) envelope sequences, so no
        cross-runtime message is ever mistaken for a duplicate."""
        bed = build_testbed(hosts=["h1", "h2", "h3"])
        r1 = bed.add_runtime("h1", **RUNTIME_FLAGS)
        r2 = bed.add_runtime("h2", **RUNTIME_FLAGS)
        r3 = bed.add_runtime("h3", **RUNTIME_FLAGS)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        outs = []
        for index, runtime in enumerate((r1, r3)):
            source = Translator(f"feed-{index}", role="sensor")
            outs.append(source.add_digital_output("data-out", "text/plain"))
            runtime.register_translator(source)
        bed.settle(1.0)
        dst = sink.profile.port_ref("data-in")
        r1.connect(outs[0], dst)
        r3.connect(outs[1], dst)

        def sender(out, tag):
            for index in range(50):
                # Interleaved sends: the global UMessage.sequence counter
                # alternates between the two producing runtimes.
                out.send(UMessage("text/plain", f"{tag}-{index}", 100))
                yield bed.kernel.timeout(0.05)

        bed.kernel.process(sender(outs[0], "a"), name="sender-a")
        bed.kernel.process(sender(outs[1], "b"), name="sender-b")
        bed.settle(10.0)

        assert r2.transport.duplicates_suppressed == 0
        payloads = [m.payload for m in received]
        assert len(payloads) == 100
        assert len(set(payloads)) == 100


class TestBatchedDurability:
    """Batching on: batch frames and counted ``spool-ack`` records must
    preserve the exactly-once and durable-FIFO guarantees of one-envelope
    frames across cold crashes."""

    def build_pipeline(self, **kwargs):
        bed = build_testbed(hosts=["h1", "h2"])
        r1 = bed.add_runtime("h1", batching_enabled=True, **kwargs)
        r2 = bed.add_runtime("h2", batching_enabled=True)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        r2.register_translator(sink)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        r1.register_translator(source)
        bed.settle(1.0)
        r1.connect(out, sink.profile.port_ref("data-in"))
        return bed, r1, r2, out, received

    def test_cold_crash_mid_batch_is_exactly_once(self):
        """The peek-based batched sender pops outbox entries only at ack
        time, so a cold crash with batches in flight respools a suffix the
        receiver may already hold -- dedup must swallow it, not deliver it
        twice, and batch frames must actually have been in play."""
        bed, r1, r2, out, received = self.build_pipeline()

        def sender():
            for index in range(120):
                out.send(UMessage("text/plain", f"m{index}", 200))
                yield bed.kernel.timeout(0.05)

        bed.kernel.process(sender(), name="burst-sender")
        plan = FaultPlan()
        plan.link_degrade(bed.lan, at=1.5, duration=6.0, latency_s=0.4)
        plan.runtime_crash(r1, at=4.0, restart_after=4.0, lose_state=True)
        bed.add_chaos(plan)
        bed.settle(40.0)

        assert r1.transport.batches_sent > 0
        assert r1.transport.respooled > 0
        assert r2.transport.duplicates_suppressed > 0
        payloads = [m.payload for m in received]
        assert len(payloads) == len(set(payloads)), "duplicate delivery"

    def test_counted_acks_keep_durable_fifo_aligned(self):
        """After a batch is acked with one ``spool-ack {count}`` record, a
        cold crash + recovery must find an empty durable spool -- a
        miscounted replay would resurrect acked envelopes here."""
        bed, r1, r2, out, received = self.build_pipeline()
        for index in range(20):
            out.send(UMessage("text/plain", f"m{index}", 100))
        bed.settle(10.0)  # delivered and acked in counted batches
        assert len(received) == 20
        acks = [
            r["data"]
            for r in replay_blob(r1.journal.blob)[0]
            if r["kind"] == "spool-ack"
        ]
        assert acks and any(a.get("count", 1) > 1 for a in acks)

        r1.crash(lose_state=True)
        r1.recover()
        assert r1.transport.respooled == 0
        bed.settle(10.0)
        payloads = [m.payload for m in received]
        assert len(payloads) == len(set(payloads)) == 20

    def test_opaque_marker_inside_a_batch_survives_two_recoveries(self):
        """An unserializable payload inside a batched spool run becomes an
        opaque marker in its ``spool`` record; the respool skips it and
        the recovery checkpoint prunes it, so counted acks stay aligned
        through a second cold crash."""
        bed, r1, r2, out, received = self.build_pipeline()
        r2.crash()  # peer down: everything spools as one batched run
        out.send(UMessage("text/plain", "m1", 100))
        out.send(UMessage("text/plain", object(), 100))  # -> opaque marker
        out.send(UMessage("text/plain", "m3", 100))
        bed.settle(0.5)

        r1.crash(lose_state=True)
        r2.restart()
        r1.recover()
        assert r1.transport.respooled == 2  # the marker was skipped
        bed.settle(30.0)

        r1.crash(lose_state=True)
        r1.recover()
        bed.settle(5.0)
        assert r1.transport.respooled == 2  # nothing left to respool
        assert sorted(
            m.payload for m in received if isinstance(m.payload, str)
        ) == ["m1", "m3"]

    def test_group_commit_records_replay_whole(self):
        """Under group commit a same-peer spool run waits in the pending
        buffer; once flushed it must replay every entry."""
        bed, r1, r2, out, received = self.build_pipeline(fsync_interval=1.0)
        r2.crash()  # spool without acks interleaving
        for index in range(6):
            out.send(UMessage("text/plain", f"m{index}", 100))
        bed.settle(0.3)
        r1.journal.sync()  # flush the pending records, then lose memory
        r1.crash(lose_state=True)
        r1.recover()
        assert r1.transport.respooled == 6
        r2.restart()
        bed.settle(30.0)
        assert [m.payload for m in received] == [f"m{i}" for i in range(6)]

    def test_both_modes_agree_on_recovered_state(self):
        """The same spool-crash-recover scenario leaves identical durable
        outcomes (respool count, delivered payloads) whether the sender
        ships one envelope per frame or counted batches."""
        outcomes = {}
        for mode in (False, True):
            bed = build_testbed(hosts=["h1", "h2"])
            r1 = bed.add_runtime("h1", batching_enabled=mode)
            r2 = bed.add_runtime("h2", batching_enabled=mode)
            received = []
            sink = Translator("display-0", role="display")
            sink.add_digital_input("data-in", "text/plain", received.append)
            r2.register_translator(sink)
            source = Translator("feed", role="sensor")
            out = source.add_digital_output("data-out", "text/plain")
            r1.register_translator(source)
            bed.settle(1.0)
            r1.connect(out, sink.profile.port_ref("data-in"))
            r2.crash()
            for index in range(8):
                out.send(UMessage("text/plain", f"m{index}", 100))
            bed.settle(0.5)
            r1.crash(lose_state=True)
            r2.restart()
            r1.recover()
            respooled = r1.transport.respooled
            bed.settle(30.0)
            outcomes[mode] = (respooled, [m.payload for m in received])
        assert outcomes[False] == outcomes[True]
