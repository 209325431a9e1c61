"""Batched + pipelined peer senders, shared-fanout envelopes, and the
counted acks they journal.

``UMiddleRuntime(batching_enabled=True)`` switches the per-peer sender
from one-envelope-per-frame to coalesced batch frames with a pipelined
ack window.  These tests pin the observable contract: fewer frames and
fewer wire bytes for the same burst, FIFO delivery order preserved, one
``spool`` record per envelope on both planes with one counted
``spool-ack`` per frame, and the off switch reproducing the paper's
wire exactly.
"""

import pytest

from repro.core.journal import replay_blob
from repro.core.messages import UMessage
from repro.core.qos import QosPolicy
from repro.core.translator import Translator
from repro.testbed import build_testbed

BURST = 100


def record_kinds(journal):
    return [r["kind"] for r in replay_blob(journal.blob)[0]]


def build_pipeline(peers=1, **runtime_kwargs):
    """One producing runtime fanning out to ``peers`` receiving runtimes."""
    hosts = ["h0"] + [f"p{i}" for i in range(peers)]
    bed = build_testbed(hosts=hosts)
    producer = bed.add_runtime("h0", **runtime_kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    sinks = []
    for index in range(peers):
        runtime = bed.add_runtime(f"p{index}")
        received = []
        sink = Translator(f"display-{index}", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        runtime.register_translator(sink)
        sinks.append((runtime, sink, received))
    bed.settle(1.0)
    qos = QosPolicy(buffer_capacity=BURST + 16)
    for _runtime, sink, _received in sinks:
        producer.connect(out, sink.profile.port_ref("data-in"), qos=qos)
    bed.settle(0.5)
    return bed, producer, out, sinks


def burst(out, count=BURST, size=120):
    for index in range(count):
        out.send(UMessage("text/plain", f"m{index}", size))


class TestBatchedSender:
    def test_burst_coalesces_into_fewer_frames(self):
        bed, producer, out, sinks = build_pipeline(batching_enabled=True)
        burst(out)
        bed.settle(30.0)
        _runtime, _sink, received = sinks[0]
        assert [m.payload for m in received] == [f"m{i}" for i in range(BURST)]
        assert producer.transport.messages_relayed == BURST
        # Coalescing happened: far fewer frames than envelopes.
        assert 0 < producer.transport.batches_sent < BURST

    def test_batching_off_sends_no_batch_frames(self):
        bed, producer, out, sinks = build_pipeline(batching_enabled=False)
        burst(out)
        bed.settle(30.0)
        _runtime, _sink, received = sinks[0]
        assert [m.payload for m in received] == [f"m{i}" for i in range(BURST)]
        assert producer.transport.batches_sent == 0
        assert "spool" in record_kinds(producer.journal)

    def test_batched_spools_and_counted_acks(self):
        bed, producer, out, sinks = build_pipeline(batching_enabled=True)
        burst(out)
        bed.settle(30.0)
        records = replay_blob(producer.journal.blob)[0]
        spooled = [
            r["data"]["envelope"]["payload"]
            for r in records
            if r["kind"] == "spool" and r["data"]["envelope"]["kind"] == "message"
        ]
        assert spooled == [f"m{i}" for i in range(BURST)]
        acks = [r["data"] for r in records if r["kind"] == "spool-ack"]
        assert acks and all("count" in a for a in acks)
        # Counted acks cover the burst with far fewer records.
        assert sum(a["count"] for a in acks) == BURST
        assert len(acks) == producer.transport.batches_sent
        assert len(acks) < BURST

    def test_batching_uses_fewer_wire_bytes_for_the_same_burst(self):
        frames = {}
        for mode in (False, True):
            bed, producer, out, sinks = build_pipeline(batching_enabled=mode)
            before = bed.lan.bytes_transmitted
            burst(out)
            bed.settle(30.0)
            assert len(sinks[0][2]) == BURST
            frames[mode] = bed.lan.bytes_transmitted - before
        # Shared batch framing amortizes the per-envelope header bytes.
        assert frames[True] < frames[False]

    def test_oversized_envelope_ships_alone(self):
        bed, producer, out, sinks = build_pipeline(batching_enabled=True)
        cap = producer.transport.BATCH_MAX_BYTES
        out.send(UMessage("text/plain", "big", cap * 2))
        out.send(UMessage("text/plain", "small", 100))
        bed.settle(30.0)
        payloads = [m.payload for m in sinks[0][2]]
        assert payloads == ["big", "small"]

    def test_fifo_order_across_many_pipeline_windows(self):
        bed, producer, out, sinks = build_pipeline(batching_enabled=True)
        transport = producer.transport
        count = transport.BATCH_MAX_ENVELOPES * transport.PIPELINE_WINDOW * 2
        qos = QosPolicy(buffer_capacity=count + 16)
        # Rebind with a deeper translation buffer for the longer burst.
        for path in list(transport._paths_by_id.values()):
            path.close()
        producer.connect(
            out, sinks[0][1].profile.port_ref("data-in"), qos=qos
        )
        bed.settle(0.5)
        burst(out, count=count, size=40)
        bed.settle(60.0)
        received = [m.payload for m in sinks[0][2]]
        assert received == [f"m{i}" for i in range(count)]
        assert sinks[0][0].transport.duplicates_suppressed == 0

    def test_batched_fanout_reaches_every_peer_in_order(self):
        bed, producer, out, sinks = build_pipeline(
            peers=4, batching_enabled=True
        )
        burst(out, count=40)
        bed.settle(30.0)
        for _runtime, _sink, received in sinks:
            assert [m.payload for m in received] == [
                f"m{i}" for i in range(40)
            ]


class TestSharedFanout:
    def test_wire_base_is_built_once_and_cached(self):
        message = UMessage("text/plain", "x", 64)
        assert message.wire_base() is message.wire_base()

    def test_wire_base_carries_no_per_peer_fields(self):
        base = UMessage("text/plain", "x", 64).wire_base()
        for key in ("dst", "origin", "stream", "seq"):
            assert key not in base

    def test_fanout_envelopes_share_the_base_not_the_dict(self):
        """Each peer's envelope is a fresh dict (per-peer dst/seq are
        layered on top) -- mutating one must not leak into another."""
        bed, producer, out, sinks = build_pipeline(
            peers=2, batching_enabled=True
        )
        out.send(UMessage("text/plain", "fan", 64))
        bed.settle(10.0)
        payloads = [
            [m.payload for m in received] for _r, _s, received in sinks
        ]
        assert payloads == [["fan"], ["fan"]]


class TestPathSnapshots:
    def test_paths_from_tracks_register_and_forget(self):
        bed = build_testbed(hosts=["h1"])
        r1 = bed.add_runtime("h1")
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        loop_in = source.add_digital_input(
            "loop-in", "text/plain", lambda m: None
        )
        r1.register_translator(source)
        bed.settle(1.0)
        path = r1.connect(out, loop_in)
        assert r1.transport.paths_from(out) == [path]
        path.close()
        assert r1.transport.paths_from(out) == []

    def test_dispatch_survives_path_close_mid_iteration(self):
        """The per-source tuple is an immutable snapshot: a path closing
        while dispatch walks it must neither raise nor corrupt the walk --
        the closed sibling simply declines the message."""
        bed = build_testbed(hosts=["h1"])
        r1 = bed.add_runtime("h1")
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        in1 = source.add_digital_input("in-1", "text/plain", lambda m: None)
        in2 = source.add_digital_input("in-2", "text/plain", lambda m: None)
        r1.register_translator(source)
        bed.settle(1.0)
        first = r1.connect(out, in1)
        second = r1.connect(out, in2)
        original = first.enqueue
        first.enqueue = lambda message: (second.close(), original(message))[1]
        admitted = r1.transport.dispatch(out, UMessage("text/plain", "x", 64))
        # The snapshot still reached the (now-closed) second path, which
        # declined; the first admitted normally.
        assert admitted == 1
        assert r1.transport.paths_from(out) == [first]


class TestAdaptiveBatching:
    """The per-peer control law :meth:`Transport._adapt_batching` runs
    after every ack round: a saturated backlog doubles the batch caps and
    the pipeline window up to the ``ADAPT_*`` ceilings, a trickling
    backlog stretches the flush timer, and two idle rounds start decaying
    everything back to the base constants."""

    def test_grow_then_flush_grow_then_shrink(self):
        bed = build_testbed(hosts=["h0"])
        transport = bed.add_runtime("h0", batching_enabled=True).transport
        state = transport._adaptive_state("rt-p0")

        def caps():
            return state.max_envelopes, state.max_bytes, state.window

        base = (
            transport.BATCH_MAX_ENVELOPES,
            transport.BATCH_MAX_BYTES,
            transport.PIPELINE_WINDOW,
        )
        ceilings = (
            transport.ADAPT_MAX_ENVELOPES,
            transport.ADAPT_MAX_BYTES,
            transport.ADAPT_MAX_WINDOW,
        )
        assert caps() == base and state.flush_delay_s == 0.0

        # Grow: a backlog of a full window of full batches doubles the
        # caps and the window each round, each clamped at its ceiling.
        grown = [base]
        while caps() != ceilings:
            transport._adapt_batching(
                "rt-p0", state, state.max_envelopes * state.window
            )
            grown.append(caps())
            assert state.flush_delay_s == 0.0
        assert grown == [
            (32, 8192, 4), (64, 16384, 8), (128, 32768, 16), (256, 65536, 16)
        ]
        transport._adapt_batching("rt-p0", state, 10 * 256 * 16)
        assert caps() == ceilings
        assert transport.batch_adaptations == 3

        # Flush-grow: a backlog below one batch only stretches the
        # pre-send wait, from the floor up to the ceiling.
        delays = []
        for _round in range(6):
            transport._adapt_batching("rt-p0", state, 3)
            delays.append(state.flush_delay_s)
        floor, ceiling = transport.ADAPT_FLUSH_MIN_S, transport.ADAPT_FLUSH_MAX_S
        assert delays == [min(floor * 2**k, ceiling) for k in range(6)]
        assert delays[-1] == ceiling
        assert caps() == ceilings
        assert transport.batch_adaptations == 3 + 5

        # Shrink: a drained outbox zeroes the wait at once; from the
        # second idle round on, the caps and the window halve back to base.
        shrunk = []
        for _round in range(5):
            transport._adapt_batching("rt-p0", state, 0)
            assert state.flush_delay_s == 0.0
            shrunk.append(caps())
        assert shrunk == [
            ceilings, (128, 32768, 8), (64, 16384, 4), base, base
        ]
        assert transport.batch_adaptations == 3 + 5 + 3


class TestSpoolOverflowInFlight:
    """A full spool evicts ``outbox[0]`` on the next enqueue, but the
    sender pops outbox entries only when their frame is acked.  So while
    a frame is in flight the eviction takes an envelope the frame
    carries, the ack round pops one envelope more than the frame sent,
    and the one envelope lost is the oldest that no frame carried yet.
    The evicted head itself is delivered: its frame was already formed.
    """

    @pytest.mark.parametrize(
        "data_plane", [False, True], ids=["paper-plane", "data-plane"]
    )
    def test_eviction_loses_the_oldest_unframed_envelope(self, data_plane):
        bed, producer, out, sinks = build_pipeline(batching_enabled=data_plane)
        transport = producer.transport
        kernel = bed.kernel
        receiver, _sink, received = sinks[0]
        (path,) = transport.paths_from(out)
        # Open the peer stream first, so the burst's first frame leaves
        # at once.
        out.send(UMessage("text/plain", "warmup", 40))
        bed.settle(1.0)
        assert [m.payload for m in received] == ["warmup"]
        relayed_before = transport.messages_relayed

        capacity = transport.SPOOL_CAPACITY
        for index in range(capacity):
            transport._enqueue_remote(
                path.dst, UMessage("text/plain", f"m{index}", 40), path=path
            )
        stream = transport._peer_streams[receiver.runtime_id]
        frames_before = stream.messages_sent
        deadline = kernel.now + 1.0
        while stream.messages_sent == frames_before and kernel.now < deadline:
            kernel.step()
        assert stream.messages_sent == frames_before + 1
        # The first frame is on the wire and the spool is full: one more
        # envelope evicts the head.
        transport._enqueue_remote(
            path.dst, UMessage("text/plain", f"m{capacity}", 40), path=path
        )
        bed.settle(30.0)

        framed = transport.BATCH_MAX_ENVELOPES if data_plane else 1
        sent = [f"m{index}" for index in range(capacity + 1)]
        assert transport.spool_dropped == 1
        assert [m.payload for m in received[1:]] == [
            payload for payload in sent if payload != f"m{framed}"
        ]
        assert receiver.transport.duplicates_suppressed == 0
        relayed = transport.messages_relayed - relayed_before
        assert relayed + transport.spool_dropped == len(sent)
