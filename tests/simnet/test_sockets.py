"""Unit tests for datagram and stream endpoints."""

import pytest

from repro.simnet.sockets import (
    ConnectionClosed,
    ConnectionRefused,
    DatagramSocket,
    MulticastGroup,
    SocketError,
    StreamListener,
    StreamSocket,
)


class TestDatagramSocket:
    def test_send_and_receive(self, kernel, lan, net_costs):
        _, a, b = lan
        sender = DatagramSocket(a, net_costs, port=1000)
        receiver = DatagramSocket(b, net_costs, port=2000)
        sender.sendto("hello", 64, b.address, 2000)

        def proc(k):
            datagram = yield receiver.recv()
            return datagram

        datagram = kernel.run_process(proc(kernel))
        assert datagram.payload == "hello"
        assert datagram.size == 64
        assert datagram.src == a.address
        assert datagram.sport == 1000

    def test_recv_before_send_blocks_until_arrival(self, kernel, lan, net_costs):
        _, a, b = lan
        receiver = DatagramSocket(b, net_costs, port=2000)

        def proc(k):
            datagram = yield receiver.recv()
            return k.now

        sender = DatagramSocket(a, net_costs, port=1000)
        kernel.call_later(1.0, lambda: sender.sendto("x", 10, b.address, 2000))
        arrival_time = kernel.run_process(proc(kernel))
        assert arrival_time > 1.0

    def test_queueing_preserves_order(self, kernel, lan, net_costs):
        _, a, b = lan
        sender = DatagramSocket(a, net_costs)
        receiver = DatagramSocket(b, net_costs, port=7)
        for i in range(5):
            sender.sendto(i, 10, b.address, 7)

        def proc(k):
            out = []
            for _ in range(5):
                datagram = yield receiver.recv()
                out.append(datagram.payload)
            return out

        assert kernel.run_process(proc(kernel)) == [0, 1, 2, 3, 4]

    def test_double_bind_rejected(self, lan, net_costs):
        _, a, _ = lan
        DatagramSocket(a, net_costs, port=5)
        with pytest.raises(SocketError):
            DatagramSocket(a, net_costs, port=5)

    def test_ephemeral_ports_are_distinct(self, lan, net_costs):
        _, a, _ = lan
        first = DatagramSocket(a, net_costs)
        second = DatagramSocket(a, net_costs)
        assert first.port != second.port

    def test_send_after_close_rejected(self, lan, net_costs):
        _, a, b = lan
        socket = DatagramSocket(a, net_costs)
        socket.close()
        with pytest.raises(SocketError):
            socket.sendto("x", 1, b.address, 1)

    def test_close_fails_pending_recv(self, kernel, lan, net_costs):
        _, a, _ = lan
        socket = DatagramSocket(a, net_costs)

        def proc(k):
            try:
                yield socket.recv()
            except ConnectionClosed:
                return "closed"

        kernel.call_later(0.5, socket.close)
        assert kernel.run_process(proc(kernel)) == "closed"

    def test_datagram_to_unbound_port_is_dropped(self, kernel, lan, network, net_costs):
        _, a, b = lan
        sender = DatagramSocket(a, net_costs)
        sender.sendto("x", 10, b.address, 9999)
        kernel.run()
        assert network.trace.count("net.unclaimed") == 1


class TestMulticast:
    def test_group_delivery_to_members_only(self, kernel, network, net_costs):
        hub = network.add_hub("h", 1e7, 1e-4)
        nodes = [network.add_node(f"n{i}") for i in range(3)]
        for node in nodes:
            node.attach(hub)
        group = MulticastGroup("239.255.255.250", 1900)
        member_sockets = [group.open(node, net_costs) for node in nodes[1:]]
        sender = DatagramSocket(nodes[0], net_costs)
        sender.send_multicast("NOTIFY", 120, group.group, group.port)
        kernel.run()
        assert all(sock.pending() == 1 for sock in member_sockets)

    def test_sender_in_group_does_not_loop_back(self, kernel, network, net_costs):
        hub = network.add_hub("h", 1e7, 1e-4)
        a = network.add_node("a")
        b = network.add_node("b")
        a.attach(hub)
        b.attach(hub)
        group = MulticastGroup("g", 1900)
        socket_a = group.open(a, net_costs)
        socket_b = group.open(b, net_costs)
        group.send(socket_a, "msg", 50)
        kernel.run()
        assert socket_a.pending() == 0
        assert socket_b.pending() == 1

    def test_leave_stops_delivery(self, kernel, network, net_costs):
        hub = network.add_hub("h", 1e7, 1e-4)
        a = network.add_node("a")
        b = network.add_node("b")
        a.attach(hub)
        b.attach(hub)
        group = MulticastGroup("g", 1900)
        socket_b = group.open(b, net_costs)
        socket_b.leave("g", 1900)
        sender = DatagramSocket(a, net_costs)
        sender.send_multicast("msg", 50, "g", 1900)
        kernel.run()
        assert socket_b.pending() == 0


def echo_server(node, costs, port, count=None):
    """Server process: accept one stream and echo messages back."""

    def run(kernel):
        listener = StreamListener(node, costs, port)
        stream = yield listener.accept()
        echoed = 0
        while count is None or echoed < count:
            try:
                payload, size = yield stream.recv()
            except ConnectionClosed:
                break
            stream.send(payload, size)
            echoed += 1
        return echoed

    return run


class TestStreamSocket:
    def test_connect_and_echo(self, kernel, lan, net_costs):
        _, a, b = lan
        kernel.process(echo_server(b, net_costs, 80)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            stream.send({"n": 1}, 200)
            payload, size = yield stream.recv()
            stream.close()
            return payload, size

        payload, size = kernel.run_process(client(kernel))
        assert payload == {"n": 1}
        assert size == 200

    def test_connect_refused_without_listener(self, kernel, lan, net_costs):
        _, a, b = lan

        def client(k):
            try:
                yield StreamSocket.connect(a, net_costs, b.address, 81)
            except ConnectionRefused:
                return "refused"

        assert kernel.run_process(client(kernel)) == "refused"

    def test_messages_preserved_and_ordered(self, kernel, lan, net_costs):
        _, a, b = lan
        received = []

        def server(k):
            listener = StreamListener(b, net_costs, 80)
            stream = yield listener.accept()
            for _ in range(10):
                payload, _size = yield stream.recv()
                received.append(payload)

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            for i in range(10):
                stream.send(i, 500)
            yield stream.drained()

        kernel.process(server(kernel))
        kernel.run_process(client(kernel))
        kernel.run()
        assert received == list(range(10))

    def test_large_message_segmented_at_mtu(self, kernel, lan, net_costs):
        hub, a, b = lan
        kernel.process(echo_server(b, net_costs, 80, count=1)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            stream.send(b"big", 100_000)
            payload, size = yield stream.recv()
            return size

        assert kernel.run_process(client(kernel)) == 100_000
        mss = net_costs.mtu_bytes - net_costs.tcp_header_bytes
        expected_segments = -(-100_000 // mss)
        data_frames = [
            r
            for r in hub.network.trace.records("net.tx")
            if r.details.get("protocol") == "tcp"
            and r.details["wire_bytes"]
            > net_costs.tcp_header_bytes + net_costs.ethernet_frame_overhead_bytes
        ]
        # one way plus the echo back
        assert len(data_frames) == 2 * expected_segments

    def test_send_before_connected_rejected(self, lan, net_costs):
        _, a, b = lan
        stream = StreamSocket(a, net_costs, 1234, b.address, 80)
        with pytest.raises(SocketError):
            stream.send("x", 10)

    def test_send_after_close_rejected(self, kernel, lan, net_costs):
        _, a, b = lan
        kernel.process(echo_server(b, net_costs, 80)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            stream.close()
            return stream

        stream = kernel.run_process(client(kernel))
        with pytest.raises(SocketError):
            stream.send("x", 10)

    def test_peer_close_fails_pending_recv(self, kernel, lan, net_costs):
        _, a, b = lan

        def server(k):
            listener = StreamListener(b, net_costs, 80)
            stream = yield listener.accept()
            yield k.timeout(1.0)
            stream.close()

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            try:
                yield stream.recv()
            except ConnectionClosed:
                return "peer closed"

        kernel.process(server(kernel))
        assert kernel.run_process(client(kernel)) == "peer closed"

    def test_reliable_over_lossy_medium(self, kernel, network, net_costs):
        hub = network.add_hub("lossy", 1e7, 1e-4, 38, loss_rate=0.15, seed=99)
        a = network.add_node("a")
        b = network.add_node("b")
        a.attach(hub)
        b.attach(hub)
        received = []

        def server(k):
            listener = StreamListener(b, net_costs, 80)
            stream = yield listener.accept()
            for _ in range(30):
                payload, _ = yield stream.recv()
                received.append(payload)

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            for i in range(30):
                stream.send(i, 1400)
            yield stream.drained()
            return stream.retransmissions

        kernel.process(server(kernel))
        retransmissions = kernel.run_process(client(kernel))
        kernel.run()
        assert received == list(range(30))
        assert retransmissions > 0  # loss actually happened and was repaired

    def test_throughput_matches_calibrated_baseline(self, kernel, lan, net_costs):
        """One-way bulk transfer approximates Figure 11's 7.9 Mbps baseline."""
        _, a, b = lan

        def server(k):
            listener = StreamListener(b, net_costs, 80)
            stream = yield listener.accept()
            while True:
                try:
                    yield stream.recv()
                except ConnectionClosed:
                    return

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            start = k.now
            for _ in range(200):
                stream.send(b"x", 1400)
            yield stream.drained()
            elapsed = k.now - start
            stream.close()
            return 200 * 1400 * 8 / elapsed

        kernel.process(server(kernel))
        throughput = kernel.run_process(client(kernel))
        assert throughput == pytest.approx(7.9e6, rel=0.05)

    def test_stream_metrics(self, kernel, lan, net_costs):
        _, a, b = lan
        kernel.process(echo_server(b, net_costs, 80, count=3)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            for i in range(3):
                stream.send(i, 100)
                yield stream.recv()
            return stream

        stream = kernel.run_process(client(kernel))
        assert stream.messages_sent == 3
        assert stream.messages_received == 3
        assert stream.bytes_sent == 300
        assert stream.bytes_received == 300

    def test_accept_backlog(self, kernel, lan, net_costs):
        """Connections arriving before accept() wait in the backlog."""
        _, a, b = lan
        listener = StreamListener(b, net_costs, 80)

        def client(k):
            yield StreamSocket.connect(a, net_costs, b.address, 80)

        def server(k):
            yield k.timeout(1.0)  # client connects while we are away
            stream = yield listener.accept()
            return stream

        kernel.process(client(kernel))
        stream = kernel.run_process(server(kernel))
        assert stream.remote == a.address

    def test_listener_close_fails_pending_accept(self, kernel, lan, net_costs):
        _, _, b = lan
        listener = StreamListener(b, net_costs, 80)

        def server(k):
            try:
                yield listener.accept()
            except ConnectionClosed:
                return "closed"

        kernel.call_later(0.5, listener.close)
        assert kernel.run_process(server(kernel)) == "closed"


class TestRetransmitTiming:
    """Seeded lossy and dead-peer streams, pinned to exact sim times.

    The retransmit timer decides when a lost segment goes out again, so a
    change to how timers are armed, cancelled or ordered shows up here as
    a shifted delivery, a different retransmission count or a different
    final clock.  The figures are exact floats from a reference run.
    """

    #: Delivery time of messages 0..23, then of ``"last"``.
    DELIVERED_AT = [
        0.0027072, 0.0048472, 0.7832383999999999, 0.7837007999999999,
        0.7848831999999999, 0.7868479999999999, 0.7873103999999999,
        0.7884927999999999, 0.7904575999999999, 0.7909199999999998,
        0.7921023999999999, 0.7940671999999999, 0.7945295999999998,
        0.7957119999999999, 0.7976767999999999, 0.7981391999999998,
        0.7993215999999999, 1.3199344000000004, 1.3203968000000004,
        1.3215792000000004, 1.5795304000000008, 1.5799928000000008,
        1.5811752000000008, 1.5831400000000009, 1.585336800000001,
    ]

    def test_lossy_stream_golden_timing(self, kernel, network, net_costs):
        hub = network.add_hub("lossy", 1e7, 1e-4, 38, loss_rate=0.2, seed=5)
        a = network.add_node("a")
        b = network.add_node("b")
        a.attach(hub)
        b.attach(hub)
        deliveries = []

        def server(k):
            stream = yield StreamListener(b, net_costs, 80).accept()
            while True:
                try:
                    payload, _ = yield stream.recv()
                except ConnectionClosed:
                    return
                deliveries.append((payload, k.now))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            for i in range(24):
                yield from stream.send_inline(i, 500 + 900 * (i % 3))
            yield from stream.drained_wait()
            drained_at = k.now
            # Close with a segment in flight: its armed retransmit timer
            # dies with the stream but still bounds the run's clock.
            yield from stream.send_inline("last", 300)
            stream.close()
            return stream, drained_at

        kernel.process(server(kernel))
        stream, drained_at = kernel.run_process(client(kernel))
        kernel.run()
        assert [payload for payload, _ in deliveries] == list(range(24)) + ["last"]
        assert [at for _, at in deliveries] == self.DELIVERED_AT
        assert stream.retransmissions == 114
        assert drained_at == 1.583514400000001
        assert kernel.now == 1.834934400000001

    def test_dead_peer_fails_after_max_retries(self, kernel, lan, net_costs):
        _, a, b = lan
        StreamListener(b, net_costs, 80)

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            b.set_up(False)
            stream.send("lost", 1000)
            try:
                yield stream.drained()
            except ConnectionClosed as exc:
                return str(exc), k.now, stream.retransmissions

        assert kernel.run_process(client(kernel)) == (
            "too many retransmissions", 5.2520448, StreamSocket.MAX_RETRIES
        )
        kernel.run()
        assert kernel.now == 5.2520448


class TestDrainedWait:
    """The reusable drain barrier (`drained_wait`) behind batched senders."""

    def test_barrier_equivalent_to_drained_event(self, kernel, lan, net_costs):
        """`yield from drained_wait()` releases at the same simulated time
        as the legacy one-shot `yield drained()` event."""
        times = {}
        for port, variant in ((80, "event"), (81, "generator")):
            kernel.process(echo_server(lan[2], net_costs, port)(kernel))

            def client(k, port=port, variant=variant):
                stream = yield StreamSocket.connect(
                    lan[1], net_costs, lan[2].address, port
                )
                start = k.now
                for index in range(10):
                    stream.send(index, 500)
                if variant == "event":
                    yield stream.drained()
                else:
                    yield from stream.drained_wait()
                elapsed = k.now - start
                stream.close()
                return elapsed

            times[variant] = kernel.run_process(client(kernel))
        assert times["generator"] == pytest.approx(times["event"])

    def test_returns_immediately_when_already_drained(self, kernel, lan, net_costs):
        _, a, b = lan
        kernel.process(echo_server(b, net_costs, 80)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            # Nothing queued: the generator finishes without yielding.
            steps = list(stream.drained_wait())
            stream.close()
            return steps

        assert kernel.run_process(client(kernel)) == []

    def test_parks_on_one_reused_event_across_waits(self, kernel, lan, net_costs):
        _, a, b = lan
        kernel.process(echo_server(b, net_costs, 80)(kernel))

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            parked = []
            for index in range(3):
                stream.send(index, 800)
                yield from stream.drained_wait()
                parked.append(stream._drained_parked)
            stream.close()
            return parked

        parked = kernel.run_process(client(kernel))
        assert parked[0] is not None
        # One event object serviced every wait cycle.
        assert parked[0] is parked[1] is parked[2]

    def test_raises_connection_closed_when_stream_dies(self, kernel, lan, net_costs):
        _, a, b = lan

        def server(k):
            listener = StreamListener(b, net_costs, 80)
            stream = yield listener.accept()
            yield k.timeout(0.05)
            stream.abort()  # hard reset while the client is draining

        def client(k):
            stream = yield StreamSocket.connect(a, net_costs, b.address, 80)
            for index in range(50):
                stream.send(index, 1400)
            try:
                yield from stream.drained_wait()
            except ConnectionClosed:
                return "failed"
            return "drained"

        kernel.process(server(kernel))
        assert kernel.run_process(client(kernel)) == "failed"
