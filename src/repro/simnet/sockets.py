"""Transport endpoints over the simulated network.

Three endpoint types, mirroring what the real testbed used:

- :class:`DatagramSocket` -- unreliable datagrams (UDP), including
  link-local multicast groups (UPnP's SSDP runs on these).
- :class:`StreamListener` / :class:`StreamSocket` -- reliable, ordered,
  connection-oriented message streams (TCP-like), used by SOAP, OBEX, RMI
  and uMiddle's own inter-node transport.

Streams are message-preserving: each ``send()`` is delivered by exactly one
``recv()`` on the peer.  Wire costs are still charged per segment: messages
are split at the MTU, every segment pays the host's per-segment processing
cost, occupies the medium for its serialization time, and is acknowledged.
Lost segments (on lossy media) are recovered with a go-back-N retransmission
scheme, so streams stay reliable while datagrams stay lossy.

All blocking operations return kernel :class:`~repro.simnet.kernel.Event`
objects, to be ``yield``-ed from simulation processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.calibration import NetworkCosts
from repro.simnet.addresses import Address
from repro.simnet.kernel import Event, Kernel
from repro.simnet.net import Frame, Interface, Medium, NetworkError, Node

__all__ = [
    "SocketError",
    "ConnectionClosed",
    "ConnectionRefused",
    "Datagram",
    "DatagramSocket",
    "MulticastGroup",
    "StreamListener",
    "StreamSocket",
]

_EPHEMERAL_BASE = 49152


class SocketError(Exception):
    """Raised for socket misuse (double bind, send after close, ...)."""


class ConnectionClosed(SocketError):
    """The peer closed the stream (raised from pending/future ``recv``)."""


class ConnectionRefused(SocketError):
    """No listener at the destination port."""


@dataclass(frozen=True)
class Datagram:
    """A received datagram with its source endpoint."""

    payload: Any
    size: int
    src: Address
    sport: int


class _NodeStack:
    """Per-node demultiplexer installed as a frame handler.

    Created lazily the first time a socket is opened on a node.
    """

    def __init__(self, node: Node, costs: NetworkCosts):
        self.node = node
        self.costs = costs
        self.kernel: Kernel = node.network.kernel
        self.udp_sockets: Dict[int, "DatagramSocket"] = {}
        self.multicast_sockets: Dict[Tuple[str, int], List["DatagramSocket"]] = {}
        self.listeners: Dict[int, "StreamListener"] = {}
        self.streams: Dict[Tuple[int, Address, int], "StreamSocket"] = {}
        self._next_ephemeral = _EPHEMERAL_BASE
        node.add_frame_handler(self._handle_frame)

    @classmethod
    def of(cls, node: Node, costs: NetworkCosts) -> "_NodeStack":
        stack = getattr(node, "_socket_stack", None)
        if stack is None:
            stack = cls(node, costs)
            node._socket_stack = stack  # type: ignore[attr-defined]
        return stack

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- demultiplexing ---------------------------------------------------

    def _handle_frame(self, frame: Frame, interface: Interface) -> bool:
        if frame.protocol == "udp":
            return self._handle_udp(frame, interface)
        if frame.protocol == "tcp":
            return self._handle_tcp(frame, interface)
        return False

    def _handle_udp(self, frame: Frame, interface: Interface) -> bool:
        # Payload size travels in metadata so that multi-homed nodes whose
        # media use different header sizes still report it exactly.
        size = frame.metadata.get(
            "payload_size", frame.wire_size - self.costs.udp_header_bytes
        )
        datagram = Datagram(
            payload=frame.payload,
            size=size,
            src=frame.src,
            sport=frame.sport,
        )
        if frame.multicast_group is not None:
            sockets = self.multicast_sockets.get((frame.multicast_group, frame.dport), [])
            for socket in sockets:
                socket._enqueue(datagram)
            return bool(sockets)
        socket = self.udp_sockets.get(frame.dport)
        if socket is None:
            return False
        socket._enqueue(datagram)
        return True

    def _handle_tcp(self, frame: Frame, interface: Interface) -> bool:
        kind = frame.metadata.get("kind")
        key = (frame.dport, frame.src, frame.sport)
        if kind == "syn":
            listener = self.listeners.get(frame.dport)
            if listener is None:
                reply = Frame(
                    src=interface.address,
                    dst=frame.src,
                    protocol="tcp",
                    sport=frame.dport,
                    dport=frame.sport,
                    payload=None,
                    wire_size=self.costs.tcp_header_bytes,
                    metadata={"kind": "rst"},
                )
                self.node.send_frame(reply)
                return True
            listener._handle_syn(frame, interface)
            return True
        stream = self.streams.get(key)
        if stream is None:
            if kind in ("rst", "ack", "fin"):
                return True  # stale traffic for a dead stream: swallow
            # Data/syn-ack for a connection we know nothing about (e.g. the
            # peer accepted a handshake we already abandoned): reset it so
            # the peer tears down its half-open stream.
            reset = Frame(
                src=interface.address,
                dst=frame.src,
                protocol="tcp",
                sport=frame.dport,
                dport=frame.sport,
                payload=None,
                wire_size=self.costs.tcp_header_bytes,
                metadata={"kind": "rst"},
            )
            self.node.send_frame(reset)
            return True
        stream._handle_frame(frame)
        return True


class DatagramSocket:
    """An unreliable datagram endpoint (UDP-like).

    >>> sock = DatagramSocket(node, costs, port=1900)
    >>> sock.sendto(payload, size=120, dst=peer, dport=1900)
    >>> datagram = yield sock.recv()          # inside a kernel process
    """

    def __init__(
        self,
        node: Node,
        costs: NetworkCosts,
        port: Optional[int] = None,
    ):
        self._stack = _NodeStack.of(node, costs)
        self.node = node
        self.costs = costs
        self.kernel = node.network.kernel
        self.port = port if port is not None else self._stack.ephemeral_port()
        if self.port in self._stack.udp_sockets:
            raise SocketError(f"UDP port {self.port} already bound on {node.name}")
        self._stack.udp_sockets[self.port] = self
        self._queue: Deque[Datagram] = deque()
        self._waiters: Deque[Event] = deque()
        self._groups: List[Tuple[str, int]] = []
        self.closed = False

    # -- sending -------------------------------------------------------------

    def sendto(self, payload: Any, size: int, dst: Address, dport: int) -> None:
        """Send one datagram (fire and forget)."""
        if self.closed:
            raise SocketError("socket is closed")
        frame = Frame(
            src=self.node.address,
            dst=dst,
            protocol="udp",
            sport=self.port,
            dport=dport,
            payload=payload,
            wire_size=size + self.costs.udp_header_bytes,
            metadata={"payload_size": size},
        )
        delay = self.costs.udp_datagram_processing_s
        self.kernel.call_later(delay, lambda: self.node.send_frame(frame))

    def send_multicast(
        self,
        payload: Any,
        size: int,
        group: str,
        dport: int,
        medium: Optional[Medium] = None,
    ) -> None:
        """Send one datagram to a link-local multicast group."""
        if self.closed:
            raise SocketError("socket is closed")
        frame = Frame(
            src=self.node.address,
            dst=None,
            protocol="udp",
            sport=self.port,
            dport=dport,
            payload=payload,
            wire_size=size + self.costs.udp_header_bytes,
            multicast_group=group,
            metadata={"payload_size": size},
        )
        delay = self.costs.udp_datagram_processing_s
        self.kernel.call_later(delay, lambda: self.node.send_frame(frame, medium=medium))

    # -- group membership ------------------------------------------------------

    def join(self, group: str, port: Optional[int] = None) -> None:
        """Join multicast ``group``; datagrams to (group, port) arrive here."""
        port = self.port if port is None else port
        self.node.join_multicast(group)
        members = self._stack.multicast_sockets.setdefault((group, port), [])
        if self not in members:
            members.append(self)
            self._groups.append((group, port))

    def leave(self, group: str, port: Optional[int] = None) -> None:
        port = self.port if port is None else port
        members = self._stack.multicast_sockets.get((group, port), [])
        if self in members:
            members.remove(self)
            self._groups.remove((group, port))

    # -- receiving ---------------------------------------------------------------

    def recv(self) -> Event:
        """Event that succeeds with the next :class:`Datagram`."""
        event = self.kernel.event(name=f"udp-recv:{self.node.name}:{self.port}")
        if self._queue:
            event.succeed(self._queue.popleft())
        elif self.closed:
            event.fail(ConnectionClosed("socket closed"))
            event.defused = True
        else:
            self._waiters.append(event)
        return event

    def cancel_recv(self, event: Event) -> None:
        """Withdraw a pending :meth:`recv` event (e.g. a scan timed out).

        Without this, abandoned waiters would silently consume future
        datagrams.  No-op if the event already fired or is unknown.
        """
        try:
            self._waiters.remove(event)
        except ValueError:
            pass

    def _enqueue(self, datagram: Datagram) -> None:
        if self.closed:
            return
        if self._waiters:
            self._waiters.popleft().succeed(datagram)
        else:
            self._queue.append(datagram)

    def pending(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._stack.udp_sockets.pop(self.port, None)
        for group, port in list(self._groups):
            self.leave(group, port)
        while self._waiters:
            waiter = self._waiters.popleft()
            waiter.defused = True
            waiter.fail(ConnectionClosed("socket closed"))


class MulticastGroup:
    """Convenience wrapper binding a well-known multicast group + port.

    Gives SSDP-style usage a compact API::

        ssdp = MulticastGroup("239.255.255.250", 1900)
        sock = ssdp.open(node, costs)          # joined and bound
        sock.send_multicast(...)  /  yield sock.recv()
    """

    def __init__(self, group: str, port: int):
        self.group = group
        self.port = port

    def open(self, node: Node, costs: NetworkCosts) -> DatagramSocket:
        socket = DatagramSocket(node, costs, port=None)
        socket.join(self.group, self.port)
        return socket

    def send(self, socket: DatagramSocket, payload: Any, size: int,
             medium: Optional[Medium] = None) -> None:
        socket.send_multicast(payload, size, self.group, self.port, medium=medium)


@dataclass
class _Segment:
    seq: int
    size: int
    payload: Any          # full message object, carried on the final segment
    message_final: bool
    message_size: int


class StreamListener:
    """A passive (listening) TCP-like endpoint."""

    def __init__(self, node: Node, costs: NetworkCosts, port: int):
        self._stack = _NodeStack.of(node, costs)
        if port in self._stack.listeners:
            raise SocketError(f"TCP port {port} already listening on {node.name}")
        self.node = node
        self.costs = costs
        self.kernel = node.network.kernel
        self.port = port
        self._stack.listeners[port] = self
        self._backlog: Deque["StreamSocket"] = deque()
        self._waiters: Deque[Event] = deque()
        self.closed = False

    def accept(self) -> Event:
        """Event that succeeds with the next accepted :class:`StreamSocket`."""
        event = self.kernel.event(name=f"accept:{self.node.name}:{self.port}")
        if self._backlog:
            event.succeed(self._backlog.popleft())
        elif self.closed:
            event.fail(ConnectionClosed("listener closed"))
            event.defused = True
        else:
            self._waiters.append(event)
        return event

    def _handle_syn(self, frame: Frame, interface: Interface) -> None:
        key = (self.port, frame.src, frame.sport)
        if key in self._stack.streams:
            # Duplicate SYN: our SYN-ACK was probably lost -- resend it.
            reply = Frame(
                src=interface.address,
                dst=frame.src,
                protocol="tcp",
                sport=self.port,
                dport=frame.sport,
                payload=None,
                wire_size=self.costs.tcp_header_bytes,
                metadata={"kind": "syn-ack"},
            )
            self.node.send_frame(reply)
            return
        stream = StreamSocket(
            self.node,
            self.costs,
            local_port=self.port,
            remote=frame.src,
            remote_port=frame.sport,
            connected=True,
        )
        reply = Frame(
            src=interface.address,
            dst=frame.src,
            protocol="tcp",
            sport=self.port,
            dport=frame.sport,
            payload=None,
            wire_size=self.costs.tcp_header_bytes,
            metadata={"kind": "syn-ack"},
        )
        self.kernel.call_later(
            self.costs.tcp_handshake_processing_s,
            lambda: self.node.send_frame(reply),
        )
        if self._waiters:
            self._waiters.popleft().succeed(stream)
        else:
            self._backlog.append(stream)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._stack.listeners.pop(self.port, None)
        while self._waiters:
            waiter = self._waiters.popleft()
            waiter.defused = True
            waiter.fail(ConnectionClosed("listener closed"))


class StreamSocket:
    """A reliable, ordered, message-preserving stream (TCP-like).

    Obtain one either from :meth:`StreamListener.accept` or from
    :meth:`StreamSocket.connect`::

        sock = yield StreamSocket.connect(node, costs, peer_addr, 80)
        sock.send(request, size=512)
        response = yield sock.recv()

    Reliability: segments carry sequence numbers; the receiver accepts only
    in-order segments and acknowledges cumulatively; the sender retransmits
    from the first unacknowledged segment on timeout (go-back-N).
    """

    #: Retransmission timeout (generous: simulated RTTs are sub-millisecond).
    RTO = 0.25
    #: Maximum retransmission attempts before the stream fails.
    MAX_RETRIES = 20
    #: SYN retransmission interval and attempt budget for connect().
    SYN_INTERVAL = 0.5
    MAX_SYN_ATTEMPTS = 6
    #: Send window: maximum unacknowledged segments in flight.  Bounds how
    #: much data a sender can pre-commit to the wire -- a host that dies
    #: mid-transfer takes at most a window's worth of frames with it.
    WINDOW = 64

    def __init__(
        self,
        node: Node,
        costs: NetworkCosts,
        local_port: int,
        remote: Address,
        remote_port: int,
        connected: bool = False,
    ):
        self._stack = _NodeStack.of(node, costs)
        self.node = node
        self.costs = costs
        self.kernel = node.network.kernel
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        self._key = (local_port, remote, remote_port)
        if self._key in self._stack.streams:
            raise SocketError(f"stream {self._key} already exists on {node.name}")
        self._stack.streams[self._key] = self

        self.connected = connected
        self.closed = False
        self._connect_event: Optional[Event] = None

        # Sender state.
        self._send_queue: Deque[_Segment] = deque()
        self._unacked: Deque[_Segment] = deque()
        self._next_seq = 0
        self._pump_running = False
        #: Handle of the armed retransmit timer (see ``Kernel.cancel``).
        self._retransmit_timer: Optional[list] = None
        self._retries = 0
        self._drained_waiters: Deque[Event] = deque()
        #: Reusable parked event for :meth:`drained_wait`: hot senders wait
        #: for the drain barrier once per batch, so recycling one event per
        #: stream avoids an allocation per wait.
        self._drained_parked: Optional[Event] = None
        self._window_waiters: Deque[Event] = deque()

        # Receiver state.
        self._expected_seq = 0
        self._recv_queue: Deque[Tuple[Any, int]] = deque()
        self._recv_waiters: Deque[Event] = deque()
        self._assembling_bytes = 0

        # Metrics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.retransmissions = 0

    # -- connection establishment ------------------------------------------------

    @classmethod
    def connect(
        cls, node: Node, costs: NetworkCosts, dst: Address, dport: int
    ) -> Event:
        """Event that succeeds with a connected :class:`StreamSocket`."""
        stack = _NodeStack.of(node, costs)
        sport = stack.ephemeral_port()
        stream = cls(node, costs, local_port=sport, remote=dst, remote_port=dport)
        kernel = node.network.kernel
        event = kernel.event(name=f"connect:{node.name}->{dst}:{dport}")
        stream._connect_event = event

        def send_syn(attempt: int) -> None:
            if stream.connected or stream.closed or stream._connect_event is None:
                return
            if attempt >= cls.MAX_SYN_ATTEMPTS:
                pending, stream._connect_event = stream._connect_event, None
                pending.defused = True
                pending.fail(
                    ConnectionRefused(f"{dst}:{dport} (no answer after SYN retries)")
                )
                stream._teardown()
                return
            syn = Frame(
                src=node.address,
                dst=dst,
                protocol="tcp",
                sport=sport,
                dport=dport,
                payload=None,
                wire_size=costs.tcp_header_bytes,
                metadata={"kind": "syn"},
            )
            node.send_frame(syn)
            kernel.call_later(cls.SYN_INTERVAL, lambda: send_syn(attempt + 1))

        kernel.call_later(costs.tcp_handshake_processing_s, lambda: send_syn(0))
        return event

    # -- sending ------------------------------------------------------------------

    def _segment_message(self, payload: Any, size: int) -> List[_Segment]:
        if self.closed:
            raise SocketError("stream is closed")
        if not self.connected:
            raise SocketError("stream is not connected yet")
        if size < 0:
            raise SocketError("negative message size")
        mss = self.costs.mtu_bytes - self.costs.tcp_header_bytes
        segments: List[_Segment] = []
        remaining = max(size, 1)
        while remaining > 0:
            chunk = min(remaining, mss)
            remaining -= chunk
            final = remaining == 0
            segments.append(
                _Segment(
                    seq=self._next_seq,
                    size=chunk,
                    payload=payload if final else None,
                    message_final=final,
                    message_size=size,
                )
            )
            self._next_seq += 1
        self.messages_sent += 1
        self.bytes_sent += size
        return segments

    def send(self, payload: Any, size: int) -> None:
        """Queue one message of ``size`` bytes for reliable delivery.

        Per-segment processing is charged by a background pump process, so
        ``send`` itself never blocks the caller.  Use :meth:`send_inline`
        when the caller should pay the processing cost itself.
        """
        self._send_queue.extend(self._segment_message(payload, size))
        self._start_pump()

    def send_inline(self, payload: Any, size: int):
        """Generator variant of :meth:`send`: the *calling process* charges
        the per-segment processing time before each transmission.

        Used by uMiddle's transport module, whose per-peer sender process
        serializes envelope marshaling with TCP processing the way a real
        single-threaded sender thread would.  Do not mix ``send`` and
        ``send_inline`` concurrently on one stream: segments must enter the
        wire in sequence order.
        """
        segments = self._segment_message(payload, size)
        for segment in segments:
            yield from self._await_window()
            yield self.kernel.timeout(self.costs.tcp_segment_processing_s)
            if self.closed:
                raise ConnectionClosed("stream closed during send")
            self._transmit_segment(segment)
            self._unacked.append(segment)
            self._arm_retransmit()

    def drained(self) -> Event:
        """Event that succeeds once all queued data has been acknowledged."""
        event = self.kernel.event(name="drained")
        if not self._send_queue and not self._unacked:
            event.succeed()
        else:
            self._drained_waiters.append(event)
        return event

    def drained_wait(self):
        """Generator variant of :meth:`drained` for hot senders.

        Returns immediately (no event allocation, no kernel round-trip)
        when the stream is already fully acknowledged; otherwise parks on
        a single reusable per-stream event.  Raises
        :class:`ConnectionClosed` if the stream dies while waiting, like a
        ``yield stream.drained()`` would.
        """
        while self._send_queue or self._unacked:
            if self.closed:
                raise ConnectionClosed("stream closed")
            event = self._drained_parked
            if event is None or event.triggered:
                if event is not None and event.processed:
                    event = event.reset()
                else:
                    event = self.kernel.event(name="drained")
                self._drained_parked = event
                self._drained_waiters.append(event)
            yield event
        if self.closed:
            raise ConnectionClosed("stream closed")

    def _start_pump(self) -> None:
        if not self._pump_running and self.connected and not self.closed:
            self._pump_running = True
            self.kernel.process(self._pump(), name=f"pump:{self._key}")

    def _await_window(self):
        """Generator: parks until the send window has room."""
        while len(self._unacked) >= self.WINDOW and not self.closed:
            waiter = self.kernel.event(name=f"window:{self._key}")
            self._window_waiters.append(waiter)
            yield waiter

    def _pump(self):
        try:
            while self._send_queue and not self.closed:
                segment = self._send_queue.popleft()
                yield from self._await_window()
                yield self.kernel.timeout(self.costs.tcp_segment_processing_s)
                if self.closed:
                    return
                self._transmit_segment(segment)
                self._unacked.append(segment)
                self._arm_retransmit()
        finally:
            self._pump_running = False

    def _transmit_segment(self, segment: _Segment) -> None:
        frame = Frame(
            src=self.node.address,
            dst=self.remote,
            protocol="tcp",
            sport=self.local_port,
            dport=self.remote_port,
            payload=segment,
            wire_size=segment.size + self.costs.tcp_header_bytes,
            metadata={"kind": "data"},
        )
        self.node.send_frame(frame)

    def _arm_retransmit(self) -> None:
        if self._retransmit_timer is None:
            self._retransmit_timer = self.kernel.call_later(
                self.RTO, self._on_retransmit_timer
            )

    def _on_retransmit_timer(self) -> None:
        # Only the live timer fires: ack progress and ``_fail`` cancel it,
        # so the stream is open and still holds unacknowledged segments.
        self._retransmit_timer = None
        self._retries += 1
        if self._retries > self.MAX_RETRIES:
            self._fail(ConnectionClosed("too many retransmissions"))
            return
        self.retransmissions += len(self._unacked)
        for segment in self._unacked:
            self._transmit_segment(segment)
        self._arm_retransmit()

    # -- frame handling --------------------------------------------------------------

    def _handle_frame(self, frame: Frame) -> None:
        kind = frame.metadata.get("kind")
        if kind == "syn-ack":
            if not self.connected:
                self.connected = True
                if self._connect_event is not None:
                    self._connect_event.succeed(self)
                    self._connect_event = None
                self._start_pump()
        elif kind == "rst":
            if self._connect_event is not None:
                event, self._connect_event = self._connect_event, None
                event.defused = True
                event.fail(ConnectionRefused(f"{self.remote}:{self.remote_port}"))
                self._teardown()
            else:
                self._fail(ConnectionClosed("connection reset by peer"))
        elif kind == "data":
            self._handle_data(frame.payload)
        elif kind == "ack":
            self._handle_ack(frame.metadata["ack_seq"])
        elif kind == "fin":
            self._send_ack(frame.metadata.get("seq", self._expected_seq))
            self._fail(ConnectionClosed("peer closed the stream"), graceful=True)

    def _handle_data(self, segment: _Segment) -> None:
        if segment.seq > self._expected_seq:
            # Out of order (an earlier segment was lost): re-ack last good.
            self._send_ack(self._expected_seq)
            return
        if segment.seq < self._expected_seq:
            # Duplicate from a retransmission burst.
            self._send_ack(self._expected_seq)
            return
        self._expected_seq += 1
        self._assembling_bytes += segment.size
        self._send_ack(self._expected_seq)
        if segment.message_final:
            size = segment.message_size
            self._assembling_bytes = 0
            self.bytes_received += size
            self.messages_received += 1
            if self._recv_waiters:
                self._recv_waiters.popleft().succeed((segment.payload, size))
            else:
                self._recv_queue.append((segment.payload, size))

    def _send_ack(self, ack_seq: int) -> None:
        frame = Frame(
            src=self.node.address,
            dst=self.remote,
            protocol="tcp",
            sport=self.local_port,
            dport=self.remote_port,
            payload=None,
            wire_size=self.costs.tcp_header_bytes,
            metadata={"kind": "ack", "ack_seq": ack_seq},
        )
        self.node.send_frame(frame)

    def _handle_ack(self, ack_seq: int) -> None:
        progressed = False
        while self._unacked and self._unacked[0].seq < ack_seq:
            self._unacked.popleft()
            progressed = True
        if progressed and len(self._unacked) < self.WINDOW:
            while self._window_waiters:
                waiter = self._window_waiters.popleft()
                if not waiter.triggered:
                    waiter.succeed()
        if progressed:
            self._retries = 0
            self.kernel.cancel(self._retransmit_timer)
            self._retransmit_timer = None
            if self._unacked:
                self._arm_retransmit()
        if not self._send_queue and not self._unacked:
            while self._drained_waiters:
                self._drained_waiters.popleft().succeed()

    # -- receiving ----------------------------------------------------------------------

    def recv(self) -> Event:
        """Event that succeeds with ``(payload, size)`` of the next message."""
        event = self.kernel.event(name="recv")
        if self._recv_queue:
            event.succeed(self._recv_queue.popleft())
        elif self.closed:
            event.fail(ConnectionClosed("stream closed"))
            event.defused = True
        else:
            self._recv_waiters.append(event)
        return event

    def pending(self) -> int:
        return len(self._recv_queue)

    # -- teardown ----------------------------------------------------------------------

    def close(self) -> None:
        """Gracefully close: notify the peer, fail local waiters."""
        if self.closed:
            return
        fin = Frame(
            src=self.node.address,
            dst=self.remote,
            protocol="tcp",
            sport=self.local_port,
            dport=self.remote_port,
            payload=None,
            wire_size=self.costs.tcp_header_bytes,
            metadata={"kind": "fin", "seq": self._next_seq},
        )
        try:
            self.node.send_frame(fin)
        except NetworkError:
            pass
        self._fail(ConnectionClosed("locally closed"), graceful=True)

    def abort(self) -> None:
        """Tear down abruptly, without notifying the peer (crash semantics).

        The peer discovers the death only when its next segment is answered
        with an RST by our node's stack (or its retransmissions exhaust).
        """
        self._fail(ConnectionClosed("aborted"))

    def _fail(self, exc: SocketError, graceful: bool = False) -> None:
        if self.closed:
            return
        self.closed = True
        self.kernel.cancel(self._retransmit_timer)
        self._retransmit_timer = None
        while self._recv_waiters:
            waiter = self._recv_waiters.popleft()
            waiter.defused = True
            waiter.fail(exc)
        while self._drained_waiters:
            waiter = self._drained_waiters.popleft()
            waiter.defused = True
            waiter.fail(exc)
        while self._window_waiters:
            waiter = self._window_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()  # wake parked senders; they observe closed
        if self._connect_event is not None:
            event, self._connect_event = self._connect_event, None
            event.defused = True
            event.fail(exc)
        self._teardown()

    def _teardown(self) -> None:
        self.closed = True
        self._stack.streams.pop(self._key, None)
