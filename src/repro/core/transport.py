"""The uMiddle transport module (Figure 7).

Responsibilities:

- **Message paths** between an output port and an input port, created with
  :meth:`Transport.connect` (Figure 7-1).  Each path owns a bounded
  *translation buffer* (the buffer Section 5.3 observes filling up when the
  consumer side is slower) and an optional :class:`~repro.core.qos.QosPolicy`.
- **Inter-node delivery**: translators on different uMiddle runtimes
  communicate through per-peer TCP streams carrying envelope-marshaled
  messages (Figure 5's transport modules on hosts H1/H2).  One sender
  process per peer drains that peer's spool; the data-plane switch sets
  its caps and frame encoding.
- **Remote path control**: a runtime may request a *peer* runtime to create
  or tear down a path whose source port lives on that peer, so applications
  can wire any two ports in the federation from wherever they run.

Query-based connection (Figure 7-2) lives in :mod:`repro.core.binding`,
which drives this module.

Cost model: each delivery charges the transport dispatch cost; paths whose
endpoints translate *different* native platforms additionally charge the
cross-representation conversion cost (this is what makes the paper's RMI-MB
bridge slower than the RMI echo in Figure 11); remote deliveries charge
envelope marshal costs plus TCP per-segment processing in the per-peer
sender process.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Deque, Dict, Generator, List, Optional, Tuple, Union, TYPE_CHECKING

from repro.core.codec import BinaryFrame, CodecError, WireDecoder, WireEncoder
from repro.core.errors import TransportError
from repro.core.health import OPEN, CircuitBreaker
from repro.core.messages import UMessage
from repro.core.ports import DigitalInputPort, DigitalOutputPort
from repro.core.profile import PortRef
from repro.core.qos import DropPolicy, QosPolicy
from repro.simnet.kernel import Event
from repro.simnet.sockets import (
    ConnectionClosed,
    ConnectionRefused,
    SocketError,
    StreamListener,
    StreamSocket,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import UMiddleRuntime

__all__ = ["MessagePath", "RemotePathHandle", "Transport"]

_path_counter = itertools.count(1)

#: Fixed envelope header bytes on the wire for inter-runtime messages
#: (JSON wire path; the binary codec charges actual encoded bytes instead).
ENVELOPE_HEADER_BYTES = 64


class _AdaptiveBatch:
    """Per-peer sender caps: envelopes and bytes per frame, frames in
    flight, and the pre-send flush delay.

    On the data plane the caps start at the base batch constants and
    move with observed backlog: they grow while the outbox outruns a full
    pipeline window and decay back once the peer has been idle, so
    sustained throughput gets big frames and wide windows while a quiet
    peer keeps single-frame latency.  On the paper plane they stay at one
    envelope per frame and one frame in flight.
    """

    __slots__ = ("max_envelopes", "max_bytes", "window", "flush_delay_s",
                 "idle_rounds")

    def __init__(self, max_envelopes: int, max_bytes: int, window: int):
        self.max_envelopes = max_envelopes
        self.max_bytes = max_bytes
        self.window = window
        #: Brief pre-send wait letting a forming batch fill while the
        #: producer is hot; zero whenever the peer has recently drained,
        #: so low-load sends are never delayed.
        self.flush_delay_s = 0.0
        self.idle_rounds = 0


class MessagePath:
    """A unidirectional message path from a local output port to an input.

    The destination is either a local :class:`DigitalInputPort` or a remote
    :class:`PortRef`.  Messages flow through the path's translation buffer;
    a delivery process drains it, charging the calibrated costs.
    """

    def __init__(
        self,
        transport: "Transport",
        src: DigitalOutputPort,
        dst: Union[DigitalInputPort, PortRef],
        qos: Optional[QosPolicy] = None,
        path_id: Optional[str] = None,
    ):
        self.transport = transport
        self.src = src
        self.dst = dst
        self.qos = qos or QosPolicy()
        self.path_id = path_id or f"{transport.runtime.runtime_id}:p{next(_path_counter)}"
        umiddle = transport.runtime.calibration.umiddle
        self.capacity = self.qos.buffer_capacity or umiddle.translation_buffer_capacity
        self._buffer: Deque[UMessage] = deque()
        self._wakeup: Optional[Event] = None
        self.closed = False
        #: True for application paths recorded in the write-ahead journal
        #: (paths created by a DynamicBinding are derived state -- the
        #: journaled binding recreates them on recovery instead).
        self.journaled = False

        # Destination platform, for cross-representation accounting.
        if isinstance(dst, DigitalInputPort):
            self._dst_platform: Optional[str] = dst.translator.platform
        else:
            self._dst_platform = transport.runtime.directory.platform_of(
                dst.translator_id
            )

        self.messages_enqueued = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        self.peak_buffer = 0
        self._space_waiters: Deque[Event] = deque()

        self._process = transport.runtime.kernel.process(
            self._run(), name=f"path:{self.path_id}"
        )

    # -- identity ------------------------------------------------------------

    @property
    def src_ref(self) -> PortRef:
        return self.src.ref

    @property
    def dst_ref(self) -> PortRef:
        if isinstance(self.dst, DigitalInputPort):
            return self.dst.ref
        return self.dst

    @property
    def is_remote(self) -> bool:
        return not isinstance(self.dst, DigitalInputPort)

    @property
    def is_cross_platform(self) -> bool:
        """True when source and destination translate different platforms.

        Unknown destination platforms (remote translator already gone from
        the directory) conservatively count as cross-platform.
        """
        return self._dst_platform is None or (
            self.src.translator.platform != self._dst_platform
        )

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    # -- ingress --------------------------------------------------------------

    def enqueue(self, message: UMessage) -> bool:
        """Admit ``message`` to the translation buffer.

        Returns False when the message was dropped by the overflow policy.
        """
        if self.closed:
            return False
        if len(self._buffer) >= self.capacity:
            self.messages_dropped += 1
            if self.transport.runtime.tracing:
                self.transport.runtime.trace(
                    "transport.drop",
                    f"path {self.path_id}: translation buffer full",
                    size=message.size,
                    policy=self.qos.drop_policy.value,
                )
            if self.qos.drop_policy is DropPolicy.DROP_OLDEST:
                self._buffer.popleft()
            else:
                return False
        self._buffer.append(message)
        self.messages_enqueued += 1
        self.peak_buffer = max(self.peak_buffer, len(self._buffer))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return True

    def enqueue_flow(self, message: UMessage):
        """Flow-controlled admission (generator): waits for buffer space
        instead of dropping.

        This is the backpressure variant of :meth:`enqueue`, used by
        cooperative senders (``DigitalOutputPort.send_flow``).  Returns
        True once admitted, False if the path closed while waiting.
        """
        kernel = self.transport.runtime.kernel
        while not self.closed and len(self._buffer) >= self.capacity:
            waiter = kernel.event(name=f"path-space:{self.path_id}")
            self._space_waiters.append(waiter)
            yield waiter
        if self.closed:
            return False
        return self.enqueue(message)

    # -- delivery -------------------------------------------------------------

    def _run(self) -> Generator:
        runtime = self.transport.runtime
        kernel = runtime.kernel
        umiddle = runtime.calibration.umiddle
        while not self.closed:
            if not self._buffer:
                self._wakeup = kernel.event(name="path-wait")
                yield self._wakeup
                self._wakeup = None
                continue
            message = self._buffer.popleft()
            if self._space_waiters:
                waiter = self._space_waiters.popleft()
                if not waiter.triggered:
                    waiter.succeed()
            if self.qos.rate is not None:
                delay = self.qos.rate.delay_for(message.size, kernel.now)
                if delay > 0:
                    yield kernel.timeout(delay)
            yield kernel.timeout(umiddle.transport_dispatch_s)
            if self.is_cross_platform:
                yield kernel.timeout(
                    umiddle.cross_representation_fixed_s
                    + umiddle.cross_representation_per_byte_s * message.size
                )
            if self.closed:
                return
            if isinstance(self.dst, DigitalInputPort):
                result = self.dst.deliver(message)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    yield from result
            else:
                self.transport._enqueue_remote(self.dst, message, path=self)
            self.messages_delivered += 1
            self.bytes_delivered += message.size

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._buffer.clear()
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
        self.transport._forget_path(self)


class RemotePathHandle:
    """Handle for a path created on a *peer* runtime on our behalf."""

    def __init__(self, transport: "Transport", owner_runtime_id: str, path_id: str):
        self.transport = transport
        self.owner_runtime_id = owner_runtime_id
        self.path_id = path_id
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.transport._send_control(
            self.owner_runtime_id, {"kind": "disconnect", "path_id": self.path_id}
        )


class Transport:
    """One runtime's transport module.

    Peer delivery is resilient: envelopes bound for a peer accumulate in a
    bounded per-peer *spool* and the sender process retries failed
    deliveries with exponential backoff, so a peer that crashes and
    restarts within the retry budget loses no control-plane messages.
    A peer that stays dead past the budget has its directory entries
    reaped immediately (crash-triggered lease expiry)."""

    #: First retry delay after a failed peer delivery; doubles per attempt.
    RETRY_INITIAL_BACKOFF_S = 0.25
    #: Ceiling on the exponential backoff between attempts.
    RETRY_MAX_BACKOFF_S = 4.0
    #: Delivery attempts per envelope before declaring it undeliverable.
    MAX_SEND_ATTEMPTS = 16
    #: Bounded spool: envelopes held per peer while it is unreachable;
    #: beyond this the oldest spooled envelope is dropped.
    SPOOL_CAPACITY = 256
    #: Receiver-side dedup: number of (origin, stream) high-water marks
    #: tracked before the least-recently-used stream is forgotten.
    DEDUP_WINDOW = 1024
    #: Sequence numbers reserved ahead per durable ``seq-reserve`` record.
    #: The reservation is forced to stable storage before the first
    #: envelope in its range can reach the outbox, so a sender recovering
    #: from a lost group-commit window (or a truncated journal tail) never
    #: re-stamps a sequence number a receiver may already hold as its
    #: high-water mark -- which would make it suppress *new* messages as
    #: duplicates.  One forced fsync per SEQ_RESERVE_CHUNK stamps.
    SEQ_RESERVE_CHUNK = 64
    #: Base (idle-peer) batch caps the adaptive controller starts from and
    #: decays back to: most envelopes coalesced into one wire frame ...
    BATCH_MAX_ENVELOPES = 32
    #: ... soft byte ceiling per batch frame (a single envelope larger
    #: than this still ships, alone) ...
    BATCH_MAX_BYTES = 8192
    #: ... and batches in flight before the sender blocks on the stream's
    #: drain barrier; acks are journaled in order afterwards.
    PIPELINE_WINDOW = 4
    #: Load-adaptive ceilings: batch caps and the pipeline window double
    #: under sustained backlog up to these, and decay back to the base
    #: constants when the peer goes idle.
    ADAPT_MAX_ENVELOPES = 256
    ADAPT_MAX_BYTES = 65536
    ADAPT_MAX_WINDOW = 16
    #: Flush-timer band: a persistent-but-underfull backlog grows the
    #: pre-send wait from the floor toward the ceiling; a drained outbox
    #: snaps it back to zero (low-load sends are never delayed).
    ADAPT_FLUSH_MIN_S = 0.0002
    ADAPT_FLUSH_MAX_S = 0.002

    def __init__(self, runtime: "UMiddleRuntime", port: int):
        self.runtime = runtime
        self.port = port
        #: The sender's own flags pick the wire form; every receiver decodes
        #: every frame kind.  One per-peer sender serves both planes, and
        #: the plane sets its caps and frame encoding.  With the data plane
        #: on, it coalesces envelopes into pipelined, load-adaptive batch
        #: frames in the binary codec, delta-encoding the headers inside
        #: each batch; with it off, one bare JSON envelope per frame and
        #: one frame in flight reproduce the paper's stop-and-wait wire
        #: bytes.
        self.data_plane = runtime.data_plane_enabled
        #: Per-peer symbol-interning encoders, reset with their stream.
        self._encoders: Dict[str, WireEncoder] = {}
        #: Per-peer sender caps (adaptive on the data plane only).
        self._adaptive: Dict[str, _AdaptiveBatch] = {}
        self.codec_frames_sent = 0
        self.batch_adaptations = 0
        #: src ref -> immutable snapshot of bound paths, rebuilt on
        #: register/forget so per-message fan-out iterates allocation-free.
        self._paths_by_src: Dict[str, Tuple[MessagePath, ...]] = {}
        self._paths_by_id: Dict[str, MessagePath] = {}
        #: Streams to peers, keyed by runtime id.
        self._peer_streams: Dict[str, StreamSocket] = {}
        self._accepted_streams: List[StreamSocket] = []
        self._peer_outboxes: Dict[str, Deque[Tuple[str, dict, int]]] = {}
        self._peer_wakeups: Dict[str, Event] = {}
        self._peer_senders: Dict[str, object] = {}
        #: Sender-side per-(sender, path) sequence counters: stream key ->
        #: last sequence number stamped on an outgoing envelope.
        self._stream_seqs: Dict[str, int] = {}
        #: stream key -> highest sequence number covered by a durable
        #: ``seq-reserve`` journal record (see SEQ_RESERVE_CHUNK).
        self._stream_reserved: Dict[str, int] = {}
        #: Receiver-side dedup window: (origin runtime, stream key) ->
        #: highest sequence number delivered, LRU-bounded to DEDUP_WINDOW.
        self._dedup: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self.messages_relayed = 0
        self.batches_sent = 0
        self.undeliverable = 0
        self.retries = 0
        self.spool_dropped = 0
        self.spool_flushed = 0
        self.duplicates_suppressed = 0
        self.respooled = 0
        #: Journaled paths closed while the journal was muted (crash
        #: teardown); a warm restart appends their close records.
        self._orphaned_paths: List[str] = []
        #: Per-peer delivery breakers, created lazily on the first exhausted
        #: retry budget.  While a breaker is open, new envelopes for that
        #: peer are flushed instead of spooled, and the sender probes with a
        #: single attempt instead of a full retry budget.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._listener: Optional[StreamListener] = None
        self.started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._listener = StreamListener(
            self.runtime.node, self.runtime.calibration.network, self.port
        )
        self.runtime.kernel.process(
            self._accept_loop(), name=f"transport-accept:{self.runtime.runtime_id}"
        )
        # Spooled envelopes survive a stop/crash; resume draining them.
        for runtime_id, outbox in self._peer_outboxes.items():
            if outbox and runtime_id not in self._peer_senders:
                self._spawn_sender(runtime_id)

    def stop(self, graceful: bool = True) -> None:
        """Stop serving.  ``graceful=False`` models a crash: streams are
        aborted without FIN, so peers only notice on their next send."""
        self.started = False
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for stream in list(self._peer_streams.values()):
            if graceful:
                stream.close()
            else:
                stream.abort()
        self._peer_streams.clear()
        for stream in list(self._accepted_streams):
            if graceful:
                stream.close()
            else:
                stream.abort()
        self._accepted_streams.clear()
        for sender in list(self._peer_senders.values()):
            if sender.is_alive:  # type: ignore[attr-defined]
                sender.kill("transport stopped")  # type: ignore[attr-defined]
        self._peer_senders.clear()
        self._peer_wakeups.clear()
        # A warm restart clears breakers and rediscovers peer health from
        # scratch; a cold restart (:meth:`recover`) restores journaled open
        # breakers half-open instead, so a recovered runtime probes known
        # dead peers rather than re-burning full retry budgets on them.
        self._breakers.clear()
        for path in list(self._paths_by_id.values()):
            path.close()

    # -- cold restart (journal recovery) -------------------------------------

    def drain_orphaned_paths(self) -> List[str]:
        """Journaled paths torn down while the journal was muted; the
        caller (a warm restart) owes the journal their close records."""
        orphaned = self._orphaned_paths
        self._orphaned_paths = []
        return orphaned

    def discard_state(self) -> None:
        """``crash(lose_state=True)`` semantics: the spool, sequence
        counters, dedup window and breakers die with the process.  Paths
        were already torn down by :meth:`stop`."""
        self._peer_outboxes.clear()
        self._breakers.clear()
        self._stream_seqs.clear()
        self._stream_reserved.clear()
        self._dedup.clear()
        # Adaptive batching state and symbol tables are in-memory only (a
        # recovered sender re-learns the load; a fresh stream re-teaches
        # the peer's decoder).
        self._encoders.clear()
        self._adaptive.clear()

    def recover(self, state) -> None:
        """Rebuild transport state from a :class:`~repro.core.journal.
        RecoveredState`: sequence counters resume past every journaled
        assignment or reservation (respools must not reuse sequence
        numbers), unacked envelopes are respooled in order, and journaled
        open breakers come back *half-open* -- probe-eligible immediately,
        but one failure away from re-opening -- instead of closed.

        ``state`` doubles as the journal's post-replay mirror, so the
        pruning below (dropping spool entries that are not respooled) is
        written back into it: the recovery checkpoint then records exactly
        the live outbox, keeping ack/drop FIFO pops aligned across a
        second crash."""
        # A truncated tail may have eaten spool records (and even the odd
        # reservation) for sequence numbers that were already delivered;
        # skipping a full reservation chunk ahead keeps them unreissued.
        bump = self.SEQ_RESERVE_CHUNK if state.truncated else 0
        for stream in list(state.stream_seqs):
            seq = state.stream_seqs[stream] + bump
            state.stream_seqs[stream] = seq
            self._stream_seqs[stream] = max(self._stream_seqs.get(stream, 0), seq)
        for peer, entries in state.spool.items():
            outbox = self._peer_outboxes.setdefault(peer, deque())
            kept = []
            for envelope, size in entries:
                if envelope.get("kind") == "opaque":
                    continue  # payload was not journal-representable
                kept.append((envelope, size))
                outbox.append((peer, envelope, size))
                self.respooled += 1
            entries[:] = kept
            if self.started and outbox and peer not in self._peer_senders:
                self._spawn_sender(peer)
        for peer, snapshot in state.breakers.items():
            breaker = CircuitBreaker(
                self.runtime.kernel,
                key=f"peer:{self.runtime.runtime_id}->{peer}",
                failure_threshold=1,
                reopen_base_s=10.0,
                reopen_max_s=60.0,
            )
            breaker.state = OPEN
            breaker.times_opened = max(int(snapshot.get("times_opened", 1)), 1)
            breaker.retry_at = self.runtime.kernel.now  # next allow() probes
            self._breakers[peer] = breaker
            self.runtime.trace(
                "transport.breaker-restore",
                f"to {peer}: journaled open breaker restored half-open",
                times_opened=breaker.times_opened,
            )

    def recover_path(
        self,
        path_id: str,
        src_ref: PortRef,
        dst_ref: PortRef,
        qos: Optional[QosPolicy],
    ) -> Optional[MessagePath]:
        """Recreate one journaled application path under its original id.

        Returns None (without raising) when an endpoint no longer resolves
        locally -- e.g. the remote peer's directory entry has not been
        re-learned yet; the path stays closed, exactly as if the peer had
        been torn down while we were dead."""
        try:
            src = self.runtime.local_output_port(src_ref)
        except TransportError:
            return None
        dst: Union[DigitalInputPort, PortRef] = dst_ref
        if dst_ref.runtime_id == self.runtime.runtime_id:
            try:
                dst = self.runtime.local_input_port(dst_ref)
            except TransportError:
                return None
        path = MessagePath(self, src, dst, qos=qos, path_id=path_id)
        path.journaled = True
        self._register_path(path)
        self.runtime.trace(
            "transport.path-recovered",
            f"path {path.path_id}: {path.src_ref} -> {path.dst_ref}",
        )
        return path

    # -- path management --------------------------------------------------------

    def connect(
        self,
        src: Union[DigitalOutputPort, PortRef],
        dst: Union[DigitalInputPort, PortRef],
        qos: Optional[QosPolicy] = None,
    ) -> Union[MessagePath, RemotePathHandle]:
        """Establish a communication path between two ports (Figure 7-1).

        ``src`` must be an output port; ``dst`` an input port.  Either may
        be remote (a :class:`PortRef` on another runtime); a remote *source*
        results in a control request to the owning runtime and returns a
        :class:`RemotePathHandle`.
        """
        runtime_id = self.runtime.runtime_id
        if isinstance(src, PortRef):
            if src.runtime_id == runtime_id:
                src = self.runtime.local_output_port(src)
            else:
                return self._connect_remote_source(src, dst, qos)
        if not isinstance(src, DigitalOutputPort):
            raise TransportError(f"source must be a digital output port, got {src!r}")
        if isinstance(dst, PortRef) and dst.runtime_id == runtime_id:
            dst = self.runtime.local_input_port(dst)
        if isinstance(dst, DigitalInputPort):
            if dst.mime != src.mime:
                raise TransportError(
                    f"type mismatch: {src.mime} output cannot feed {dst.mime} input"
                )
        path = MessagePath(self, src, dst, qos=qos)
        self._register_path(path)
        self.runtime.trace(
            "transport.connect",
            f"path {path.path_id}: {path.src_ref} -> {path.dst_ref}",
        )
        return path

    def _connect_remote_source(
        self,
        src: PortRef,
        dst: Union[DigitalInputPort, PortRef],
        qos: Optional[QosPolicy],
    ) -> RemotePathHandle:
        if qos is not None:
            raise TransportError(
                "QoS policies apply where the path runs; create the path on "
                "the source's runtime to attach one"
            )
        dst_ref = dst.ref if isinstance(dst, DigitalInputPort) else dst
        path_id = f"{self.runtime.runtime_id}:rp{next(_path_counter)}"
        self._send_control(
            src.runtime_id,
            {
                "kind": "connect",
                "path_id": path_id,
                "src": str(src),
                "dst": str(dst_ref),
            },
        )
        return RemotePathHandle(self, src.runtime_id, path_id)

    def _register_path(self, path: MessagePath) -> None:
        # Snapshot-on-mutation: dispatch iterates the tuple directly, so
        # rebuilding here keeps the per-message fan-out allocation-free.
        key = str(path.src_ref)
        self._paths_by_src[key] = self._paths_by_src.get(key, ()) + (path,)
        self._paths_by_id[path.path_id] = path

    def _forget_path(self, path: MessagePath) -> None:
        self._paths_by_id.pop(path.path_id, None)
        key = str(path.src_ref)
        paths = self._paths_by_src.get(key)
        if paths and path in paths:
            remaining = tuple(p for p in paths if p is not path)
            if remaining:
                self._paths_by_src[key] = remaining
            else:
                del self._paths_by_src[key]
        if path.journaled:
            path.journaled = False
            journal = self.runtime.journal
            if journal.muted:
                # Closed during a crash: the close record is written by a
                # warm restart (cold recovery supersedes it with a replay).
                self._orphaned_paths.append(path.path_id)
            else:
                journal.append("path-close", {"path_id": path.path_id})

    def paths_from(self, src: DigitalOutputPort) -> List[MessagePath]:
        return list(self._paths_by_src.get(str(src.ref), ()))

    def close_paths_of_translator(self, translator_id: str) -> None:
        """Tear down every path whose source or local sink is the translator."""
        for path in list(self._paths_by_id.values()):
            src_is_ours = path.src.translator.translator_id == translator_id
            dst_is_ours = (
                isinstance(path.dst, DigitalInputPort)
                and path.dst.translator.translator_id == translator_id
            )
            if src_is_ours or dst_is_ours:
                path.close()

    # -- egress ---------------------------------------------------------------

    def dispatch(self, src: DigitalOutputPort, message: UMessage) -> int:
        """Fan ``message`` out to every path bound to ``src``.

        Returns the number of paths that admitted the message.
        """
        paths = self._paths_by_src.get(str(src.ref))
        if not paths:
            return 0
        admitted = 0
        for path in paths:  # immutable snapshot: no per-message copy
            if path.enqueue(message):
                admitted += 1
        return admitted

    def dispatch_flow(self, src: DigitalOutputPort, message: UMessage):
        """Flow-controlled fan-out (generator): waits for buffer space on
        each bound path rather than dropping on overflow."""
        paths = self._paths_by_src.get(str(src.ref))
        if not paths:
            return 0
        admitted = 0
        for path in paths:  # immutable snapshot: no per-message copy
            ok = yield from path.enqueue_flow(message)
            if ok:
                admitted += 1
        return admitted

    # -- inter-runtime plumbing ---------------------------------------------------

    def _enqueue_remote(
        self, dst: PortRef, message: UMessage, path: Optional[MessagePath] = None
    ) -> None:
        # Shared-fanout wire form: the per-message body is built once (and
        # cached on the message), shared by every peer; only the per-peer
        # fields (dst/origin/stream/seq) are layered onto a shallow copy.
        envelope = dict(message.wire_base())
        envelope["dst"] = str(dst)
        # The dedup stream is the *path*, so two paths feeding the same
        # input port never share a sequence space (per-(sender, path)).
        stream = path.path_id if path is not None else f"dst:{dst}"
        self._enqueue_envelope(dst.runtime_id, envelope, message.size, stream=stream)

    def _send_control(self, runtime_id: str, envelope: dict) -> None:
        self._enqueue_envelope(
            runtime_id, envelope, 0, stream=f"ctl:{runtime_id}"
        )

    def send_saga(self, runtime_id: str, envelope: dict, size: int = 0) -> None:
        """Ship a saga invocation to a participant runtime.

        Deliberately *streamless*: saga envelopes carry no
        ``(stream, seq)`` stamp, so the receiver's in-memory dedup window
        never sees them -- the saga layer's journaled reply cache owns
        idempotency (it survives cold restarts; the window does not).
        The spool record is forced opaque: the payload is already durable
        in the coordinator's ``saga-begin`` record, and a recovered
        coordinator re-*drives* the step rather than re-*spooling* the
        envelope, so journaling the payload again would only double the
        WAL bytes per step."""
        envelope["origin"] = self.runtime.runtime_id
        self._enqueue_envelope(runtime_id, envelope, size, journal_opaque=True)

    def _enqueue_envelope(
        self,
        runtime_id: str,
        envelope: dict,
        size: int,
        stream: Optional[str] = None,
        journal_opaque: bool = False,
    ) -> None:
        breaker = self._breakers.get(runtime_id)
        if breaker is not None and not breaker.allow():
            # Peer conclusively unreachable and not yet due for a probe:
            # spooling would only doom more envelopes.
            self.spool_flushed += 1
            return
        if stream is not None:
            seq = self._stream_seqs.get(stream, 0) + 1
            self._stream_seqs[stream] = seq
            journal = self.runtime.journal
            if journal.enabled and seq > self._stream_reserved.get(stream, 0):
                # The reservation must hit stable storage before this
                # envelope can be handed to the outbox (and possibly
                # delivered): the spool record itself may still be in the
                # group-commit window when the process dies, and a
                # recovered sender must never reissue a delivered seq.
                upto = seq + self.SEQ_RESERVE_CHUNK
                journal.append("seq-reserve", {"stream": stream, "upto": upto})
                journal.sync()
                self._stream_reserved[stream] = upto
            envelope["origin"] = self.runtime.runtime_id
            envelope["stream"] = stream
            envelope["seq"] = seq
        outbox = self._peer_outboxes.setdefault(runtime_id, deque())
        if len(outbox) >= self.SPOOL_CAPACITY:
            outbox.popleft()
            self.spool_dropped += 1
            self.runtime.journal.append("spool-drop", {"peer": runtime_id})
            if self.runtime.tracing:
                self.runtime.trace(
                    "transport.spool-drop",
                    f"to {runtime_id}: spool full, lost the oldest envelope "
                    "no frame in flight carries",
                    capacity=self.SPOOL_CAPACITY,
                )
        outbox.append((runtime_id, envelope, size))
        self._journal_spool(runtime_id, envelope, size, force_opaque=journal_opaque)
        wakeup = self._peer_wakeups.get(runtime_id)
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
        if self.started and runtime_id not in self._peer_senders:
            self._spawn_sender(runtime_id)

    def _journal_spool(
        self, peer: str, envelope: dict, size: int, force_opaque: bool = False
    ) -> None:
        """Write-ahead-log one spooled envelope as one ``spool`` record,
        before the envelope can leave the spool.

        The per-peer spool is FIFO, so replay alignment depends on *every*
        spooled envelope having a record: an envelope whose payload is not
        JSON-representable gets an opaque placeholder (it keeps the
        ack/drop pops aligned and carries the stream sequence, but cannot
        be respooled after a cold restart)."""
        journal = self.runtime.journal
        if force_opaque:
            envelope = self._opaque_marker(envelope)
        try:
            journal.append_spool(peer, envelope, size)
        except TypeError:
            journal.append_spool(peer, self._opaque_marker(envelope), size)

    @staticmethod
    def _opaque_marker(envelope: dict) -> dict:
        return {
            "kind": "opaque",
            "origin": envelope.get("origin"),
            "stream": envelope.get("stream"),
            "seq": envelope.get("seq"),
        }

    def _spawn_sender(self, runtime_id: str) -> None:
        self._peer_senders[runtime_id] = self.runtime.kernel.process(
            self._peer_sender(runtime_id),
            name=f"peer-sender:{self.runtime.runtime_id}->{runtime_id}",
        )

    def _park_for_outbox(self, runtime_id: str) -> Event:
        """The reusable per-peer idle event, reset and re-armed.

        One event per peer is recycled across idle waits instead of
        allocating a fresh one per wakeup (per-envelope Event churn is
        measurable at high message rates).  ``_enqueue_envelope`` succeeds
        it; while the sender is active the stored event stays processed,
        so enqueues of an already-draining outbox are no-ops."""
        wakeup = self._peer_wakeups.get(runtime_id)
        if wakeup is not None and wakeup.processed:
            wakeup.reset()
        elif wakeup is None or wakeup.triggered:
            wakeup = self.runtime.kernel.event(name="peer-outbox")
            self._peer_wakeups[runtime_id] = wakeup
        return wakeup

    def _record_delivery_success(self, runtime_id: str) -> None:
        """Post-ack bookkeeping: a delivered probe closes the peer's
        breaker, and health hears the success."""
        runtime = self.runtime
        breaker = self._breakers.get(runtime_id)
        if breaker is not None and not breaker.is_closed:
            breaker.record_success()
            runtime.journal.append("breaker", {"peer": runtime_id, "state": "closed"})
            runtime.trace(
                "transport.breaker-close",
                f"to {runtime_id}: probe delivered, breaker closed",
            )
        runtime.health.peer_success(runtime_id)

    def _handle_send_failure(
        self, runtime_id: str, attempts: int, exc: Exception
    ) -> Tuple[int, Optional[float]]:
        """Retry/drop/breaker bookkeeping after one failed delivery
        attempt.

        Returns ``(attempts, backoff_s)``; a ``None`` backoff means the
        head envelope was dropped (budget exhausted, or a failed breaker
        probe) and the sender should re-enter its loop immediately."""
        runtime = self.runtime
        self._peer_streams.pop(runtime_id, None)
        attempts += 1
        runtime.health.peer_failure(runtime_id)
        breaker = self._breakers.get(runtime_id)
        # A half-open probe fails fast: one attempt, not a whole retry
        # budget against a peer known to be down.
        probing = breaker is not None and not breaker.is_closed
        if probing or attempts >= self.MAX_SEND_ATTEMPTS:
            failed_attempts = attempts
            outbox = self._peer_outboxes[runtime_id]
            if outbox:
                outbox.popleft()
                runtime.journal.append("spool-drop", {"peer": runtime_id})
            self.undeliverable += 1
            runtime.trace(
                "transport.undeliverable",
                f"to {runtime_id} after {failed_attempts} attempt(s): {exc}",
            )
            self._trip_breaker(runtime_id, exc)
            runtime.directory.expire_runtime(runtime_id, reason=str(exc))
            return 0, None
        self.retries += 1
        backoff = min(
            self.RETRY_INITIAL_BACKOFF_S * (2 ** (attempts - 1)),
            self.RETRY_MAX_BACKOFF_S,
        )
        runtime.trace(
            "transport.retry",
            f"to {runtime_id}: attempt {attempts} failed ({exc}); "
            f"retrying in {backoff:.2f}s",
            attempt=attempts,
            backoff=backoff,
        )
        return attempts, backoff

    def _adaptive_state(self, runtime_id: str) -> _AdaptiveBatch:
        state = self._adaptive.get(runtime_id)
        if state is None:
            if self.data_plane:
                state = _AdaptiveBatch(
                    self.BATCH_MAX_ENVELOPES,
                    self.BATCH_MAX_BYTES,
                    self.PIPELINE_WINDOW,
                )
            else:
                # The paper's stop-and-wait: one envelope per frame, one
                # frame in flight, never adapted.
                state = _AdaptiveBatch(1, self.BATCH_MAX_BYTES, 1)
            self._adaptive[runtime_id] = state
        return state

    def _adapt_batching(
        self, runtime_id: str, state: _AdaptiveBatch, backlog: int
    ) -> None:
        """One control-law step after an ack round (see DESIGN.md section 14).

        - Saturated (backlog >= a full pipeline window of max-size
          batches): double the caps and the window toward the ceilings.
        - Trickling (some backlog, but less than one full batch): grow the
          flush timer so forming batches fill before shipping.
        - Drained: zero the flush timer immediately; after two
          consecutive idle rounds decay caps/window back toward the base
          constants.
        """
        changed = None
        if backlog >= state.max_envelopes * state.window:
            if (
                state.max_envelopes < self.ADAPT_MAX_ENVELOPES
                or state.window < self.ADAPT_MAX_WINDOW
            ):
                state.max_envelopes = min(
                    state.max_envelopes * 2, self.ADAPT_MAX_ENVELOPES
                )
                state.max_bytes = min(state.max_bytes * 2, self.ADAPT_MAX_BYTES)
                state.window = min(state.window * 2, self.ADAPT_MAX_WINDOW)
                changed = "grow"
            state.flush_delay_s = 0.0  # batches are already full: ship now
            state.idle_rounds = 0
        elif backlog > 0:
            if backlog < state.max_envelopes:
                grown = min(
                    max(state.flush_delay_s * 2.0, self.ADAPT_FLUSH_MIN_S),
                    self.ADAPT_FLUSH_MAX_S,
                )
                if grown != state.flush_delay_s:
                    state.flush_delay_s = grown
                    changed = "flush-grow"
            state.idle_rounds = 0
        else:
            state.flush_delay_s = 0.0
            state.idle_rounds += 1
            if state.idle_rounds >= 2 and (
                state.max_envelopes > self.BATCH_MAX_ENVELOPES
                or state.window > self.PIPELINE_WINDOW
            ):
                state.max_envelopes = max(
                    state.max_envelopes // 2, self.BATCH_MAX_ENVELOPES
                )
                state.max_bytes = max(state.max_bytes // 2, self.BATCH_MAX_BYTES)
                state.window = max(state.window // 2, self.PIPELINE_WINDOW)
                changed = "shrink"
        if changed is not None:
            self.batch_adaptations += 1
            if self.runtime.tracing:
                self.runtime.trace(
                    "batch.adapt",
                    f"to {runtime_id}: {changed} -> "
                    f"{state.max_envelopes} envelopes / {state.max_bytes}B "
                    f"/ window {state.window} "
                    f"/ flush {state.flush_delay_s * 1000:.1f}ms",
                    backlog=backlog,
                    envelopes=state.max_envelopes,
                    window=state.window,
                )

    def _peer_sender(self, runtime_id: str) -> Generator:
        """Drains the outbox for one peer over a single stream.

        Peeks runs of outbox entries into frames, keeps up to the window
        of frames in flight, then blocks once on the stream's drain
        barrier and acks every in-flight frame in order -- one journaled
        ``spool-ack`` per frame.  The plane sets the caps: the data plane
        ships load-adaptive batches, pipelined; the paper plane's caps
        stay at one envelope per frame and one frame in flight, its
        stop-and-wait.  Marshaling is serialized with TCP per-segment
        processing, the way a single sender thread would.

        Because the outbox is peeked (not popped) until the barrier, a
        crash at any point leaves the journal and the spool aligned:
        replay respools exactly the unacked suffix, and the receiver's
        dedup window suppresses whatever the wire already delivered.
        Failed deliveries are retried with exponential backoff; only an
        envelope that exhausts its attempt budget is dropped, and that
        also reaps the peer's directory entries (it is conclusively
        unreachable).
        """
        runtime = self.runtime
        kernel = runtime.kernel
        data_plane = self.data_plane
        outbox = self._peer_outboxes[runtime_id]
        caps = self._adaptive_state(runtime_id)
        attempts = 0
        try:
            while True:
                if not outbox:
                    yield self._park_for_outbox(runtime_id)
                    continue
                if caps.flush_delay_s > 0.0 and len(outbox) < caps.max_envelopes:
                    # A hot producer keeps trickling: wait briefly so the
                    # forming batch fills instead of shipping underfull.
                    # The delay is zero whenever the peer recently drained,
                    # so idle-load latency is untouched.
                    yield kernel.timeout(caps.flush_delay_s)
                try:
                    stream = self._peer_streams.get(runtime_id)
                    if stream is None or stream.closed:
                        stream = yield from self._open_peer_stream(runtime_id)
                    inflight: List[int] = []
                    while outbox:
                        staged = 0
                        for _frame in range(caps.window):
                            count = yield from self._send_batch(
                                stream, outbox, staged, caps, runtime_id
                            )
                            staged += count
                            inflight.append(count)
                            if staged >= len(outbox):
                                break
                        # In-order ack barrier: an envelope counts as
                        # delivered only once the peer's TCP acknowledged
                        # it; a stream dying with data in its send window
                        # must re-deliver, not silently drop.
                        yield from stream.drained_wait()
                        for count in inflight:
                            acked = min(count, len(outbox))
                            for _ in range(acked):
                                outbox.popleft()
                            runtime.journal.append(
                                "spool-ack", {"count": count, "peer": runtime_id}
                            )
                            self.messages_relayed += acked
                        inflight.clear()
                        attempts = 0
                        self._record_delivery_success(runtime_id)
                        if data_plane:
                            self._adapt_batching(runtime_id, caps, len(outbox))
                except (SocketError, TransportError) as exc:
                    # In-flight entries were never popped; they are still
                    # the head of the outbox (and of the journal's FIFO),
                    # so the retry re-sends them and the receiver's dedup
                    # window suppresses any the wire already delivered.
                    attempts, backoff = self._handle_send_failure(
                        runtime_id, attempts, exc
                    )
                    if backoff is not None:
                        yield kernel.timeout(backoff)
        finally:
            # Only deregister ourselves: a crash may already have installed
            # a successor sender for this peer, and GC finalization (where
            # no process is active) must not touch the table at all.
            current = self._peer_senders.get(runtime_id)
            if current is not None and current is kernel.active_process:
                del self._peer_senders[runtime_id]

    def _send_batch(
        self,
        stream: StreamSocket,
        outbox: Deque[Tuple[str, dict, int]],
        start: int,
        caps: _AdaptiveBatch,
        runtime_id: str,
    ) -> Generator:
        """Marshal and transmit one frame of the outbox entries from
        ``start`` on (entries before it ride in frames already in flight);
        returns how many envelopes the frame carries.

        On the paper plane the frame is the bare JSON envelope, charged
        its declared size plus ``ENVELOPE_HEADER_BYTES``.  On the data
        plane up to the caps' envelopes and bytes coalesce into one frame
        (a single envelope larger than the byte cap still ships, alone),
        and one fixed marshal cost covers it all (that is the
        amortization); the per-byte cost still scales with the payload.
        The batch ships as one interned binary delta frame whose *actual*
        encoded bytes, out-of-band payloads included, drive both the
        marshal cost and the wire accounting.  A one-envelope delta frame
        has the plain batch frame's body byte for byte, so the data plane
        has one frame form."""
        kernel = self.runtime.kernel
        umiddle = self.runtime.calibration.umiddle
        if not self.data_plane:
            _rid, envelope, size = outbox[start]
            yield kernel.timeout(
                umiddle.envelope_fixed_s + umiddle.envelope_per_byte_s * size
            )
            yield from stream.send_inline(envelope, size + ENVELOPE_HEADER_BYTES)
            return 1
        envelopes = []
        total = 0
        for _rid, envelope, size in itertools.islice(outbox, start, None):
            if envelopes and (
                len(envelopes) >= caps.max_envelopes
                or total + size > caps.max_bytes
            ):
                break
            envelopes.append(envelope)
            total += size
        encoder = self._encoders.get(runtime_id)
        if encoder is None:
            encoder = self._encoders[runtime_id] = WireEncoder()
        frame = encoder.encode_batch_delta(envelopes)
        self.codec_frames_sent += 1
        yield kernel.timeout(
            umiddle.envelope_fixed_s + umiddle.envelope_per_byte_s * frame.wire_size
        )
        yield from stream.send_inline(frame, frame.wire_size)
        self.batches_sent += 1
        return len(envelopes)

    def _trip_breaker(self, runtime_id: str, exc: Exception) -> None:
        """Open (or re-open) the delivery breaker for ``runtime_id`` after
        an exhausted retry budget, flushing the doomed spool."""
        if not self.runtime.health.enabled:
            return
        breaker = self._breakers.get(runtime_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self.runtime.kernel,
                key=f"peer:{self.runtime.runtime_id}->{runtime_id}",
                failure_threshold=1,
                reopen_base_s=10.0,
                reopen_max_s=60.0,
            )
            self._breakers[runtime_id] = breaker
        breaker.record_failure()
        outbox = self._peer_outboxes.get(runtime_id)
        flushed = len(outbox) if outbox else 0
        if flushed:
            outbox.clear()
            self.spool_flushed += flushed
            self.runtime.journal.append("spool-flush", {"peer": runtime_id})
            self.runtime.trace(
                "transport.spool-flush",
                f"to {runtime_id}: flushed {flushed} spooled envelope(s)",
                flushed=flushed,
            )
        self.runtime.journal.append(
            "breaker",
            {
                "peer": runtime_id,
                "state": "open",
                "times_opened": breaker.times_opened,
            },
        )
        self.runtime.trace(
            "transport.breaker-open",
            f"to {runtime_id}: retry budget exhausted ({exc})",
            spool_dropped=self.spool_dropped,
            spool_flushed=self.spool_flushed,
        )

    def peer_seen(self, runtime_id: str) -> None:
        """Directory evidence (an announcement) that the peer is back:
        make an open breaker probe-eligible immediately instead of waiting
        out the rest of its reopen backoff."""
        breaker = self._breakers.get(runtime_id)
        if breaker is not None:
            breaker.probe_now()

    def _open_peer_stream(self, runtime_id: str) -> Generator:
        info = self.runtime.directory.runtime_info(runtime_id)
        if info is None:
            raise TransportError(f"unknown peer runtime {runtime_id!r}")
        try:
            stream = yield StreamSocket.connect(
                self.runtime.node,
                self.runtime.calibration.network,
                info.address,
                info.transport_port,
            )
        except ConnectionRefused as exc:
            raise TransportError(f"peer {runtime_id} unreachable: {exc}") from exc
        self._peer_streams[runtime_id] = stream
        encoder = self._encoders.get(runtime_id)
        if encoder is not None:
            # Fresh stream, fresh symbol table: the peer's decoder for the
            # newly accepted stream starts empty, and inline definitions
            # re-teach it everything it needs in FIFO order.
            encoder.reset()
        return stream

    # -- ingress from peers ----------------------------------------------------------

    def _accept_loop(self) -> Generator:
        listener = self._listener
        while True:
            try:
                stream = yield listener.accept()
            except ConnectionClosed:
                return
            self._accepted_streams.append(stream)
            self.runtime.kernel.process(
                self._serve_peer(stream),
                name=f"transport-serve:{self.runtime.runtime_id}",
            )

    def _serve_peer(self, stream: StreamSocket) -> Generator:
        runtime = self.runtime
        kernel = runtime.kernel
        umiddle = runtime.calibration.umiddle
        # Per-stream symbol table, mirroring the sender's per-stream
        # encoder: definitions ride inline in FIFO order, so a reconnect
        # (new stream, fresh encoder) pairs with a fresh decoder here.
        decoder: Optional[WireDecoder] = None
        while True:
            try:
                envelope, _wire_size = yield stream.recv()
            except ConnectionClosed:
                if stream in self._accepted_streams:
                    self._accepted_streams.remove(stream)
                return
            binary = isinstance(envelope, BinaryFrame)
            if binary:
                if decoder is None:
                    decoder = WireDecoder()
                try:
                    envelope = decoder.decode_frame(envelope)
                except CodecError as exc:
                    runtime.trace(
                        "transport.protocol-error",
                        f"undecodable binary frame: {exc}",
                    )
                    continue
            kind = envelope.get("kind")
            if kind == "batch":
                # One unmarshal cost for the whole coalesced frame, charged
                # at its actual received bytes, then each inner envelope
                # is deduped and dispatched normally.
                yield kernel.timeout(
                    umiddle.envelope_fixed_s + umiddle.envelope_per_byte_s * _wire_size
                )
                for inner in envelope.get("envelopes", ()):
                    if not self._is_duplicate(inner):
                        self._dispatch_envelope(inner.get("kind"), inner)
                continue
            # A bare envelope is deduped before its unmarshal charge, and
            # a control envelope pays none.
            if self._is_duplicate(envelope):
                continue
            if kind == "message":
                size = _wire_size if binary else envelope["size"]
                yield kernel.timeout(
                    umiddle.envelope_fixed_s + umiddle.envelope_per_byte_s * size
                )
            self._dispatch_envelope(kind, envelope)

    def _dispatch_envelope(self, kind: Optional[str], envelope: dict) -> None:
        if kind == "message":
            self._deliver_envelope(envelope)
        elif kind == "connect":
            self._handle_connect_request(envelope)
        elif kind == "disconnect":
            path = self._paths_by_id.get(envelope["path_id"])
            if path is not None:
                path.close()
        elif kind == "saga-invoke":
            self.runtime.sagas.handle_invoke(envelope)
        elif kind == "saga-result":
            self.runtime.sagas.handle_result(envelope)
        else:
            self.runtime.trace(
                "transport.protocol-error", f"unknown envelope kind {kind!r}"
            )

    def _is_duplicate(self, envelope: dict) -> bool:
        """Receiver-side exactly-once window: True, counted and traced,
        when the envelope's (origin, stream, seq) stamp is at or below its
        stream's high-water mark.  Unstamped envelopes (saga traffic,
        whose journaled reply cache owns idempotency) always pass.

        Per-peer delivery is FIFO over one TCP stream and post-recovery
        respools replay in spool order, so a high-water mark per
        (origin, stream) suffices: any sequence at or below it has already
        been delivered (a retry after a lost TCP ack, or a respooled
        envelope the receiver actually got before the sender crashed).
        The window itself is in-memory -- a receiver that cold-restarts
        forgets it, the documented at-most-once corner of the model.
        """
        origin = envelope.get("origin")
        stream = envelope.get("stream")
        seq = envelope.get("seq")
        if origin is None or stream is None or not isinstance(seq, int):
            return False
        key = (origin, stream)
        high_water = self._dedup.get(key)
        if high_water is not None:
            self._dedup.move_to_end(key)
            if seq <= high_water:
                self.duplicates_suppressed += 1
                if self.runtime.tracing:
                    self.runtime.trace(
                        "transport.duplicate",
                        f"from {origin} stream {stream}: seq {seq} <= "
                        f"{high_water}, suppressed",
                        seq=seq,
                        high_water=high_water,
                    )
                return True
        self._dedup[key] = seq
        if high_water is None and len(self._dedup) > self.DEDUP_WINDOW:
            self._dedup.popitem(last=False)
        return False

    def _deliver_envelope(self, envelope: dict) -> None:
        ref = PortRef.parse(envelope["dst"])
        port = self.runtime.find_input_port(ref)
        if port is None:
            self.undeliverable += 1
            self.runtime.trace(
                "transport.undeliverable", f"no local input port {envelope['dst']}"
            )
            return
        message = UMessage(
            mime=envelope["mime"],
            payload=envelope["payload"],
            size=envelope["size"],
            source=envelope.get("source"),
            headers=dict(envelope.get("headers", {})),
        )
        result = port.deliver(message)
        if hasattr(result, "send") and hasattr(result, "throw"):
            # Run the handler as its own process: peer streams must not be
            # blocked by one slow native device.
            self.runtime.kernel.process(
                result, name=f"remote-deliver:{envelope['dst']}"
            )

    def _handle_connect_request(self, envelope: dict) -> None:
        src_ref = PortRef.parse(envelope["src"])
        dst_ref = PortRef.parse(envelope["dst"])
        try:
            src = self.runtime.local_output_port(src_ref)
        except TransportError:
            self.runtime.trace(
                "transport.protocol-error",
                f"connect request for unknown local port {src_ref}",
            )
            return
        dst: Union[DigitalInputPort, PortRef] = dst_ref
        if dst_ref.runtime_id == self.runtime.runtime_id:
            try:
                dst = self.runtime.local_input_port(dst_ref)
            except TransportError:
                return
        path = MessagePath(self, src, dst, path_id=envelope["path_id"])
        self._register_path(path)
