"""The uMiddle runtime: one intermediary node of the infrastructure.

A :class:`UMiddleRuntime` lives on a simulated network node and hosts the
directory module, the transport module, any number of platform mappers and
their translators, plus native uMiddle services (translators written
directly against uMiddle).  Multiple runtimes on a network federate through
their directory modules and exchange messages through their transport
modules, forming the common intermediary semantic space (Section 3.6's
room/house/campus deployments).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from repro.calibration import Calibration, DEFAULT
from repro.core.binding import DynamicBinding, connect_saga as _connect_saga
from repro.core.directory import DIRECTORY_PORT, Directory
from repro.core.errors import TransportError, UMiddleError
from repro.core.health import HealthMonitor, HealthState, Supervisor
from repro.core.journal import Journal, durable_media
from repro.core.ports import DigitalInputPort, DigitalOutputPort
from repro.core.profile import PortRef, TranslatorProfile
from repro.core.qos import QosPolicy
from repro.core.query import Query
from repro.core.saga import Saga, SagaManager
from repro.core.shard import DEFAULT_SHARD_COUNT, ShardRouter
from repro.core.translator import Translator
from repro.core.transport import MessagePath, RemotePathHandle, Transport
from repro.simnet.kernel import Kernel
from repro.simnet.net import Node

__all__ = ["UMiddleRuntime", "TRANSPORT_PORT"]

TRANSPORT_PORT = 7700

_runtime_counter = itertools.count(1)


class UMiddleRuntime:
    """One uMiddle intermediary node.

    Construction wires the modules together; :meth:`start` (called
    automatically unless ``auto_start=False``) begins the directory's
    announcement processes and the transport server.
    """

    def __init__(
        self,
        node: Node,
        name: Optional[str] = None,
        calibration: Calibration = DEFAULT,
        transport_port: int = TRANSPORT_PORT,
        directory_port: int = DIRECTORY_PORT,
        auto_start: bool = True,
        health_enabled: bool = True,
        journal_enabled: bool = True,
        fsync_interval: float = 0.0,
        batching_enabled: bool = False,
        sharding_enabled: bool = False,
        shard_count: int = DEFAULT_SHARD_COUNT,
        replication_factor: int = 1,
        codec_enabled: bool = False,
        compression_enabled: bool = False,
    ):
        self.node = node
        self.kernel: Kernel = node.network.kernel
        self.network = node.network
        self.calibration = calibration
        self.runtime_id = name or f"umiddle-{next(_runtime_counter)}-{node.name}"
        #: The scale data plane, one switch under three keywords
        #: (``batching_enabled``, ``codec_enabled`` or
        #: ``compression_enabled``): per-peer senders coalesce envelopes
        #: into pipelined, load-adaptive batch frames with intra-batch
        #: delta headers; batch frames and gossip bodies use the interned
        #: varint encoding from :mod:`repro.core.codec` instead of
        #: canonical JSON, and bulk transfers (full-state pushes, shard
        #: slice syncs) are zlib-compressed.  The sender's own flags pick
        #: the wire form -- every receiver decodes every frame kind, so
        #: there is no per-peer negotiation.  Off by default: the
        #: stop-and-wait JSON paths reproduce the paper's wire bytes
        #: exactly.  The journal is the same on both planes (see
        #: :mod:`repro.core.journal`).  Must be set before the directory
        #: and transport constructors below, which read it.
        self.data_plane_enabled = bool(
            batching_enabled or codec_enabled or compression_enabled
        )
        # The write-ahead journal must exist before the directory and
        # transport: both append records from their first state change.
        # The durable media lives on the network, so a journal constructed
        # for a runtime_id that crashed before continues its LSN chain.
        self.journal = Journal(
            self,
            durable_media(node.network),
            enabled=journal_enabled,
            fsync_interval=fsync_interval,
        )
        # Health machinery must exist before the directory and transport:
        # both consult it from their constructors onward.
        self.health = HealthMonitor(
            self.kernel,
            enabled=health_enabled,
            on_local_change=self._on_local_health_changed,
            on_peer_change=self._on_peer_health_changed,
        )
        self.supervisor = Supervisor(self)
        #: Sharded directory: the namespace is rendezvous-partitioned over
        #: the federation instead of fully replicated on every node.  Off
        #: by default -- the flat replica reproduces the pre-sharding
        #: directory byte for byte.  All runtimes of one federation must
        #: agree on the flag and on ``shard_count``.
        #: ``replication_factor`` > 1 additionally places each virtual
        #: shard on the top-R ranked owners: rank 0 stays the
        #: authoritative primary, ranks 1..R-1 hold passive replica
        #: slices, written only by the shard's owner in the replica's
        #: membership view, serving degraded reads and warm handoff
        #: ingest (:mod:`repro.core.replica`).  The default (1)
        #: reproduces the single-homed sharded directory byte for byte.
        self.shards = ShardRouter(
            self,
            enabled=sharding_enabled,
            shard_count=shard_count,
            replication_factor=replication_factor,
        )
        self.directory = Directory(self, port=directory_port)
        self.transport = Transport(self, port=transport_port)
        #: Journaled saga coordinator/participant (:mod:`repro.core.saga`).
        self.sagas = SagaManager(self)
        self.mappers: List = []
        self.translators: Dict[str, Translator] = {}
        self._bindings: List[DynamicBinding] = []
        self.crashed = False
        #: True only between a ``crash(lose_state=True)`` that really
        #: discarded memory and the :meth:`recover` that rebuilds it;
        #: :meth:`recover` after a *warm* crash must not replay the journal
        #: on top of surviving in-memory state.
        self._cold_crashed = False
        if auto_start:
            self.start()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.transport.start()
        self.directory.start()
        self.shards.start()

    def shutdown(self) -> None:
        """Stop mappers, unregister translators, close sockets."""
        for mapper in list(self.mappers):
            mapper.stop()
        for translator in list(self.translators.values()):
            self.unregister_translator(translator)
        self.shards.deactivate()
        self.transport.stop()
        self.directory.stop()

    def crash(self, lose_state: bool = False) -> None:
        """Fail abruptly: sockets vanish without goodbyes, every message
        path and discovery process dies, and soft state learned from peers
        is lost.  Local translators survive (they model configuration that
        a restarted process re-establishes).  Peers notice only through
        directory lease expiry or through their transport retry budget.

        ``lose_state=False`` (the warm crash of PR 1) keeps the in-memory
        directory, spool and bindings for :meth:`restart`.
        ``lose_state=True`` is a *cold* crash: everything in memory dies --
        directory entries (even local ones), standing bindings, the spool,
        breakers and the dedup window -- and only the write-ahead journal
        survives, for :meth:`recover` to rebuild from.  Un-fsynced
        group-commit records die with the process either way.  With the
        journal disabled a cold crash degrades to a warm one: there is
        nothing on disk to rebuild from, so the runtime keeps today's
        relearn-from-gossip semantics."""
        if self.crashed:
            return
        self.crashed = True
        # Nothing that happens while dead (path teardown below, or a late
        # timer) may reach the journal; recovery must see the pre-crash log.
        self.journal.lose_pending()
        self.journal.muted = True
        for mapper in list(self.mappers):
            mapper.suspend()
        self.shards.deactivate()
        self.transport.stop(graceful=False)
        self.directory.stop()
        self.directory.forget_remote()
        self.health.forget_peers()
        self.sagas.deactivate()
        if lose_state and self.journal.enabled:
            self._cold_crashed = True
            for binding in list(self._bindings):
                binding.close()
            self._bindings.clear()
            self.directory.discard_local()
            self.transport.discard_state()
            self.shards.discard_state()
            self.sagas.discard_state()
            self.trace("runtime.crash", "crashed (in-memory state lost)")
        else:
            self.trace("runtime.crash", "crashed")

    def restart(self) -> None:
        """Warm restart from :meth:`crash`: reopen the transport and
        directory (which immediately re-advertises the full local state
        and asks every live peer to announce itself, so the federation is
        re-learned within one round trip), resume platform discovery, and
        re-evaluate standing query bindings.  The shard router keeps the
        membership view it had before the crash and rebalances once, when
        its peers have answered.  Application paths torn down by the crash
        are recorded as closed in the journal -- a warm restart does not
        resurrect them, so a later cold restart must not either."""
        if not self.crashed:
            return
        self.crashed = False
        self._cold_crashed = False
        self.journal.muted = False
        for path_id in self.transport.drain_orphaned_paths():
            self.journal.append("path-close", {"path_id": path_id})
        self._rejoin()
        for mapper in list(self.mappers):
            mapper.resume()
        for binding in list(self._bindings):
            binding.refresh()
        # Unfinished sagas survive a warm crash in memory; respawn their
        # drivers (a re-driven step is deduped by the participant cache).
        self.sagas.resume()
        self.trace("runtime.restart", "restarted")

    def recover(self) -> None:
        """Cold restart: rebuild the runtime purely from the write-ahead
        journal after a ``crash(lose_state=True)``.

        Replays the log to its last checksum-consistent prefix (physically
        truncating any corrupt tail), then in order: re-admits local
        directory entries with their journaled health, restores transport
        sequence counters, the unacked spool and half-open breakers,
        restarts the modules, re-opens standing query bindings under their
        journaled ids, and recreates application paths under their
        original ids.  The shard router routes on the membership view
        journaled with its last ``shard-own`` record (member ids only)
        from the moment this returns.  Peer addresses and leases are never
        journaled: every live peer is asked to announce itself at once,
        and the router rebalances once when they have.  Anything past the
        consistent prefix is re-learned through the normal gossip pull.
        Recovery ends with a journal checkpoint, so the durable view
        matches the rebuilt runtime exactly (skipped opaque spool markers
        included) and a second replay starts from one compact record.
        With the journal disabled -- or after a *warm* crash, whose
        in-memory state survived and must not have the log replayed on
        top of it -- this degrades to :meth:`restart`."""
        if not self.crashed:
            return
        if not self.journal.enabled or not self._cold_crashed:
            self.restart()
            return
        self._cold_crashed = False
        self.journal.muted = True  # replay must not re-log what it reads
        state = self.journal.replay()
        if state.truncated:
            self.trace(
                "journal.truncated",
                f"discarded {state.discarded_bytes} corrupt tail byte(s); "
                "anything past the consistent prefix is re-learned via gossip",
                discarded=state.discarded_bytes,
                applied=state.applied_records,
            )
        self.crashed = False
        self.transport.drain_orphaned_paths()  # superseded by the replay
        for data in state.registered.values():
            self.directory.recover_local(TranslatorProfile.from_dict(data))
        self.transport.recover(state)
        self.shards.recover(state)
        self.sagas.recover(state)
        self.journal.muted = False
        self._rejoin()
        for mapper in list(self.mappers):
            mapper.resume()
        for binding_id, data in state.bindings.items():
            port = self._recover_port(data["port"])
            if port is None:
                continue
            binding = DynamicBinding(
                self,
                port,
                Query.from_dict(data["query"]),
                failover=bool(data.get("failover", False)),
                binding_id=binding_id,
            )
            self._bindings.append(binding)
        for path_id, data in state.paths.items():
            qos = QosPolicy.from_dict(data["qos"]) if data.get("qos") else None
            self.transport.recover_path(
                path_id,
                PortRef.parse(data["src"]),
                PortRef.parse(data["dst"]),
                qos,
            )
        # Seal recovery with a checkpoint: the durable view now equals the
        # rebuilt runtime (opaque spool markers the respool skipped are
        # gone from it), and the replayed prefix collapses to one record.
        self.journal.checkpoint()
        # Re-drive unfinished sagas only after the checkpoint sealed the
        # recovered view: their fresh records land in the new epoch.
        self.sagas.resume()
        self.trace(
            "runtime.recover",
            f"cold restart from {state.applied_records} journal record(s): "
            f"{len(state.registered)} translator(s), "
            f"{len(state.bindings)} binding(s), {len(state.paths)} path(s), "
            f"{sum(len(v) for v in state.spool.values())} spooled envelope(s), "
            f"{len(state.shard_entries)} shard-stored profile(s), "
            f"{len(state.sagas)} unfinished saga(s)",
        )

    def _rejoin(self) -> None:
        """Reopen the modules after a crash and ask every live peer to
        announce itself (the first start sends no such request)."""
        self.start()
        self.directory.request_full_state()

    def _recover_port(
        self, ref_str: str
    ) -> Optional[Union[DigitalOutputPort, DigitalInputPort]]:
        ref = PortRef.parse(ref_str)
        try:
            return self.local_output_port(ref)
        except TransportError:
            pass
        try:
            return self.local_input_port(ref)
        except TransportError:
            return None

    def trace(self, category: str, message: str, **details) -> None:
        self.network.trace.emit(category, f"[{self.runtime_id}] {message}", **details)

    @property
    def tracing(self) -> bool:
        """Cheap guard for hot paths: skip building trace f-strings (and
        the :meth:`trace` call) entirely when the recorder is disabled."""
        return self.network.trace.enabled

    # -- health --------------------------------------------------------------

    def _on_local_health_changed(
        self, translator_id: str, state: HealthState, reason: str
    ) -> None:
        self.trace(
            "health.translator", f"{translator_id} -> {state.value} ({reason})"
        )
        self.directory.update_local_health(translator_id, state.value)
        self.journal.append(
            "health", {"translator_id": translator_id, "health": state.value}
        )
        self._reevaluate_failover()

    def _on_peer_health_changed(
        self, runtime_id: str, state: HealthState, reason: str
    ) -> None:
        self.trace("health.peer", f"{runtime_id} -> {state.value} ({reason})")
        self._reevaluate_failover()

    def _reevaluate_failover(self) -> None:
        for binding in list(self._bindings):
            if binding.failover:
                binding.reevaluate()

    # -- translators ---------------------------------------------------------------

    def register_translator(self, translator: Translator) -> Translator:
        """Admit a translator (native service or platform bridge) to the
        semantic space: attaches it, indexes its ports and advertises it."""
        if translator.translator_id in self.translators:
            raise UMiddleError(
                f"translator {translator.translator_id!r} already registered"
            )
        translator.attach(self)
        self.translators[translator.translator_id] = translator
        profile = translator.profile
        self.directory.register(profile)
        self.journal.append("register", {"profile": profile.to_dict()})
        return translator

    def unregister_translator(self, translator: Translator) -> None:
        if translator.translator_id not in self.translators:
            raise UMiddleError(
                f"translator {translator.translator_id!r} is not registered here"
            )
        self.transport.close_paths_of_translator(translator.translator_id)
        del self.translators[translator.translator_id]
        self.directory.unregister(translator.translator_id)
        self.journal.append(
            "unregister", {"translator_id": translator.translator_id}
        )
        translator.detach()

    def translator(self, translator_id: str) -> Translator:
        try:
            return self.translators[translator_id]
        except KeyError:
            raise UMiddleError(f"no local translator {translator_id!r}") from None

    # -- mappers ----------------------------------------------------------------------

    def add_mapper(self, mapper, start: bool = True):
        self.mappers.append(mapper)
        if start:
            mapper.start()
        return mapper

    # -- port resolution -----------------------------------------------------------------

    def _local_port(self, ref: PortRef):
        if ref.runtime_id != self.runtime_id:
            raise TransportError(f"{ref} is not on runtime {self.runtime_id!r}")
        translator = self.translators.get(ref.translator_id)
        if translator is None:
            raise TransportError(f"no local translator for {ref}")
        return translator.port(ref.port_name)

    def local_output_port(self, ref: PortRef) -> DigitalOutputPort:
        port = self._local_port(ref)
        if not isinstance(port, DigitalOutputPort):
            raise TransportError(f"{ref} is not a digital output port")
        return port

    def local_input_port(self, ref: PortRef) -> DigitalInputPort:
        port = self._local_port(ref)
        if not isinstance(port, DigitalInputPort):
            raise TransportError(f"{ref} is not a digital input port")
        return port

    def find_input_port(self, ref: PortRef) -> Optional[DigitalInputPort]:
        """Non-raising lookup used by the transport's ingress path."""
        try:
            return self.local_input_port(ref)
        except TransportError:
            return None

    # -- the application-facing API (Figures 6 and 7) -----------------------------------------

    def lookup(self, query: Query) -> List[TranslatorProfile]:
        """Figure 6-1: profiles of translators matching ``query``."""
        return self.directory.lookup(query)

    def add_directory_listener(self, listener) -> None:
        """Figure 6-2: register for map/unmap notifications."""
        self.directory.add_directory_listener(listener)

    def connect(
        self,
        src: Union[DigitalOutputPort, PortRef],
        dst: Union[DigitalInputPort, PortRef],
        qos: Optional[QosPolicy] = None,
    ) -> Union[MessagePath, RemotePathHandle]:
        """Figure 7-1: a concrete path between two specific ports.

        Local paths created through this application API are journaled and
        survive a cold restart; paths a :class:`DynamicBinding` creates are
        derived state (the journaled binding recreates them), and a
        :class:`RemotePathHandle`'s path is the owning peer's to journal.
        """
        path = self.transport.connect(src, dst, qos=qos)
        if isinstance(path, MessagePath):
            path.journaled = True
            self.journal.append(
                "path-open",
                {
                    "path_id": path.path_id,
                    "src": str(path.src_ref),
                    "dst": str(path.dst_ref),
                    "qos": qos.to_dict() if qos is not None else None,
                },
            )
        return path

    def connect_query(
        self,
        port: Union[DigitalOutputPort, DigitalInputPort],
        query: Query,
        failover: bool = False,
    ) -> DynamicBinding:
        """Figure 7-2: a dynamic message path bound by a query template.

        With ``failover=True`` the binding tracks only the single best
        (healthiest) matching translator and migrates as health changes.
        """
        binding = DynamicBinding(self, port, query, failover=failover)
        self._bindings.append(binding)
        self.journal.append(
            "binding-open",
            {
                "binding_id": binding.binding_id,
                "port": str(port.ref),
                "query": query.to_dict(),
                "failover": failover,
            },
        )
        return binding

    def connect_saga(
        self,
        actions,
        timeout_s: float = 5.0,
        max_attempts: int = 3,
    ) -> Saga:
        """Composite action with transactional semantics: a journaled saga.

        ``actions`` is an ordered list of ``(target, message)`` or
        ``(target, message, compensation)`` tuples (or ready-made
        :class:`~repro.core.saga.SagaStep` objects); each target is a
        :class:`~repro.core.query.Query` (healthy-first resolution with
        failover) or a pinned :class:`~repro.core.profile.PortRef`.  Either
        every step's effect applies, or every applied effect is
        compensated -- never half, across warm/cold crashes and owner
        failover.
        """
        return _connect_saga(
            self, actions, timeout_s=timeout_s, max_attempts=max_attempts
        )

    def _forget_binding(self, binding: DynamicBinding) -> None:
        if binding in self._bindings:
            self._bindings.remove(binding)

    def federate(self, peer: "UMiddleRuntime") -> None:
        """Explicitly join another runtime's federation (both directions)."""
        self.directory.federate(peer.node.address, peer.directory.port)
        peer.directory.federate(self.node.address, self.directory.port)
