"""The uMiddle directory module (Figure 6).

The directory handles the exchange of device advertisements among uMiddle
runtimes: each runtime advertises the profiles of its local translators,
learns the profiles hosted by its peers, and notifies registered
:class:`DirectoryListener` objects when translators appear or disappear --
the discovery mechanism that is independent of the native discovery
protocols used by particular devices (Section 3.2).

Gossip transport: UDP.  Runtimes on the same network segment find each
other via a well-known multicast group; runtimes on different segments are
federated explicitly with :meth:`Directory.federate`.

Discovery hot path (beyond the paper, for federation scale):

- **Inverted index.**  Every entry is indexed under its coarse (axis,
  value) keys -- platform, device type, role, and each port type expanded
  to all wildcard patterns it satisfies (see
  :meth:`TranslatorProfile.index_keys`).  :meth:`lookup` intersects the
  buckets for the query's keys and runs :meth:`Query.matches` only on the
  candidate set, instead of scanning every entry.
- **Standing-query subscriptions.**  :meth:`subscribe_query` registers a
  listener under one of its query's coarse keys, so added/removed events
  are routed only to subscribers whose key appears in the profile's key
  set -- O(affected) instead of O(listeners) per event.
- **Delta/digest gossip.**  Immediate incremental (versioned) updates on
  register/unregister; the periodic announcement is a constant-size
  heartbeat carrying a digest of the sender's full local state.  A
  receiver whose recorded digest matches skips all parsing; on mismatch
  (or a version gap in the delta stream) it requests a full state
  transfer.  Remote entries are soft state with a lease, refreshed by the
  owner runtime's heartbeats, so crashed runtimes age out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.codec import BinaryFrame, CodecError, decode_gossip, encode_gossip
from repro.core.errors import DirectoryError
from repro.core.profile import TranslatorProfile, same_except_health
from repro.core.query import Query
from repro.simnet.addresses import Address
from repro.simnet.sockets import ConnectionClosed, DatagramSocket

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import UMiddleRuntime

__all__ = ["DirectoryListener", "RuntimeInfo", "Directory"]

#: Well-known multicast group and port for runtime presence + advertisements.
DIRECTORY_GROUP = "umiddle-directory"
DIRECTORY_PORT = 7701

#: Period between announcements (heartbeats after the initial full state).
ANNOUNCE_INTERVAL = 5.0
#: Remote entries (and runtimes) older than this are expired.
LEASE = 3 * ANNOUNCE_INTERVAL
#: Period of the expiry sweep.
SWEEP_INTERVAL = 1.0

#: Wire size of a constant-size control datagram (heartbeat header,
#: version + digest, full-state request).
CONTROL_OVERHEAD = 144

_IndexKey = Tuple[str, str]


class DirectoryListener:
    """Receives notifications when translators are mapped or unmapped.

    Subclass and override, or use :meth:`from_callbacks`.
    """

    def translator_added(self, profile: TranslatorProfile) -> None:
        """A translator became visible in the semantic space."""

    def translator_removed(self, profile: TranslatorProfile) -> None:
        """A translator left the semantic space."""

    def translator_changed(
        self, profile: TranslatorProfile, previous: TranslatorProfile
    ) -> None:
        """A translator's advertised *health* changed in place.

        Identity, shape and attributes are unchanged (real profile changes
        fire removed + added instead), so most listeners can ignore this;
        failover bindings re-evaluate their target choice.
        """

    @classmethod
    def from_callbacks(
        cls,
        added: Optional[Callable[[TranslatorProfile], None]] = None,
        removed: Optional[Callable[[TranslatorProfile], None]] = None,
        changed: Optional[
            Callable[[TranslatorProfile, TranslatorProfile], None]
        ] = None,
    ) -> "DirectoryListener":
        listener = cls()
        if added is not None:
            listener.translator_added = added  # type: ignore[method-assign]
        if removed is not None:
            listener.translator_removed = removed  # type: ignore[method-assign]
        if changed is not None:
            listener.translator_changed = changed  # type: ignore[method-assign]
        return listener


@dataclass
class RuntimeInfo:
    """What we know about one uMiddle runtime in the federation."""

    runtime_id: str
    address: Address
    transport_port: int
    directory_port: int
    last_seen: float


@dataclass
class _Entry:
    profile: TranslatorProfile
    local: bool
    last_seen: float
    seq: int = 0


@dataclass
class _PeerState:
    """Last-applied gossip state for one peer runtime (digest bookkeeping)."""

    version: int
    digest: Optional[str]


class _QuerySubscription:
    """One standing query routed through the subscription index."""

    __slots__ = ("query", "listener", "route_key", "seq")

    def __init__(
        self,
        query: Query,
        listener: DirectoryListener,
        route_key: Optional[_IndexKey],
        seq: int,
    ):
        self.query = query
        self.listener = listener
        self.route_key = route_key
        self.seq = seq


class Directory:
    """One runtime's directory module."""

    def __init__(self, runtime: "UMiddleRuntime", port: int = DIRECTORY_PORT):
        self.runtime = runtime
        self.port = port
        self._entries: Dict[str, _Entry] = {}
        self._entry_seq = 0
        #: entries whose profile carries a non-healthy state; lookup's fast
        #: path skips health ordering entirely while this is zero (and no
        #: peer overlay is active).
        self._unhealthy_entries = 0
        #: inverted discovery index: coarse key -> translator ids.
        self._index: Dict[_IndexKey, Set[str]] = {}
        #: remote translator ids grouped by owning runtime.
        self._by_runtime: Dict[str, Set[str]] = {}
        self._listeners: List[DirectoryListener] = []
        #: standing-query subscriptions, bucketed by one routing key each
        #: (None = not coarsely indexable, receives every event).
        self._subscriptions: Dict[Optional[_IndexKey], List[_QuerySubscription]] = {}
        self._subscribed: Dict[DirectoryListener, _QuerySubscription] = {}
        self._sub_seq = 0
        self._runtimes: Dict[str, RuntimeInfo] = {}
        self._peers: Dict[Address, int] = {}
        #: addresses added via explicit federate(); never auto-expired.
        self._federated: Set[Address] = set()
        self._peer_states: Dict[str, _PeerState] = {}
        self._version = 0
        self._digest_cache: Optional[str] = None
        self._socket: Optional[DatagramSocket] = None
        self.announcements_sent = 0
        self.announcements_received = 0
        self.full_requests_sent = 0
        self.full_requests_received = 0
        self.codec_frames_sent = 0
        self.started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._socket = DatagramSocket(
            self.runtime.node, self.runtime.calibration.network, port=self.port
        )
        self._socket.join(DIRECTORY_GROUP, self.port)
        kernel = self.runtime.kernel
        kernel.process(self._receiver(), name=f"dir-recv:{self.runtime.runtime_id}")
        kernel.process(self._announcer(), name=f"dir-announce:{self.runtime.runtime_id}")
        kernel.process(self._sweeper(), name=f"dir-sweep:{self.runtime.runtime_id}")

    def stop(self) -> None:
        """Stop announcing and listening; :meth:`start` may be called again
        (a restarted runtime re-advertises its full local state at once)."""
        self.started = False
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    # -- Figure 6 API ------------------------------------------------------------

    def lookup(self, query: Query) -> List[TranslatorProfile]:
        """Profiles of translators that match ``query`` (Figure 6-1).

        Sub-linear for any query with at least one coarse criterion: the
        index buckets for the query's keys are intersected and
        :meth:`Query.matches` runs only on the candidates.  Queries with no
        indexable criterion (empty, or name/attributes only) fall back to
        the linear scan.

        With sharding active the flat replica does not exist; the lookup
        is routed to the owning shard(s) by the
        :class:`~repro.core.shard.ShardRouter` (which overlays this
        directory's local view on the routed result).
        """
        router = self.runtime.shards
        if router.enabled and router.active:
            return router.lookup(query)
        return self.lookup_local(query)

    def lookup_local(self, query: Query) -> List[TranslatorProfile]:
        """The indexed lookup over this directory's own entry table only
        (local translators plus whatever gossip/interest deltas fed it) --
        the non-routed path, and the local overlay under sharding."""
        keys = query.index_keys()
        if not keys:
            return self.lookup_linear(query)
        buckets = []
        for key in keys:
            bucket = self._index.get(key)
            if not bucket:
                return []
            buckets.append(bucket)
        buckets.sort(key=len)
        candidates = buckets[0]
        for other in buckets[1:]:
            candidates = candidates & other
            if not candidates:
                return []
        matched = [
            entry
            for entry in (self._entries[tid] for tid in candidates)
            if query.matches(entry.profile)
        ]
        return self._order_matches(matched, query)

    def lookup_linear(self, query: Query) -> List[TranslatorProfile]:
        """Reference O(entries) scan -- the pre-index semantics, kept as
        the oracle for equivalence tests and the benchmark baseline."""
        matched = [
            entry
            for entry in self._entries.values()
            if query.matches(entry.profile)
        ]
        return self._order_matches(matched, query)

    def _order_matches(
        self, matched: List[_Entry], query: Query
    ) -> List[TranslatorProfile]:
        """Health-aware result ordering, shared by both lookup paths.

        Fast path: with health disabled, or when every entry is healthy
        and no peer overlay is active, this is exactly the pre-health
        registration-order sort -- no per-entry health work at all, which
        is what keeps indexed lookup within its PR 2 latency budget.
        Otherwise results are ordered healthy-first (then registration
        order) and quarantined translators are excluded unless the query
        opts in with ``include_quarantined``.
        """
        monitor = self.runtime.health
        if not monitor.enabled or (
            self._unhealthy_entries == 0 and not monitor.overlay_active
        ):
            matched.sort(key=lambda entry: entry.seq)
            return [entry.profile for entry in matched]
        decorated = []
        for entry in matched:
            rank = monitor.effective_rank(entry.profile)
            if rank >= 2 and not query.include_quarantined:
                continue
            decorated.append((rank, entry.seq, entry.profile))
        decorated.sort(key=lambda item: (item[0], item[1]))
        return [profile for _rank, _seq, profile in decorated]

    def add_directory_listener(self, listener: DirectoryListener) -> None:
        """Register for every map/unmap notification (Figure 6-2)."""
        self._listeners.append(listener)

    def remove_directory_listener(self, listener: DirectoryListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def subscribe_query(self, query: Query, listener: DirectoryListener) -> None:
        """Register a standing query: ``listener`` receives added/removed
        events only for profiles that carry one of the query's coarse keys
        (a superset of the exact matches -- callers still run
        :meth:`Query.matches`)."""
        if listener in self._subscribed:
            return
        keys = query.index_keys()
        route_key = keys[0] if keys else None
        self._sub_seq += 1
        subscription = _QuerySubscription(query, listener, route_key, self._sub_seq)
        self._subscribed[listener] = subscription
        self._subscriptions.setdefault(route_key, []).append(subscription)
        # Under sharding, events for this key originate at the key's owner:
        # register our interest there so its deltas reach this directory.
        self.runtime.shards.subscribe_routed(route_key)

    def unsubscribe_query(self, listener: DirectoryListener) -> None:
        subscription = self._subscribed.pop(listener, None)
        if subscription is None:
            return
        bucket = self._subscriptions.get(subscription.route_key)
        if bucket is not None:
            bucket.remove(subscription)
            if not bucket:
                del self._subscriptions[subscription.route_key]
        self.runtime.shards.unsubscribe_routed(subscription.route_key)

    # -- local registration ---------------------------------------------------------

    @property
    def _sharded(self) -> bool:
        """True while the runtime's shard router is routing this directory:
        profile gossip is suppressed (placement and interest deltas carry
        the state instead) and lookups are routed."""
        router = self.runtime.shards
        return router.enabled and router.active

    def register(self, profile: TranslatorProfile) -> None:
        if profile.translator_id in self._entries:
            raise DirectoryError(f"duplicate translator id {profile.translator_id!r}")
        self._store_entry(profile, local=True, now=self.runtime.kernel.now)
        self._bump_version()
        self._notify_added(profile)
        if self._sharded:
            self.runtime.shards.local_registered(profile)
        elif self.started:
            self._announce(profiles=[profile])

    def unregister(self, translator_id: str) -> None:
        entry = self._drop_entry(translator_id)
        if entry is None:
            raise DirectoryError(f"unknown translator id {translator_id!r}")
        self._bump_version()
        self._notify_removed(entry.profile)
        if self._sharded:
            self.runtime.shards.local_unregistered(entry.profile)
        elif self.started:
            self._announce(removed=[translator_id])

    def update_local_health(self, translator_id: str, health: str) -> None:
        """Re-advertise a local translator with a new health state.

        The entry is swapped in place (health is not indexed), listeners
        and standing queries get a ``changed`` notification, and the
        change is gossiped as a delta carrying the profile in the
        announcement's ``changed`` list -- receivers swap in place too
        instead of tearing the entry down and re-adding it.
        """
        entry = self._entries.get(translator_id)
        if entry is None or not entry.local:
            return
        old = entry.profile
        if old.health == health:
            return
        new = old.with_health(health)
        self._swap_profile(entry, new)
        self._bump_version()
        self._notify_changed(new, old)
        if self._sharded:
            # Re-place with the new health: owners swap in place and stream
            # the change to interested subscribers.
            self.runtime.shards.local_registered(new)
        elif self.started:
            self._announce(changed=[new])

    # -- cold restart (journal recovery) -----------------------------------------------

    def discard_local(self) -> None:
        """``crash(lose_state=True)`` semantics: even the entries for local
        translators die with the process (they are in-memory state, unlike
        the translator objects, which model on-disk configuration).
        Silent -- in-memory listeners die with the same crash."""
        for translator_id, entry in list(self._entries.items()):
            if entry.local:
                self._drop_entry(translator_id)
        self._bump_version()

    def recover_local(self, profile: TranslatorProfile) -> None:
        """Re-admit one journaled local translator during cold recovery.

        Silent: no listener notifications (standing queries are re-opened
        *after* the directory is rebuilt and do their own initial lookup)
        and no per-entry announcements (the post-recovery
        :meth:`start` announces the full local state once)."""
        if profile.translator_id in self._entries:
            return
        self._store_entry(profile, local=True, now=self.runtime.kernel.now)
        self._bump_version()

    # -- queries used by other modules ------------------------------------------------

    def profiles(self) -> List[TranslatorProfile]:
        return [entry.profile for entry in self._entries.values()]

    def profile_of(self, translator_id: str) -> Optional[TranslatorProfile]:
        entry = self._entries.get(translator_id)
        return entry.profile if entry else None

    def platform_of(self, translator_id: str) -> Optional[str]:
        profile = self.profile_of(translator_id)
        return profile.platform if profile else None

    def runtime_info(self, runtime_id: str) -> Optional[RuntimeInfo]:
        if runtime_id == self.runtime.runtime_id:
            return RuntimeInfo(
                runtime_id=runtime_id,
                address=self.runtime.node.address,
                transport_port=self.runtime.transport.port,
                directory_port=self.port,
                last_seen=self.runtime.kernel.now,
            )
        return self._runtimes.get(runtime_id)

    def known_runtimes(self) -> List[RuntimeInfo]:
        return list(self._runtimes.values())

    # -- entry + index maintenance ------------------------------------------------------

    def _store_entry(
        self, profile: TranslatorProfile, local: bool, now: float
    ) -> _Entry:
        self._entry_seq += 1
        entry = _Entry(profile, local=local, last_seen=now, seq=self._entry_seq)
        self._entries[profile.translator_id] = entry
        if profile.health != "healthy":
            self._unhealthy_entries += 1
        for key in profile.index_keys():
            self._index.setdefault(key, set()).add(profile.translator_id)
        if not local:
            self._by_runtime.setdefault(profile.runtime_id, set()).add(
                profile.translator_id
            )
        return entry

    def _store_entries_bulk(
        self, profiles: List[TranslatorProfile], now: float
    ) -> None:
        """Admit a batch of brand-new remote entries with index inserts
        amortized per key: ids accumulate per coarse key across the whole
        batch and land in each bucket with one ``set.update`` -- the
        full-state-apply path's replacement for per-profile
        :meth:`_store_entry` calls."""
        per_key: Dict[_IndexKey, List[str]] = {}
        for profile in profiles:
            self._entry_seq += 1
            self._entries[profile.translator_id] = _Entry(
                profile, local=False, last_seen=now, seq=self._entry_seq
            )
            if profile.health != "healthy":
                self._unhealthy_entries += 1
            for key in profile.index_keys():
                per_key.setdefault(key, []).append(profile.translator_id)
            self._by_runtime.setdefault(profile.runtime_id, set()).add(
                profile.translator_id
            )
        for key, ids in per_key.items():
            bucket = self._index.get(key)
            if bucket is None:
                self._index[key] = set(ids)
            else:
                bucket.update(ids)

    def _drop_entry(self, translator_id: str) -> Optional[_Entry]:
        entry = self._entries.pop(translator_id, None)
        if entry is None:
            return None
        if entry.profile.health != "healthy":
            self._unhealthy_entries -= 1
        for key in entry.profile.index_keys():
            bucket = self._index.get(key)
            if bucket is not None:
                bucket.discard(translator_id)
                if not bucket:
                    del self._index[key]
        if not entry.local:
            owned = self._by_runtime.get(entry.profile.runtime_id)
            if owned is not None:
                owned.discard(translator_id)
                if not owned:
                    del self._by_runtime[entry.profile.runtime_id]
        return entry

    def check_index_consistency(self) -> Dict[str, dict]:
        """Verify the inverted index, per-runtime grouping and unhealthy
        counter exactly mirror ``_entries`` (used by tests after churn).

        Raises :class:`DirectoryError` on divergence -- a real exception,
        not ``assert``, so the invariant survives ``python -O``.  The
        raised error carries a structured ``diff`` attribute (also the
        return value when consistent: an empty dict) mapping each diverged
        aspect to the exact keys and ids involved::

            {"index": {(axis, value): {"missing": [...], "spurious": [...]}},
             "by_runtime": {runtime_id: {"missing": [...], "spurious": [...]}},
             "unhealthy": {"expected": n, "recorded": m}}
        """
        expected_index: Dict[_IndexKey, Set[str]] = {}
        expected_by_runtime: Dict[str, Set[str]] = {}
        for translator_id, entry in self._entries.items():
            for key in entry.profile.index_keys():
                expected_index.setdefault(key, set()).add(translator_id)
            if not entry.local:
                expected_by_runtime.setdefault(entry.profile.runtime_id, set()).add(
                    translator_id
                )
        diff: Dict[str, dict] = {}
        if expected_index != self._index:
            diff["index"] = self._divergent_keys(expected_index, self._index)
        if expected_by_runtime != self._by_runtime:
            diff["by_runtime"] = self._divergent_keys(
                expected_by_runtime, self._by_runtime
            )
        unhealthy = sum(
            1
            for entry in self._entries.values()
            if entry.profile.health != "healthy"
        )
        if unhealthy != self._unhealthy_entries:
            diff["unhealthy"] = {
                "expected": unhealthy,
                "recorded": self._unhealthy_entries,
            }
        if diff:
            summary = ", ".join(
                f"{aspect}: {len(detail)} divergent key(s)"
                if aspect != "unhealthy"
                else f"unhealthy counter {detail['recorded']} != {detail['expected']}"
                for aspect, detail in diff.items()
            )
            error = DirectoryError(
                f"directory index diverged from entries ({summary})"
            )
            error.diff = diff
            raise error
        return diff

    @staticmethod
    def _divergent_keys(expected: Dict, actual: Dict) -> Dict:
        """Per-key missing/spurious ids for two key->set-of-ids mappings,
        restricted to the keys that actually differ."""
        divergent = {}
        for key in set(expected) | set(actual):
            want = expected.get(key, set())
            have = actual.get(key, set())
            if want != have:
                divergent[key] = {
                    "missing": sorted(want - have),
                    "spurious": sorted(have - want),
                }
        return divergent

    def _swap_profile(self, entry: _Entry, profile: TranslatorProfile) -> None:
        """Replace an entry's profile in place for a health-only change.

        ``same_except_health`` profiles share identical index keys and
        runtime id, so neither the inverted index nor the per-runtime
        grouping moves; only the unhealthy counter is adjusted.  The
        entry's seq is preserved -- health changes must not reshuffle
        registration order (recovered translators win back their place).
        """
        was = entry.profile.health != "healthy"
        now_unhealthy = profile.health != "healthy"
        self._unhealthy_entries += int(now_unhealthy) - int(was)
        entry.profile = profile

    # -- failure handling --------------------------------------------------------------

    def expire_runtime(self, runtime_id: str, reason: str = "unreachable") -> None:
        """Crash-triggered lease reaping: drop a peer and its translators
        *now* instead of waiting for the lease sweeper.

        Called by the transport module once a peer is conclusively
        unreachable (its delivery retry budget is exhausted), so standing
        bindings re-evaluate promptly rather than after a full lease.
        """
        if runtime_id == self.runtime.runtime_id:
            return
        info = self._runtimes.pop(runtime_id, None)
        self._forget_peer_state(runtime_id, info)
        reaped = 0
        for translator_id in list(self._by_runtime.get(runtime_id, ())):
            entry = self._drop_entry(translator_id)
            if entry is not None:
                self._notify_removed(entry.profile)
                reaped += 1
        if info is not None or reaped:
            self.runtime.trace(
                "directory.runtime-expired",
                f"{runtime_id}: {reason} ({reaped} entries reaped)",
                reaped=reaped,
            )
            self.runtime.health.note_runtime_expired(runtime_id)
            self.runtime.shards.origin_lost(runtime_id)
            self.runtime.shards.membership_changed()

    def forget_remote(self) -> None:
        """Drop every soft-state entry learned from peers (crash semantics:
        a crashed runtime loses its in-memory view of the federation and
        re-learns it from gossip after restart).  Listeners are notified so
        standing bindings unbind their now-unknown remote endpoints.
        Explicitly federated peer addresses survive -- they are
        configuration, like local translators."""
        for translator_id, entry in list(self._entries.items()):
            if not entry.local:
                self._drop_entry(translator_id)
                self._notify_removed(entry.profile)
        self._runtimes.clear()
        self._peer_states.clear()
        self._peers = {
            address: port
            for address, port in self._peers.items()
            if address in self._federated
        }

    def _forget_peer_state(
        self, runtime_id: str, info: Optional[RuntimeInfo]
    ) -> None:
        """Drop the gossip bookkeeping for a dead peer: its digest record
        (so a later heartbeat cannot false-match against purged state) and
        its learned unicast address (so announcements stop chasing it)."""
        self._peer_states.pop(runtime_id, None)
        if info is not None and info.address not in self._federated:
            self._peers.pop(info.address, None)

    # -- federation ------------------------------------------------------------------------

    def federate(self, peer: Address, peer_port: int = DIRECTORY_PORT) -> None:
        """Add an explicit unicast peer (for cross-segment federations) and
        push it our full state immediately."""
        self._peers[peer] = peer_port
        self._federated.add(peer)
        if self.started:
            self._announce(full=True, to=[(peer, peer_port)])

    # -- notification helpers -----------------------------------------------------------------

    def _subscribers_for(
        self, profile: TranslatorProfile
    ) -> List[_QuerySubscription]:
        if not self._subscriptions:
            return []
        targets = list(self._subscriptions.get(None, ()))
        for key in profile.index_keys():
            bucket = self._subscriptions.get(key)
            if bucket:
                targets.extend(bucket)
        targets.sort(key=lambda subscription: subscription.seq)
        return targets

    def _notify_added(self, profile: TranslatorProfile) -> None:
        if self.runtime.tracing:
            self.runtime.trace(
                "directory.added", f"{profile.translator_id} ({profile.name})"
            )
        for listener in list(self._listeners):
            listener.translator_added(profile)
        for subscription in self._subscribers_for(profile):
            subscription.listener.translator_added(profile)

    def _notify_removed(self, profile: TranslatorProfile) -> None:
        if self.runtime.tracing:
            self.runtime.trace(
                "directory.removed", f"{profile.translator_id} ({profile.name})"
            )
        for listener in list(self._listeners):
            listener.translator_removed(profile)
        for subscription in self._subscribers_for(profile):
            subscription.listener.translator_removed(profile)

    def _notify_changed(
        self, profile: TranslatorProfile, previous: TranslatorProfile
    ) -> None:
        if self.runtime.tracing:
            self.runtime.trace(
                "directory.changed",
                f"{profile.translator_id} health={profile.health}",
            )
        for listener in list(self._listeners):
            listener.translator_changed(profile, previous)
        for subscription in self._subscribers_for(profile):
            subscription.listener.translator_changed(profile, previous)

    # -- announcements ---------------------------------------------------------------------------

    def _local_profiles(self) -> List[TranslatorProfile]:
        return [e.profile for e in self._entries.values() if e.local]

    def _bump_version(self) -> None:
        self._version += 1
        self._digest_cache = None

    def state_digest(self) -> str:
        """Digest of the full local state (the translators we own)."""
        if self._sharded:
            # Profiles never ride announcements under sharding (placement
            # and interest deltas carry them), so the digest handshake has
            # nothing to compare: a constant keeps heartbeat receivers from
            # pulling full transfers forever.
            return "sharded"
        if self._digest_cache is None:
            hasher = hashlib.sha1()
            for translator_id, entry in sorted(self._entries.items()):
                if entry.local:
                    hasher.update(translator_id.encode("utf-8"))
                    hasher.update(b"\x00")
                    hasher.update(entry.profile.wire_digest.encode("ascii"))
                    hasher.update(b"\n")
            self._digest_cache = hasher.hexdigest()
        return self._digest_cache

    def _origin_block(self) -> dict:
        return {
            "id": self.runtime.runtime_id,
            "address": str(self.runtime.node.address),
            "transport_port": self.runtime.transport.port,
            "directory_port": self.port,
        }

    def _announcement(
        self, profiles, removed, full, heartbeat, changed=()
    ) -> dict:
        payload = {
            "kind": "umiddle-directory",
            "runtime": self._origin_block(),
            "full": full,
            "heartbeat": heartbeat,
            "version": self._version,
            "digest": self.state_digest(),
            "profiles": [p.to_dict() for p in profiles],
            # Sender-cached content digests, parallel to "profiles": the
            # receiver's from_dict interns by digest without recomputing
            # canonical JSON + SHA-1 per profile (the cold-apply hotspot).
            "digests": [p.wire_digest for p in profiles],
            "removed": list(removed),
        }
        if changed:
            # Health-only delta: receivers swap the entry in place and fire
            # `changed` instead of removed + added.
            payload["changed"] = [p.to_dict() for p in changed]
        return payload

    def _estimate_size(self, profiles, removed, changed=()) -> int:
        return (
            CONTROL_OVERHEAD
            + sum(p.estimated_size() for p in profiles)
            + sum(p.estimated_size() for p in changed)
            + sum(len(r) + 4 for r in removed)
        )

    def _announce(
        self,
        profiles: Optional[List[TranslatorProfile]] = None,
        removed: Optional[List[str]] = None,
        full: bool = False,
        heartbeat: bool = False,
        to: Optional[List] = None,
        changed: Optional[List[TranslatorProfile]] = None,
        compress_for: Optional[str] = None,
    ) -> None:
        if self._socket is None or self._socket.closed:
            return
        profiles = profiles if profiles is not None else []
        removed = removed or []
        changed = changed or []
        if self._sharded:
            # Announcements shrink to membership heartbeats: presence,
            # addresses and lease refresh stay global, profile state moves
            # only through shard placement and interest-scoped deltas.  The
            # ``full`` flag still rides so the digest handshake settles
            # (the constant "sharded" digest then suppresses re-pulls).
            profiles = []
            removed = []
            changed = []
        elif full:
            profiles = self._local_profiles()
        payload = self._announcement(profiles, removed, full, heartbeat, changed)
        if self.runtime.data_plane_enabled:
            # Self-contained binary body: datagrams carry their own symbol
            # table, so every receiver (multicast included) decodes it.
            # The charged size is the actual frame -- codec-honest
            # bandwidth modeling, not the JSON estimate.  ``compress_for``
            # names the single unicast target of a bulk transfer
            # (full-state pull reply / newcomer push): that body ships
            # zlib-compressed; multicast announcements keep the plain
            # frame.
            payload = encode_gossip(payload, compress=bool(compress_for))
            size = payload.wire_size
            self.codec_frames_sent += 1
        else:
            size = self._estimate_size(profiles, removed, changed)
        self._send_to(payload, size, to)
        self.announcements_sent += 1

    def _send_to(self, payload, size: int, to: Optional[List]) -> None:
        """Unicast to each ``(address, port)`` in ``to``; ``None`` reaches
        every live peer: the multicast group plus each entry of
        ``_peers`` (explicitly federated peers, and learned ones)."""
        if to is None:
            self._socket.send_multicast(payload, size, DIRECTORY_GROUP, self.port)
            to = list(self._peers.items())
        for address, port in to:
            self._socket.sendto(payload, size, address, port)

    def request_full_state(self, to: Optional[List] = None) -> None:
        """Ask for a unicast full announcement: from the peers in ``to``
        (digest mismatch, version gap), or with ``to=None`` from every
        live peer -- the multicast group plus each explicitly federated
        peer.  A restarted runtime sends the latter once, so it re-learns
        the federation within one round trip instead of one heartbeat per
        peer."""
        if self._socket is None or self._socket.closed:
            return
        payload = {"kind": "umiddle-directory-request", "runtime": self._origin_block()}
        self._send_to(payload, CONTROL_OVERHEAD, to)
        self.full_requests_sent += 1

    def _announcer(self) -> Generator:
        kernel = self.runtime.kernel
        socket = self._socket
        first = True
        while socket is not None and not socket.closed:
            # Full state once on (re)start, then constant-size heartbeats;
            # receivers pull a full transfer only on digest mismatch.
            self._announce(full=first, heartbeat=not first)
            first = False
            yield kernel.timeout(ANNOUNCE_INTERVAL)

    def _sweeper(self) -> Generator:
        kernel = self.runtime.kernel
        socket = self._socket
        while socket is not None and not socket.closed:
            yield kernel.timeout(SWEEP_INTERVAL)
            if socket.closed:
                # Stopped or crashed during the wait: a restart runs its
                # own sweeper, whose first tick is SWEEP_INTERVAL after it.
                return
            deadline = kernel.now - LEASE
            lost_any = False
            for runtime_id, info in list(self._runtimes.items()):
                if info.last_seen < deadline:
                    del self._runtimes[runtime_id]
                    self._forget_peer_state(runtime_id, info)
                    self.runtime.trace("directory.runtime-lost", runtime_id)
                    self.runtime.health.note_runtime_expired(runtime_id)
                    self.runtime.shards.origin_lost(runtime_id)
                    lost_any = True
            if lost_any:
                self.runtime.shards.membership_changed()
            self.runtime.shards.sweep()
            for translator_id, entry in list(self._entries.items()):
                if entry.local:
                    continue
                # A heartbeat refreshes the owner runtime's lease in O(1);
                # its entries inherit that freshness here.
                info = self._runtimes.get(entry.profile.runtime_id)
                last = entry.last_seen if info is None else max(
                    entry.last_seen, info.last_seen
                )
                if last < deadline:
                    self._drop_entry(translator_id)
                    self._notify_removed(entry.profile)

    # -- receiving ----------------------------------------------------------------------------------

    def _receiver(self) -> Generator:
        kernel = self.runtime.kernel
        per_entry = self.runtime.calibration.umiddle.directory_entry_s
        socket = self._socket
        while socket is not None and not socket.closed:
            try:
                datagram = yield socket.recv()
            except ConnectionClosed:
                return
            payload = datagram.payload
            if isinstance(payload, BinaryFrame):
                # Decode capability is unconditional: the sender's flags
                # pick the wire form, and every receiver decodes every
                # frame kind whatever its own flags.
                try:
                    payload = decode_gossip(payload)
                except CodecError as exc:
                    self.runtime.trace(
                        "directory.protocol-error",
                        f"undecodable binary announcement: {exc}",
                    )
                    continue
            if not isinstance(payload, dict):
                continue
            kind = payload.get("kind")
            if kind == "umiddle-directory-request":
                origin = payload.get("runtime")
                if origin and origin["id"] != self.runtime.runtime_id:
                    self.full_requests_received += 1
                    self._announce(
                        full=True,
                        to=[(Address(origin["address"]), origin["directory_port"])],
                        compress_for=origin["id"],
                    )
                continue
            if isinstance(kind, str) and kind.startswith("umiddle-shard-"):
                work = len(payload.get("profiles", ())) + len(
                    payload.get("removed", ())
                )
                if work:
                    yield kernel.timeout(per_entry * work)
                self.runtime.shards.handle(payload)
                continue
            if kind != "umiddle-directory":
                continue
            origin = payload["runtime"]
            if origin["id"] == self.runtime.runtime_id:
                continue
            self.announcements_received += 1
            work = (
                len(payload["profiles"])
                + len(payload["removed"])
                + len(payload.get("changed", ()))
            )
            if work:
                yield kernel.timeout(per_entry * work)
            self._apply_announcement(payload)

    def _apply_announcement(self, payload: dict) -> None:
        now = self.runtime.kernel.now
        origin = payload["runtime"]
        runtime_id = origin["id"]
        address = Address(origin["address"])
        directory_port = origin["directory_port"]
        newcomer = runtime_id not in self._runtimes
        self._runtimes[runtime_id] = RuntimeInfo(
            runtime_id=runtime_id,
            address=address,
            transport_port=origin["transport_port"],
            directory_port=directory_port,
            last_seen=now,
        )
        self._peers[address] = directory_port
        # Evidence the peer is up: clear delivery-failure degradation and
        # move any open transport breaker for it to probe-eligible, so
        # rebinding after a restart is not held hostage by reopen backoff.
        self.runtime.health.peer_alive(runtime_id)
        self.runtime.transport.peer_seen(runtime_id)

        version = payload.get("version")
        digest = payload.get("digest")
        peer = self._peer_states.get(runtime_id)

        if payload.get("heartbeat"):
            # Lease refresh is the runtime-info update above (the sweeper
            # consults owner liveness); state only moves on mismatch.
            if peer is None or digest is None or peer.digest != digest:
                self.request_full_state([(address, directory_port)])
        elif payload["full"]:
            if peer is not None and digest is not None and peer.digest == digest:
                if version is not None:
                    peer.version = version  # duplicate copy: state identical
            else:
                self._apply_profiles(payload, runtime_id, now, full=True)
                self._peer_states[runtime_id] = _PeerState(
                    version=version or 0, digest=digest
                )
        else:
            if peer is not None and version is not None and version <= peer.version:
                pass  # stale or duplicate delta (multicast + unicast copies)
            elif peer is not None and version is not None and version == peer.version + 1:
                self._apply_profiles(payload, runtime_id, now, full=False)
                peer.version = version
                peer.digest = digest
            else:
                # Version gap (missed deltas) or first contact via a delta:
                # apply best-effort, drop the digest record so heartbeats
                # cannot false-match, and pull a full transfer.
                self._apply_profiles(payload, runtime_id, now, full=False)
                self._peer_states[runtime_id] = _PeerState(
                    version=version or 0, digest=None
                )
                self.request_full_state([(address, directory_port)])

        if newcomer and self.started:
            # Teach late joiners our state in one RTT instead of making
            # them wait for our next heartbeat + request round-trip.
            self._announce(
                full=True, to=[(address, directory_port)], compress_for=runtime_id
            )
        if newcomer:
            # A membership change moves shard ownership: rebalance, re-push
            # local placements, re-route standing-query interest.
            self.runtime.shards.membership_changed()

    def apply_shard_delta(
        self, runtime_id: str, profiles_data, digests, removed
    ) -> None:
        """Apply one interest-scoped delta from a shard owner: added/changed
        profiles feed the local entry table (so standing queries and
        listeners fire exactly as under flat gossip), removals drop them.
        Never treated as a full state: a shard owner only ever speaks for
        the keys we subscribed to."""
        payload = {"profiles": list(profiles_data), "removed": list(removed)}
        if digests:
            payload["digests"] = list(digests)
        self._apply_profiles(
            payload, runtime_id, self.runtime.kernel.now, full=False
        )

    def _apply_profiles(
        self, payload: dict, runtime_id: str, now: float, full: bool
    ) -> None:
        mentioned = set()
        digests = payload.get("digests")
        if digests is not None and len(digests) != len(payload["profiles"]):
            digests = None  # malformed pairing: fall back to recomputing
        fresh: List[TranslatorProfile] = []
        for position, data in enumerate(payload["profiles"]):
            profile = TranslatorProfile.from_dict(
                data, digest=digests[position] if digests else None
            )
            mentioned.add(profile.translator_id)
            existing = self._entries.get(profile.translator_id)
            if existing is None:
                # Brand-new entries batch: one bulk index insert after the
                # loop instead of per-profile set churn (cold-apply cost).
                fresh.append(profile)
            elif not existing.local:
                if existing.profile is not profile and existing.profile != profile:
                    old = existing.profile
                    if same_except_health(old, profile):
                        # Health-only difference: keep the entry (and its
                        # lookup-order seq) and tell listeners it changed.
                        self._swap_profile(existing, profile)
                        existing.last_seen = now
                        self._notify_changed(profile, old)
                    else:
                        # The translator's advertised shape/attributes
                        # changed: re-announce it so standing bindings
                        # re-evaluate.
                        self._drop_entry(profile.translator_id)
                        self._notify_removed(old)
                        self._store_entry(profile, local=False, now=now)
                        self._notify_added(profile)
                else:
                    existing.last_seen = now

        if fresh:
            self._store_entries_bulk(fresh, now)
            for profile in fresh:
                self._notify_added(profile)

        for data in payload.get("changed", ()):
            profile = TranslatorProfile.from_dict(data)
            mentioned.add(profile.translator_id)
            existing = self._entries.get(profile.translator_id)
            if existing is None or existing.local:
                # Unknown here (possibly already expired): a health delta
                # must never resurrect an entry, and never touches our own.
                continue
            old = existing.profile
            if old is profile or old == profile:
                existing.last_seen = now
            elif same_except_health(old, profile):
                self._swap_profile(existing, profile)
                existing.last_seen = now
                self._notify_changed(profile, old)
            else:
                # Malformed/mixed delta: fall back to the full change path.
                self._drop_entry(profile.translator_id)
                self._notify_removed(old)
                self._store_entry(profile, local=False, now=now)
                self._notify_added(profile)

        for translator_id in payload["removed"]:
            entry = self._entries.get(translator_id)
            if entry is not None and not entry.local:
                self._drop_entry(translator_id)
                self._notify_removed(entry.profile)

        if full and not self._sharded:
            # Entries claimed by this runtime but absent from its full state
            # are gone.  (Under sharding, full announcements are empty
            # membership handshakes while our entries for that runtime are
            # interest-fed by shard owners -- never prune them here.)
            stale = [
                translator_id
                for translator_id in self._by_runtime.get(runtime_id, ())
                if translator_id not in mentioned
            ]
            for translator_id in stale:
                entry = self._drop_entry(translator_id)
                if entry is not None:
                    self._notify_removed(entry.profile)
