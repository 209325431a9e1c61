"""Sharded directory: rendezvous-hashed namespace partitions.

The flat directory (design choice 2-b's aggregated intermediary space)
gives every runtime a full gossiped replica: per-node memory and the cold
full-state apply grow linearly with the federation, which caps the
millions-of-users trajectory.  This module partitions the namespace
instead, the registry-federation step of the SOA-coordination literature:

- **ShardMap** -- the coarse ``(axis, value)`` discovery keys (from
  :meth:`TranslatorProfile.index_keys` / :meth:`Query.index_keys`) hash
  onto a fixed ring of *virtual shards*; shards are assigned to live
  runtimes by rendezvous (highest-random-weight) hashing, so every node
  computes the identical assignment from the identical membership view,
  and a join or leave moves only the shards the membership change
  actually touches.
- **ShardStore** -- the authoritative per-owner state: profiles stored
  under every owned shard their keys hash to, with a store-local inverted
  index so routed lookups stay sub-linear inside a shard.
- **ShardRouter** -- the routing layer between the runtime and its
  directory.  Registrations are *placed* on the owners of the profile's
  key shards (the origin re-pushes on every membership change, so
  placement is self-healing soft state).  Lookups route to the owner of
  the query's first index key -- the closure property guarantees that any
  matching profile carries every query key, so one key's owner holds the
  full candidate set -- with a TTL cache of hot key buckets and a
  fan-out + merge path for queries with no indexable key.  Standing
  queries register *interest* at the owner, and the owner streams
  per-shard deltas only to interested peers: gossip volume follows the
  subscription set, not the federation size.

Simulation note: placement, subscription and delta traffic ride real
simulated datagrams on the directory port.  Routed *lookups* are modeled
as synchronous RPCs -- the router calls the owner's in-process store
directly (the sim kernel cannot block a synchronous ``lookup()`` call on
a network round-trip) and accounts the traffic in counters
(``routed_lookups``, ``bucket_bytes_served``) instead of on the wire.

Durability: every owner-side store mutation and ownership transition is
journaled (``shard-store``/``shard-remove``/``shard-drop``/``shard-own``
records), so :meth:`UMiddleRuntime.recover` rebuilds a crashed owner's
shards byte-equivalently from the write-ahead log.  ``shard-own`` also
names the members of the view it was computed from: a restarted router
routes on that view at once, rebalances once when its peers have
announced again, re-sends its standing-query interest to every owner,
and tells each peer what it holds of that peer's placements, so the peer
re-sends what was lost while it was down (its interest included).

Replication (:mod:`repro.core.replica`, PR 9): with
``UMiddleRuntime(replication_factor=R)`` for R > 1, each shard is also
held as a passive slice by the next ``R-1`` members of the rendezvous
order.  The primary streams its slice mutations to those replicas
(``umiddle-shard-replica`` frames, journaled as ``shard-replica``
records), membership changes warm-ingest a newly-owned shard from the
local replica slice instead of waiting for origin re-push, keyed lookups
whose primary is unreachable or quarantined fail over to the replicas as
explicitly-traced degraded reads with a bounded-staleness marker, and a
lookup no holder can serve raises the structured
:class:`~repro.core.errors.ShardUnavailable` instead of returning a
silently-partial result.  A replica applies a replica-plane frame only
when its sender owns the shard under the replica's own membership view,
so a primary deposed into a minority partition can never resurrect
reaped state after heal; anti-entropy digests and origin re-push settle
slice content once the views agree again.

The whole layer is gated on ``UMiddleRuntime(sharding_enabled=...)``;
off (the default) reproduces the flat-replica directory byte for byte,
and ``replication_factor=1`` (the default) reproduces the single-homed
sharded directory byte for byte.  All runtimes of one federation must
agree on the switches and on ``shard_count``.
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.codec import encode_gossip
from repro.core.errors import ShardUnavailable
from repro.core.health import HealthState
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.replica import (
    ReplicaStore,
    replicas_of,
    slice_digest,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.directory import Directory
    from repro.core.journal import RecoveredState
    from repro.core.runtime import UMiddleRuntime
    from repro.simnet.net import Network

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "CACHE_TTL",
    "KEY_SPLIT",
    "placement_salt",
    "ShardMap",
    "ShardStore",
    "ShardRouter",
    "ShardFabric",
    "shard_fabric",
    "shard_of_key",
]

#: Number of virtual shards on the ring.  Must exceed the expected node
#: count for balance (each node owns ``shard_count / nodes`` shards); all
#: runtimes of a federation must use the same value.
DEFAULT_SHARD_COUNT = 128

#: Seconds (simulated) a routed hot-key bucket may be served from the
#: local cache before the owner is consulted again.
CACHE_TTL = 2.0

#: Hot-key split factor.  Low-cardinality axes produce pathologically hot
#: keys -- every profile with a digital port carries the universal
#: ``*/*`` mime pattern, so without splitting, that key's single owner
#: would store the entire federation.  Each key is therefore spread over
#: ``KEY_SPLIT`` salted sub-shards: a profile is *written* to exactly one
#: of them (salted by its translator id, so placement volume is
#: unchanged) while a keyed lookup *reads* all of them and merges.  All
#: runtimes of a federation must use the same value.
KEY_SPLIT = 32

#: Bulk shard-plane payloads at or above this declared size are eligible
#: for zlib block compression when the sender runs the data plane.
Z_MIN_BYTES = 512

_IndexKey = Tuple[str, str]
_M64 = (1 << 64) - 1


def shard_of_key(key: _IndexKey, shard_count: int, salt: int = 0) -> int:
    """Stable shard of one coarse ``(axis, value)`` key sub-sharded by
    ``salt`` (a writer uses its profile's placement salt; readers walk
    every salt in ``range(KEY_SPLIT)``)."""
    digest = hashlib.sha1(
        f"{key[0]}\x00{key[1]}\x00{salt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


_placement_salts: Dict[str, int] = {}


def placement_salt(translator_id: str) -> int:
    """The sub-shard salt a profile's placements are written under."""
    salt = _placement_salts.get(translator_id)
    if salt is None:
        digest = hashlib.sha1(translator_id.encode("utf-8")).digest()
        salt = int.from_bytes(digest[:4], "big") % KEY_SPLIT
        if len(_placement_salts) > 65536:
            _placement_salts.clear()
        _placement_salts[translator_id] = salt
    return salt


_member_seeds: Dict[str, int] = {}


def _member_seed(member: str) -> int:
    seed = _member_seeds.get(member)
    if seed is None:
        seed = int.from_bytes(
            hashlib.sha1(member.encode("utf-8")).digest()[:8], "big"
        )
        if len(_member_seeds) > 4096:
            _member_seeds.clear()
        _member_seeds[member] = seed
    return seed


def _weight(seed: int, shard: int) -> int:
    """Rendezvous weight of (member, shard): a splitmix64 mix of the
    member's hash seed and the shard number -- deterministic across
    processes and fast enough for full-table rebuilds in pure Python."""
    x = (seed ^ (shard * 0x9E3779B97F4A7C15)) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


#: A keyed lookup's read plan: each owner of the key's sub-shards, in
#: first-read order, with the sub-shards it serves (owner ``None`` in the
#: empty view, where everything is local).
_ReadPlan = Dict[Optional[str], Tuple[int, ...]]

_View = Tuple[
    Tuple[str, ...], Dict[int, Tuple[str, ...]], Dict[_IndexKey, _ReadPlan]
]

#: Per membership view -- (member tuple, shard count) -- the owner table,
#: the shard -> :meth:`ShardMap.owners_ranked` rankings and the route key
#: -> :meth:`ShardMap.read_plan` plans, the last two filled on demand.
#: Every router of a converged federation asks for the identical view, so
#: the rendezvous sweep, each ranking and each plan run once per view per
#: process.
_VIEW_CACHE: Dict[Tuple[Tuple[str, ...], int], _View] = {}


def _view(members: Tuple[str, ...], shard_count: int) -> _View:
    cache_key = (members, shard_count)
    view = _VIEW_CACHE.get(cache_key)
    if view is None:
        table: Tuple[str, ...] = ()
        if members:
            seeds = [(_member_seed(member), member) for member in members]
            table = tuple(
                max(seeds, key=lambda pair: _weight(pair[0], shard))[1]
                for shard in range(shard_count)
            )
        if len(_VIEW_CACHE) > 64:
            _VIEW_CACHE.clear()
        view = _VIEW_CACHE[cache_key] = (table, {}, {})
    return view


class ShardMap:
    """The deterministic shard -> owner assignment for one membership view.

    Rendezvous hashing gives both properties the directory needs without
    any coordination: every node with the same membership view computes
    the same owner for every shard, and changing the membership by one
    node only moves the shards whose argmax that node is (minimal
    disruption on join/leave/crash).

    What derives from the view alone is computed once per view and shared
    by every map that holds it: the owner table, each shard's ranking,
    and each route key's read plan (:meth:`read_plan`).  A rebuild swaps
    all three, so a map never serves one computed under another view.
    """

    def __init__(self, shard_count: int = DEFAULT_SHARD_COUNT):
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        self.shard_count = shard_count
        self.members: Tuple[str, ...] = ()
        self.version = 0
        self._table: Tuple[str, ...] = ()
        #: shard -> :meth:`owners_ranked` under this view, shared with
        #: every map of the same view (every replica frame asks again for
        #: the shards it carries).
        self._ranked: Dict[int, Tuple[str, ...]] = {}
        #: route key -> :meth:`read_plan` under this view, shared likewise
        #: (every keyed lookup and standing-query route asks again).
        self._plans: Dict[_IndexKey, _ReadPlan] = {}

    def rebuild(self, members: Iterable[str]) -> bool:
        """Recompute the assignment; True when the view actually changed."""
        ordered = tuple(sorted(set(members)))
        if ordered == self.members:
            return False
        self.members = ordered
        self.version += 1
        self._table, self._ranked, self._plans = _view(ordered, self.shard_count)
        return True

    def owner(self, shard: int) -> Optional[str]:
        if not self._table:
            return None
        return self._table[shard]

    def read_plan(self, key: _IndexKey) -> _ReadPlan:
        """Where a keyed lookup reads ``key`` under this view: each owner
        of the key's ``KEY_SPLIT`` sub-shards, in first-read order, with
        its distinct sub-shards in that order.  The empty view has the one
        owner ``None``.  The plan is shared by every map of the view, so
        callers must not change it."""
        plan = self._plans.get(key)
        if plan is None:
            grouped: Dict[Optional[str], List[int]] = {}
            for salt in range(KEY_SPLIT):
                shard = shard_of_key(key, self.shard_count, salt)
                shards = grouped.setdefault(self.owner(shard), [])
                if shard not in shards:
                    shards.append(shard)
            plan = {owner: tuple(shards) for owner, shards in grouped.items()}
            if len(self._plans) > 4096:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def owners_ranked(self, shard: int) -> List[str]:
        """Members by descending rendezvous weight (deterministic failover
        order while a membership change is still propagating); the first
        is the table's owner."""
        cached = self._ranked.get(shard)
        if cached is not None:
            return list(cached)
        ranked = sorted(
            self.members,
            key=lambda member: _weight(_member_seed(member), shard),
            reverse=True,
        )
        self._ranked[shard] = tuple(ranked)
        return ranked

    def owned_by(self, member: str) -> FrozenSet[int]:
        return frozenset(
            shard for shard, owner in enumerate(self._table) if owner == member
        )


class ShardStore:
    """One owner's authoritative slice of the namespace.

    Profiles are stored under every owned shard their keys hash to; a
    store-wide inverted index keeps routed lookups sub-linear.  The
    store-wide index is sound for routed queries: a query routed here by
    key *k* only ever arrives because this node owns ``shard(k)``, and
    every profile carrying *k* is placed on that shard's owner, so the
    index holds the full candidate set for *k*.
    """

    def __init__(self):
        #: translator_id -> profile (one instance however many shards).
        self._profiles: Dict[str, TranslatorProfile] = {}
        #: translator_id -> shards this profile is stored under here.
        self._placements: Dict[str, Set[int]] = {}
        #: shard -> translator ids stored under it.
        self._shards: Dict[int, Set[str]] = {}
        #: store-wide inverted index over the profiles' coarse keys.
        self._index: Dict[_IndexKey, Set[str]] = {}
        #: origin runtime_id -> translator ids (lease reaping by origin).
        self._by_origin: Dict[str, Set[str]] = {}

    # -- inspection --------------------------------------------------------

    @property
    def profile_count(self) -> int:
        return len(self._profiles)

    @property
    def posting_count(self) -> int:
        """Index postings held (the per-node memory the benchmark tracks)."""
        return sum(len(bucket) for bucket in self._index.values())

    def estimated_bytes(self) -> int:
        return sum(p.estimated_size() for p in self._profiles.values())

    def origins(self) -> Set[str]:
        return set(self._by_origin)

    def tids_of_origin(self, origin: str) -> List[str]:
        return list(self._by_origin.get(origin, ()))

    def stored_shards(self) -> List[int]:
        """Every shard with at least one placement here."""
        return list(self._shards)

    def placements_of(self, translator_id: str) -> Tuple[int, ...]:
        return tuple(sorted(self._placements.get(translator_id, ())))

    def profile_of(self, translator_id: str) -> Optional[TranslatorProfile]:
        return self._profiles.get(translator_id)

    def slice_of(self, shard: int) -> List[TranslatorProfile]:
        """Every profile placed under one shard (the replica-sync unit)."""
        return [self._profiles[tid] for tid in self._shards.get(shard, ())]

    def snapshot(self) -> Dict[str, dict]:
        """Canonical JSON-serializable content (recovery equivalence)."""
        return {
            tid: {
                "profile": self._profiles[tid].to_dict(),
                "shards": sorted(self._placements[tid]),
            }
            for tid in sorted(self._profiles)
        }

    # -- mutation ----------------------------------------------------------

    def store(
        self, profile: TranslatorProfile, shards: Iterable[int]
    ) -> Tuple[bool, bool, Optional[TranslatorProfile]]:
        """Store ``profile`` under ``shards`` (merged with any existing
        placements).  Returns ``(content_changed, placement_changed,
        previous_profile)``."""
        tid = profile.translator_id
        previous = self._profiles.get(tid)
        placement = self._placements.get(tid)
        added_shards = set(shards) - (placement or set())
        content_changed = previous is None or (
            previous is not profile and previous != profile
        )
        if previous is None:
            self._profiles[tid] = profile
            self._placements[tid] = set(added_shards)
            for key in profile.index_keys():
                self._index.setdefault(key, set()).add(tid)
            self._by_origin.setdefault(profile.runtime_id, set()).add(tid)
        else:
            if content_changed:
                if previous.index_keys() != profile.index_keys():
                    for key in previous.index_keys():
                        self._unindex(key, tid)
                    for key in profile.index_keys():
                        self._index.setdefault(key, set()).add(tid)
                if previous.runtime_id != profile.runtime_id:
                    self._unorigin(previous.runtime_id, tid)
                    self._by_origin.setdefault(profile.runtime_id, set()).add(tid)
                self._profiles[tid] = profile
            placement.update(added_shards)
        for shard in added_shards:
            self._shards.setdefault(shard, set()).add(tid)
        return content_changed, bool(added_shards), previous

    def remove(self, translator_id: str) -> Optional[TranslatorProfile]:
        profile = self._profiles.pop(translator_id, None)
        if profile is None:
            return None
        for shard in self._placements.pop(translator_id, ()):
            bucket = self._shards.get(shard)
            if bucket is not None:
                bucket.discard(translator_id)
                if not bucket:
                    del self._shards[shard]
        for key in profile.index_keys():
            self._unindex(key, translator_id)
        self._unorigin(profile.runtime_id, translator_id)
        return profile

    def drop_shard(self, shard: int) -> List[str]:
        """Forget one shard's placements (ownership moved away).  Profiles
        whose only placement here was this shard leave the store; returns
        their ids.  This is a *placement* change, never a namespace event:
        the new owner holds the same profiles."""
        gone = []
        for tid in list(self._shards.pop(shard, ())):
            placement = self._placements[tid]
            placement.discard(shard)
            if not placement:
                profile = self._profiles.pop(tid)
                del self._placements[tid]
                for key in profile.index_keys():
                    self._unindex(key, tid)
                self._unorigin(profile.runtime_id, tid)
                gone.append(tid)
        return gone

    def clear(self) -> None:
        self._profiles.clear()
        self._placements.clear()
        self._shards.clear()
        self._index.clear()
        self._by_origin.clear()

    def _unindex(self, key: _IndexKey, translator_id: str) -> None:
        bucket = self._index.get(key)
        if bucket is not None:
            bucket.discard(translator_id)
            if not bucket:
                del self._index[key]

    def _unorigin(self, origin: str, translator_id: str) -> None:
        owned = self._by_origin.get(origin)
        if owned is not None:
            owned.discard(translator_id)
            if not owned:
                del self._by_origin[origin]

    # -- serving -----------------------------------------------------------

    def bucket(self, key: _IndexKey) -> List[TranslatorProfile]:
        """Every stored profile carrying ``key`` (the routed unit)."""
        ids = self._index.get(key)
        if not ids:
            return []
        return [self._profiles[tid] for tid in ids]

    def lookup(self, query: Query) -> List[TranslatorProfile]:
        """Exact matches for ``query`` among the stored profiles, via the
        store-wide index (same intersect-then-filter as the flat path)."""
        keys = query.index_keys()
        if not keys:
            return self.scan(query)
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
        return list(
            filter(query.predicate, map(self._profiles.__getitem__, candidates))
        )

    def scan(self, query: Query) -> List[TranslatorProfile]:
        return list(filter(query.predicate, self._profiles.values()))


class ShardFabric:
    """Per-network registry of active routers: the in-process endpoint for
    synchronously-modeled routed lookups and for offline (socket-less)
    placement dispatch in tests and benchmarks."""

    def __init__(self):
        self.routers: Dict[str, "ShardRouter"] = {}

    def register(self, router: "ShardRouter") -> None:
        self.routers[router.runtime.runtime_id] = router

    def deregister(self, router: "ShardRouter") -> None:
        if self.routers.get(router.runtime.runtime_id) is router:
            del self.routers[router.runtime.runtime_id]

    def get(self, runtime_id: str) -> Optional["ShardRouter"]:
        router = self.routers.get(runtime_id)
        if router is not None and router.active:
            return router
        return None


def shard_fabric(network: "Network") -> ShardFabric:
    """The network's router registry, created on first use."""
    fabric = getattr(network, "_shard_fabric", None)
    if fabric is None:
        fabric = ShardFabric()
        network._shard_fabric = fabric
    return fabric


class ShardRouter:
    """One runtime's routing/placement layer over the sharded namespace."""

    #: Always 0: placement follows the membership view alone, so nothing
    #: rebalances for load.  Kept for reports that still sum the counter.
    weight_rebalances = 0

    def __init__(
        self,
        runtime: "UMiddleRuntime",
        enabled: bool = False,
        shard_count: int = DEFAULT_SHARD_COUNT,
        cache_ttl: float = CACHE_TTL,
        replication_factor: int = 1,
    ):
        self.runtime = runtime
        self.enabled = enabled
        self.map = ShardMap(shard_count)
        self.store = ShardStore()
        self.cache_ttl = cache_ttl
        #: Shard copies kept across the federation: 1 (the default) is the
        #: single-homed PR 6 directory, R > 1 adds R-1 passive replica
        #: slices per shard for degraded-read availability.
        self.replication_factor = max(1, int(replication_factor))
        #: Passive slices this node holds for shards it does not own.
        self.replicas = ReplicaStore()
        #: owned shard -> replica peers last synced (route bookkeeping).
        self._replica_routes: Dict[int, Tuple[str, ...]] = {}
        #: origin -> {translator_id: promoted_at} for warm-ingested
        #: entries awaiting confirmation by that origin's next complete
        #: re-push.  A replica slice can hold a profile whose removal
        #: raced the handoff (the origin's remove was addressed to the
        #: unreachable old owner), so promotions are provisional until
        #: the origin restates its live set -- or a full lease passes.
        self._provisional: Dict[str, Dict[str, float]] = {}
        #: True between start() and deactivate(): the router is reachable
        #: through the fabric and reacts to membership changes.
        self.active = False
        #: True from a restart until the kept view is confirmed: every
        #: member of it has announced again, or the directory's first
        #: sweep tick passed.  Rebalancing waits for that.
        self._rejoining = False
        #: After a restart, the peers this node has told what it holds of
        #: their placements (see :meth:`_report_holdings`); None after a
        #: first start and once a lease has passed since the restart.
        self._reported: Optional[Set[str]] = None
        self._started_at = 0.0
        self._owned: FrozenSet[int] = frozenset()
        #: stored-but-unowned shard -> first time we noticed (sweep ages
        #: these out once they stayed unowned for a full directory lease).
        self._foreign_since: Dict[int, float] = {}
        #: origins conclusively gone from *this* node's view; routed
        #: results mentioning them are filtered until they reannounce (a
        #: peer whose lease expiry fires later may still serve them).
        self._lost_origins: Set[str] = set()
        self._key_shards: Dict[_IndexKey, int] = {}
        #: routing key -> (stamp, bucket) hot-key cache for routed lookups.
        self._cache: Dict[_IndexKey, Tuple[float, Tuple[TranslatorProfile, ...]]] = {}
        #: outgoing standing-query interest: route key (None = everything)
        #: -> {"count": local subscriptions, "owners": owners subscribed at}.
        self._subs_out: Dict[Optional[_IndexKey], Dict] = {}
        #: owner-side interest: route key (None = everything) -> subscriber
        #: runtime ids whose standing queries cover it.
        self._interest: Dict[Optional[_IndexKey], Set[str]] = {}
        # counters (benchmarks + tests)
        self.local_lookups = 0
        self.routed_lookups = 0
        self.cache_hits = 0
        self.fanout_lookups = 0
        self.routed_failures = 0
        self.bucket_serves = 0
        self.bucket_bytes_served = 0
        self.scan_serves = 0
        self.stores_received = 0
        self.removes_received = 0
        self.deltas_sent = 0
        self.deltas_received = 0
        self.pushes_sent = 0
        self.direct_dispatches = 0
        self.rebalances = 0
        self.z_frames_sent = 0
        self.z_bytes_saved = 0
        # replication counters (all zero at replication_factor=1)
        self.degraded_reads = 0
        self.unavailable_lookups = 0
        self.fenced_frames = 0
        self.warm_ingests = 0
        self.replica_pushes_sent = 0
        self.replica_pushes_received = 0
        self.digests_sent = 0
        self.digest_replies = 0
        self.replica_syncs = 0
        self.stale_evictions = 0

    # -- wiring ------------------------------------------------------------

    def _profile_wire_size(self, profile: TranslatorProfile) -> int:
        """Bytes one profile occupies on a placement/delta datagram.

        Codec-honest: with the binary codec active the charge is the
        actual self-contained encoding length, otherwise the legacy JSON
        heuristic.
        """
        if self.runtime.data_plane_enabled:
            return profile.encoded_size()
        return profile.estimated_size()

    @property
    def directory(self) -> "Directory":
        return self.runtime.directory

    @property
    def runtime_id(self) -> str:
        return self.runtime.runtime_id

    @property
    def replicated(self) -> bool:
        """True when the replica tier is active.  Every replica-plane
        journal record and wire frame is gated on this, so
        ``replication_factor=1`` stays byte-for-byte the PR 6 path."""
        return self.replication_factor > 1

    def _peer_router(self, fabric: ShardFabric, runtime_id: str):
        """The peer's in-process router, but only when the simulated
        network could actually carry the modeled RPC both ways: routed
        lookups are synchronous in-process calls, so without this check a
        partition (or one-way link block) would be invisible to them."""
        router = fabric.get(runtime_id)
        if router is None:
            return None
        peer_node = router.runtime.node
        if peer_node is not self.runtime.node and not self.runtime.node.reachable(
            peer_node
        ):
            return None
        return router

    def shard_of(self, key: _IndexKey, salt: int = 0) -> int:
        cache_key = (key, salt)
        shard = self._key_shards.get(cache_key)
        if shard is None:
            shard = shard_of_key(key, self.map.shard_count, salt)
            if len(self._key_shards) > 65536:
                self._key_shards.clear()
            self._key_shards[cache_key] = shard
        return shard

    def shards_of_profile(self, profile: TranslatorProfile) -> Set[int]:
        """The shards a profile is written to: one salted sub-shard per
        index key (the salt is per-profile, so a hot key's population
        spreads over ``KEY_SPLIT`` owners)."""
        salt = placement_salt(profile.translator_id)
        return {self.shard_of(key, salt) for key in profile.index_keys()}

    def placement_shard(self, key: _IndexKey, translator_id: str) -> int:
        """The sub-shard one specific profile's placement for ``key``
        lives on (tests/benchmarks: 'who owns this profile's key?')."""
        return self.shard_of(key, placement_salt(translator_id))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Activate.  A first start builds the map from whatever the
        directory knows.  A restart finds the view it had before the crash
        (kept in memory, or rebuilt by :meth:`recover` from the journal)
        and routes on it while the peers answer the runtime's request to
        announce; :meth:`membership_changed` rebalances once, when the
        rejoin completes."""
        if not self.enabled or self.active:
            return
        self.active = True
        self._started_at = self.runtime.kernel.now
        self._rejoining = bool(self.map.members)
        self._reported = set() if self._rejoining else None
        shard_fabric(self.runtime.network).register(self)
        self.membership_changed(force=True)

    def deactivate(self) -> None:
        if not self.enabled:
            return
        self.active = False
        shard_fabric(self.runtime.network).deregister(self)

    def discard_state(self) -> None:
        """Cold-crash semantics: the map, store, caches and interest
        tables are in-memory state and die with the process; the view a
        recovery routes on comes from the journal only."""
        self.map.rebuild(())
        self.store.clear()
        self._cache.clear()
        self._interest.clear()
        self._subs_out.clear()
        self._owned = frozenset()
        self._foreign_since.clear()
        self._lost_origins.clear()
        self.replicas.clear()
        self._replica_routes.clear()
        self._provisional.clear()

    def recover(self, state: "RecoveredState") -> None:
        """Rebuild the owned shards (and any replica slices) from the
        replayed journal (called by cold recovery with appends muted)."""
        if not self.enabled:
            return
        # The membership view the node crashed with (empty from a journal
        # that predates member ids): lookups route on it from the moment
        # recovery returns, and start() keeps it until the rejoin ends.
        self.map.rebuild(state.shard_members)
        # Each distinct profile is rebuilt (and digested) once.  A replayed
        # profile table gives the store and the slices one shared dict per
        # distinct profile; raw shard-store and shard-replica records (a
        # node's first recovery replays those) decode a dict each, so equal
        # dicts of one translator are matched too -- the rule the
        # checkpoint's table is built by.
        rebuilt: Dict[str, List[Tuple[dict, TranslatorProfile]]] = {}

        def profile_of(data: dict) -> TranslatorProfile:
            known = rebuilt.setdefault(data["translator_id"], [])
            for seen, profile in known:
                if seen is data or seen == data:
                    return profile
            profile = TranslatorProfile.from_dict(data)
            known.append((data, profile))
            return profile

        for entry in state.shard_entries.values():
            self.store.store(profile_of(entry["profile"]), entry["shards"])
        self._owned = frozenset(state.shard_owned)
        for shard_key, data in state.replica_slices.items():
            profiles = [profile_of(p) for p in data["entries"].values()]
            self.replicas.apply_store(int(shard_key), profiles, 0.0, full=True)

    def seed_members(self, members: Iterable[str]) -> None:
        """Offline/bench hook: activate with an explicit membership view
        instead of learning it from directory gossip."""
        self.active = True
        self._started_at = self.runtime.kernel.now
        shard_fabric(self.runtime.network).register(self)
        self.map.rebuild(members)
        self._owned = self.map.owned_by(self.runtime_id)

    # -- membership / rebalancing ------------------------------------------

    def membership_changed(
        self, force: bool = False, rejoin_due: bool = False
    ) -> None:
        """Recompute the shard map from the directory's membership view and
        reconcile: journal the ownership transition, drop shards that moved
        away, re-place local profiles with the current owners, and re-route
        standing-query interest.

        During a rejoin (see :meth:`start`) arrivals only accumulate in the
        directory: the map stays on the kept view until every member of it
        has announced again (or ``rejoin_due``: the first sweep tick), and
        then rebalances once and re-sends every standing query's interest
        to each of its owners.  Interest registered during the rejoin never
        reached a peer whose address was still unknown, and a peer that
        expired this node (or gave up on its transport) has dropped the
        rest."""
        if not self.enabled or not self.active:
            return
        members = set(self.directory._runtimes)
        members.add(self.runtime_id)
        rejoined = self._rejoining
        if rejoined:
            if not (rejoin_due or members.issuperset(self.map.members)):
                return
            self._rejoining = False
            force = True
        changed = self.map.rebuild(members)
        if not changed and not force:
            return
        self.rebalances += 1
        old_owned = self._owned
        self._owned = self.map.owned_by(self.runtime_id)
        if changed or self._owned != old_owned:
            # The member ids ride along so a cold recovery can route on
            # the same view (addresses come from the peers' announcements).
            self.runtime.journal.append(
                "shard-own",
                {
                    "owned": sorted(self._owned),
                    "members": list(self.map.members),
                },
            )
        if self._owned != old_owned:
            # Shards we held and conclusively lost drop right away (their
            # new owner is being pushed the same profiles by every
            # origin); sender-directed placements we never owned are aged
            # out by :meth:`sweep` instead -- the sender's view may simply
            # be ahead of ours.
            lost = old_owned - self._owned
            if lost:
                for shard in lost:
                    self.store.drop_shard(shard)
                    self._replica_routes.pop(shard, None)
                self.runtime.journal.append(
                    "shard-drop", {"shards": sorted(lost)}
                )
            for shard in self._owned & set(self._foreign_since):
                del self._foreign_since[shard]
            if self.runtime.tracing:
                self.runtime.trace(
                    "shard.rebalance",
                    f"{len(self.map.members)} member(s), "
                    f"{len(self._owned)} shard(s) owned "
                    f"(+{len(self._owned - old_owned)}/-{len(lost)})",
                    members=len(self.map.members),
                    owned=len(self._owned),
                )
            if self.replicated:
                self._warm_ingest(self._owned - old_owned)
        self._cache.clear()
        if self.replicated:
            self._reconcile_replica_role()
        self._push_local_profiles()
        self._reroute_subscriptions(fresh=rejoined)
        if self.replicated:
            self._sync_replicas()
            self._request_replica_sync()
        if self._reported is not None:
            self._report_holdings()

    def _report_holdings(self) -> None:
        """After a restart, tell each peer in the view, once, which of its
        profiles this node holds on its owned shards (ids plus one
        content digest).  Placements and removals the peer sent while
        this node was down were lost, and with this node's lease
        unexpired no membership change makes the peer re-send them (nor
        its standing-query interest); :meth:`_handle_holdings` repairs
        exactly the origins that differ, and re-subscribes."""
        for peer in self.map.members:
            if peer == self.runtime_id or peer in self._reported:
                continue
            self._reported.add(peer)
            held = {
                tid: self.store.profile_of(tid)
                for tid in self.store.tids_of_origin(peer)
                if self._owned.intersection(self.store.placements_of(tid))
            }
            payload = {
                "kind": "umiddle-shard-holdings",
                "origin": self.runtime_id,
                "ids": sorted(held),
                "digest": slice_digest(held),
            }
            self._send(payload, 104 + sum(len(t) + 4 for t in held), peer)

    def _warm_ingest(self, gained: Iterable[int]) -> None:
        """Promote local replica slices of newly-owned shards straight
        into the authoritative store, instead of serving nothing until
        every origin's membership-change re-push lands.  Promotion reuses
        the in-memory profile objects (no wire dicts to re-parse), which
        is what makes handoff ingest measurably faster than the PR 6 cold
        path.  Tombstoned origins are filtered -- a promotion must never
        resurrect reaped state -- and origin re-push remains the
        authoritative repair behind it: promotions from remote origins
        are recorded as *provisional* and evicted again if the origin's
        next complete re-push no longer claims them (their removal may
        have raced the handoff; the remove was addressed to the old
        owner and died with it)."""
        promoted = 0
        dropped = []
        promoted_slices: Dict[str, List[str]] = {}
        local_ids = {
            profile.translator_id
            for profile in self.directory._local_profiles()
        }
        now = self.runtime.kernel.now
        for shard in sorted(gained):
            slice_ = self.replicas.get(shard)
            if slice_ is None:
                continue
            added = []
            stored_tids = []
            replica_batch = []
            for profile in slice_.entries.values():
                if profile.runtime_id in self._lost_origins:
                    continue
                if (
                    profile.runtime_id == self.runtime_id
                    and profile.translator_id not in local_ids
                ):
                    # Our own registrations are authoritative locally: a
                    # replicated copy of a profile we since unregistered
                    # must not come back.
                    continue
                content_changed, placement_changed, previous = (
                    self.store.store(profile, (shard,))
                )
                if (
                    previous is None
                    and profile.runtime_id != self.runtime_id
                ):
                    # Only promotions that *enter* the store are
                    # provisional.  An entry already held is independently
                    # justified (journal recovery or a direct origin
                    # push), and any removal of it would have been
                    # addressed straight to us -- whereas a profile we
                    # only know from a replica slice may have been
                    # removed via the old owner while it was unreachable.
                    self._provisional.setdefault(profile.runtime_id, {})[
                        profile.translator_id
                    ] = now
                if content_changed:
                    added.append(profile)
                if content_changed or placement_changed:
                    stored_tids.append(profile.translator_id)
                    replica_batch.append(profile)
            if stored_tids:
                promoted_slices[str(shard)] = sorted(stored_tids)
                promoted += len(stored_tids)
            if added:
                self._emit_deltas(added=added, removed=())
            if replica_batch and shard in self._owned:
                self._replicate_store({shard: replica_batch})
            self.replicas.drop(shard)
            dropped.append(shard)
        if promoted_slices:
            # The promoted profiles are already journaled as slice
            # content (``shard-replica`` records): this record is only a
            # pointer, which is what keeps warm ingest free of the cold
            # path's per-profile serialization.
            self.runtime.journal.append(
                "shard-promote", {"slices": promoted_slices}
            )
        if dropped:
            self.runtime.journal.append(
                "shard-replica-drop", {"shards": sorted(dropped)}
            )
        if promoted:
            self.warm_ingests += promoted
            if self.runtime.tracing:
                self.runtime.trace(
                    "shard.warm-ingest",
                    f"{promoted} profile(s) promoted from {len(dropped)} "
                    "replica slice(s) on ownership handoff",
                    promoted=promoted,
                    shards=len(dropped),
                )

    def _reap_stale_promotions(
        self, origin: str, claimed: Set[str]
    ) -> None:
        """A complete re-push from ``origin`` just restated its full live
        set: any provisional warm-ingest promotion from that origin it no
        longer claims was a removal that raced the handoff -- evict it,
        never letting a replica slice resurrect a withdrawn profile."""
        pending = self._provisional.pop(origin, None)
        if not pending:
            return
        for tid in sorted(pending):
            if tid in claimed:
                continue
            held = self.store.profile_of(tid)
            if held is None or held.runtime_id != origin:
                continue
            self.stale_evictions += 1
            if self.runtime.tracing:
                self.runtime.trace(
                    "shard.stale-evict",
                    f"{tid}: warm-ingested from a replica slice but no "
                    f"longer claimed by origin {origin}",
                    origin=origin,
                )
            self._evict(tid)

    def _reconcile_replica_role(self) -> None:
        """Drop replica slices for shards this node no longer replicates
        under the current map (owned shards were already promoted by
        :meth:`_warm_ingest`).  An over-eager drop under a transiently
        divergent view is harmless: the true primary's next anti-entropy
        digest re-syncs the slice."""
        dropped = []
        for shard in self.replicas.shards():
            if shard in self._owned:
                continue
            if self.runtime_id not in replicas_of(
                self.map, shard, self.replication_factor
            ):
                self.replicas.drop(shard)
                dropped.append(shard)
        if dropped:
            self.runtime.journal.append(
                "shard-replica-drop", {"shards": sorted(dropped)}
            )

    def _sync_replicas(self) -> None:
        """Primary-side anti-entropy: send every replica of every owned
        shard a ``(count, digest)`` summary.  A replica answers with the
        shards whose slice digest mismatches (a brand-new replica's empty
        slice always does) and :meth:`_handle_digest_reply` full-syncs
        exactly those -- one exchange covering bootstrap, partition-heal
        reconciliation and divergence repair."""
        per_peer: Dict[str, Dict[str, list]] = {}
        for shard in self._owned:
            peers = tuple(
                replicas_of(self.map, shard, self.replication_factor)
            )
            self._replica_routes[shard] = peers
            if not peers:
                continue
            slice_profiles = self.store.slice_of(shard)
            digest = slice_digest(
                {p.translator_id: p for p in slice_profiles}
            )
            for peer in peers:
                per_peer.setdefault(peer, {})[str(shard)] = [
                    len(slice_profiles),
                    digest,
                ]
        for peer, shards in per_peer.items():
            payload = {
                "kind": "umiddle-shard-digest",
                "origin": self.runtime_id,
                "shards": shards,
            }
            self._send(payload, 64 + 56 * len(shards), peer)
            self.digests_sent += 1

    def _request_replica_sync(self) -> None:
        """Replica-side anti-entropy: send each primary a summary of the
        slices we should hold for its shards (an absent slice digests as
        empty).  The primary's :meth:`_handle_digest` compares against
        its authoritative slice and full-syncs mismatches.  Without this
        pull direction a warm-restarted replica would stay empty forever:
        its lease never expired at the primary, so no membership change
        ever triggers the primary-side push digest."""
        per_primary: Dict[str, Dict[str, list]] = {}
        for shard in range(self.map.shard_count):
            if shard in self._owned:
                continue
            if self.runtime_id not in replicas_of(
                self.map, shard, self.replication_factor
            ):
                continue
            owner = self.map.owner(shard)
            if owner is None or owner == self.runtime_id:
                continue
            slice_ = self.replicas.get(shard)
            entries = slice_.entries if slice_ is not None else {}
            per_primary.setdefault(owner, {})[str(shard)] = [
                len(entries),
                slice_digest(entries),
            ]
        for primary, shards in per_primary.items():
            payload = {
                "kind": "umiddle-shard-digest",
                "origin": self.runtime_id,
                "shards": shards,
            }
            self._send(payload, 64 + 56 * len(shards), primary)
            self.digests_sent += 1

    def origin_lost(self, runtime_id: str) -> None:
        """An origin runtime is conclusively gone (lease expiry or
        transport give-up): reap the profiles it placed on our shards, the
        shard-layer analog of the flat directory's lease reaping."""
        if not self.enabled or not self.active:
            return
        if runtime_id == self.runtime_id:
            return
        self._lost_origins.add(runtime_id)
        self._provisional.pop(runtime_id, None)
        self._interest_drop_subscriber(runtime_id)
        if self.replicated and self.replicas.drop_origin(runtime_id):
            # Replica slices reap lost origins too (the tombstone extends
            # to the replica plane): a degraded read or a later warm
            # ingest must never resurrect what the primary plane reaped.
            self.runtime.journal.append(
                "shard-replica-origin", {"origin": runtime_id}
            )
        tids = self.store.tids_of_origin(runtime_id)
        if not tids:
            return
        removed_profiles = []
        for tid in tids:
            profile = self.store.remove(tid)
            if profile is not None:
                self.runtime.journal.append(
                    "shard-remove", {"translator_id": tid}
                )
                removed_profiles.append(profile)
        if removed_profiles:
            if self.runtime.tracing:
                self.runtime.trace(
                    "shard.origin-reaped",
                    f"{runtime_id}: {len(removed_profiles)} stored "
                    "profile(s) reaped",
                    reaped=len(removed_profiles),
                )
            self._emit_deltas(added=(), removed=removed_profiles)
            self._replicate_removals(removed_profiles)

    def sweep(self) -> None:
        """Periodic lease-style cleanup (ridden by the directory sweeper):
        origins and subscribers absent from the membership view are
        forgotten once the post-start grace (one directory lease) passed --
        covering peers that died while this node was down."""
        if not self.enabled or not self.active:
            return
        from repro.core.directory import LEASE

        if self._rejoining:
            # The first sweep tick after a restart closes the rejoin:
            # members of the kept view that have not announced again by
            # now are gone, and the one rebalance moves their shards.
            self.membership_changed(rejoin_due=True)
        # Age out placements directed at us under a membership view that
        # never materialized here.  A sender whose lease expiry simply
        # fired before ours directs shards we are *about* to inherit, so
        # an unowned placement is only stale once it stayed unowned for a
        # full lease -- after which every view has converged and the map
        # is authoritative.
        now = self.runtime.kernel.now
        stale = []
        for shard in self.store.stored_shards():
            if shard in self._owned:
                self._foreign_since.pop(shard, None)
                continue
            since = self._foreign_since.setdefault(shard, now)
            if now - since > LEASE:
                stale.append(shard)
        if stale:
            for shard in stale:
                self.store.drop_shard(shard)
                del self._foreign_since[shard]
            self.runtime.journal.append(
                "shard-drop", {"shards": sorted(stale)}
            )
        # A tombstoned origin that reannounced is alive again.
        self._lost_origins -= set(self.directory._runtimes)
        # Backstop for the reconcile: a provisional promotion whose origin
        # never restated it within a full lease is stale.  A live origin
        # rebalances (and completely re-pushes) within a lease of the
        # membership change that triggered the promotion, and a push that
        # would claim the entry always reaches us -- the entry's own
        # shards map here -- so silence means the profile is gone.
        if self.replicated and self._provisional:
            for origin in list(self._provisional):
                pending = self._provisional[origin]
                expired = [
                    tid
                    for tid, since in pending.items()
                    if now - since > LEASE
                ]
                for tid in expired:
                    del pending[tid]
                    held = self.store.profile_of(tid)
                    if held is None or held.runtime_id != origin:
                        continue
                    self.stale_evictions += 1
                    if self.runtime.tracing:
                        self.runtime.trace(
                            "shard.stale-evict",
                            f"{tid}: warm-ingested promotion never "
                            f"restated by origin {origin} within a lease",
                            origin=origin,
                        )
                    self._evict(tid)
                if not pending:
                    del self._provisional[origin]
        if self.runtime.kernel.now - self._started_at < LEASE:
            return
        # Every live peer has announced within a lease of the restart.
        self._reported = None
        members = set(self.directory._runtimes)
        members.add(self.runtime_id)
        origins = self.store.origins()
        if self.replicated:
            origins = origins | self.replicas.origins()
        for origin in origins - members:
            self.origin_lost(origin)
        for key, subscribers in list(self._interest.items()):
            subscribers &= members
            if not subscribers:
                del self._interest[key]

    # -- placement ---------------------------------------------------------

    def local_registered(self, profile: TranslatorProfile) -> None:
        """A local translator (re)registered or changed health: place it on
        the owners of its key shards."""
        if not self.enabled or not self.active:
            return
        self._place([profile])

    def local_unregistered(self, profile: TranslatorProfile) -> None:
        if not self.enabled or not self.active:
            return
        targets = self._owners_of_shards(self.shards_of_profile(profile))
        payload = None
        for owner in targets:
            if owner == self.runtime_id:
                self._evict(profile.translator_id)
            else:
                if payload is None:
                    payload = {
                        "kind": "umiddle-shard-remove",
                        "origin": self.runtime_id,
                        "ids": [profile.translator_id],
                    }
                self._send(payload, 64 + len(profile.translator_id), owner)

    def _push_local_profiles(self) -> None:
        profiles = self.directory._local_profiles()
        if profiles:
            # A membership-change re-push is *complete*: it is the full
            # statement of this origin's live profiles, so receivers can
            # reconcile provisional warm-ingest promotions against it.
            self._place(profiles, complete=True)

    def _place(
        self,
        profiles: List[TranslatorProfile],
        complete: bool = False,
        only: Optional[str] = None,
    ) -> None:
        """Group profiles by owning runtime and push one batched placement
        message per owner (self-owned shards store directly), or to the
        owner ``only`` alone.

        The push is *sender-directed*: it names the shards each profile is
        being placed under, so an owner whose own membership view lags (it
        has not yet expired the peer whose shards it inherited) still
        records the placement instead of intersecting it away against its
        stale ownership set -- the next rebalance prunes any shard it
        turns out not to own."""
        per_owner: Dict[str, Tuple[List[TranslatorProfile], List[List[int]]]] = {}
        for profile in profiles:
            targets: Dict[str, List[int]] = {}
            for shard in sorted(self.shards_of_profile(profile)):
                owner = self.map.owner(shard)
                if owner is None:
                    owner = self.runtime_id
                targets.setdefault(owner, []).append(shard)
            for owner, shards in targets.items():
                if only is not None and owner != only:
                    continue
                batch, shard_lists = per_owner.setdefault(owner, ([], []))
                batch.append(profile)
                shard_lists.append(shards)
        for owner, (batch, shard_lists) in per_owner.items():
            if owner == self.runtime_id:
                self._admit(batch, shard_lists)
            else:
                payload = {
                    "kind": "umiddle-shard-store",
                    "origin": self.runtime_id,
                    "profiles": [p.to_dict() for p in batch],
                    "digests": [p.wire_digest for p in batch],
                    "shards": shard_lists,
                }
                if complete and self.replicated:
                    # Only stamped on the replica tier: the flat and
                    # factor-1 wire formats stay byte-identical.
                    payload["complete"] = True
                size = 64 + sum(self._profile_wire_size(p) + 48 for p in batch)
                self._send(payload, size, owner)
                self.pushes_sent += 1

    def _owners_of_shards(self, shards: Iterable[int]) -> Set[str]:
        owners = set()
        for shard in shards:
            owner = self.map.owner(shard)
            if owner is None:
                owner = self.runtime_id
            owners.add(owner)
        return owners

    def _admit(
        self,
        profiles: List[TranslatorProfile],
        shard_lists: Optional[List[List[int]]] = None,
    ) -> None:
        """Owner side of placement: store each profile under the union of
        the sender-directed shards and the owned subset of its key shards,
        journal the mutation, and stream deltas to interested subscribers.

        Sender-directed shards are honored even when this node's own
        ownership view does not (yet) cover them: origin re-pushes are the
        only repair mechanism, and lease expiries fire at different times
        on different nodes -- a push for a shard we are about to inherit
        must not be intersected away.  The next rebalance prunes shards we
        never actually own."""
        added = []
        replica_adds: Dict[int, List[TranslatorProfile]] = {}
        for position, profile in enumerate(profiles):
            targets = self.shards_of_profile(profile) & self._owned
            if shard_lists is not None:
                targets |= set(shard_lists[position])
            if not targets and not self._owned:
                # Degenerate pre-membership view (offline tests): store
                # under the profile's shards directly.
                targets = self.shards_of_profile(profile)
            if not targets:
                continue
            content_changed, placement_changed, _previous = self.store.store(
                profile, targets
            )
            if content_changed or placement_changed:
                self.runtime.journal.append(
                    "shard-store",
                    {
                        "profile": profile.to_dict(),
                        "shards": list(
                            self.store.placements_of(profile.translator_id)
                        ),
                    },
                )
                if self.replicated:
                    for shard in targets & self._owned:
                        replica_adds.setdefault(shard, []).append(profile)
            if content_changed:
                added.append(profile)
        if added:
            self._emit_deltas(added=added, removed=())
        if replica_adds:
            self._replicate_store(replica_adds)

    def _evict(self, translator_id: str) -> None:
        profile = self.store.remove(translator_id)
        if profile is None:
            return
        self.runtime.journal.append(
            "shard-remove", {"translator_id": translator_id}
        )
        self._emit_deltas(added=(), removed=[profile])
        self._replicate_removals([profile])

    # -- replica streaming --------------------------------------------------

    def _replica_peers(self, shard: int) -> Tuple[str, ...]:
        peers = self._replica_routes.get(shard)
        if peers is None:
            peers = tuple(
                replicas_of(self.map, shard, self.replication_factor)
            )
            self._replica_routes[shard] = peers
        return peers

    def _replicate_store(
        self,
        per_shard: Dict[int, List[TranslatorProfile]],
        full: bool = False,
    ) -> None:
        """Stream freshly-admitted profiles of owned shards to their
        ranked replicas.  The push piggybacks on the existing unicast
        shard plane (same port, same framing discipline as placement and
        delta traffic)."""
        if not self.replicated or not per_shard:
            return
        per_peer: Dict[str, Dict[str, dict]] = {}
        for shard, profiles in per_shard.items():
            for peer in self._replica_peers(shard):
                slices = per_peer.setdefault(peer, {})
                entry = slices.setdefault(
                    str(shard),
                    {
                        "profiles": [],
                        "digests": [],
                        "removed": [],
                        "full": full,
                    },
                )
                for profile in profiles:
                    entry["profiles"].append(profile.to_dict())
                    entry["digests"].append(profile.wire_digest)
        self._send_replica_frames(per_peer)

    def _replicate_removals(
        self, profiles: Iterable[TranslatorProfile]
    ) -> None:
        """Stream removals (evictions and origin reaping) to the replicas
        of every owned shard the profiles were placed under, so a slice
        does not keep serving a profile its primary already dropped."""
        if not self.replicated:
            return
        per_peer: Dict[str, Dict[str, dict]] = {}
        for profile in profiles:
            for shard in self.shards_of_profile(profile) & self._owned:
                for peer in self._replica_peers(shard):
                    slices = per_peer.setdefault(peer, {})
                    entry = slices.setdefault(
                        str(shard),
                        {
                            "profiles": [],
                            "digests": [],
                            "removed": [],
                            "full": False,
                        },
                    )
                    entry["removed"].append(profile.translator_id)
        self._send_replica_frames(per_peer)

    def _send_replica_frames(
        self, per_peer: Dict[str, Dict[str, dict]]
    ) -> None:
        for peer, slices in per_peer.items():
            payload = {
                "kind": "umiddle-shard-replica",
                "origin": self.runtime_id,
                "slices": slices,
            }
            size = 64
            for entry in slices.values():
                size += 24
                size += sum(len(d) + 48 for d in entry["profiles"])
                size += sum(len(r) + 4 for r in entry["removed"])
            self._send(payload, size, peer)
            self.replica_pushes_sent += 1

    # -- interest-scoped deltas --------------------------------------------

    def subscribe_routed(self, route_key: Optional[_IndexKey]) -> None:
        """A local standing query registered under ``route_key`` (None =
        not coarsely indexable, interested in everything): make sure the
        key's owner streams us its deltas."""
        if not self.enabled or not self.active:
            return
        record = self._subs_out.get(route_key)
        if record is None:
            record = {"count": 0, "owners": set()}
            self._subs_out[route_key] = record
        record["count"] += 1
        self._route_subscription(route_key, record)

    def unsubscribe_routed(self, route_key: Optional[_IndexKey]) -> None:
        if not self.enabled or not self.active:
            return
        record = self._subs_out.get(route_key)
        if record is None:
            return
        record["count"] -= 1
        if record["count"] > 0:
            return
        del self._subs_out[route_key]
        payload = self._interest_frame("umiddle-shard-unsubscribe", route_key)
        for owner in record["owners"]:
            self._send(payload, 96, owner)

    def _interest_frame(self, kind: str, route_key: Optional[_IndexKey]) -> dict:
        return {
            "kind": kind,
            "origin": self.runtime_id,
            "key": list(route_key) if route_key is not None else None,
        }

    def _route_subscription(
        self, route_key: Optional[_IndexKey], record: Dict, fresh: bool = False
    ) -> None:
        """(Re)register interest with the key's current owner(s): the new
        ones, or with ``fresh`` every one of them."""
        if route_key is None:
            targets = set(self.map.members) or {self.runtime_id}
        else:
            # Interest covers every sub-shard of the key: whichever owner
            # a matching profile's salt lands on must reach us.
            targets = {
                owner if owner is not None else self.runtime_id
                for owner in self.map.read_plan(route_key)
            }
        stale = record["owners"] - targets
        if stale:
            payload = self._interest_frame("umiddle-shard-unsubscribe", route_key)
            for owner in stale:
                self._send(payload, 96, owner)
        for owner in targets if fresh else targets - record["owners"]:
            self._send(
                self._interest_frame("umiddle-shard-subscribe", route_key),
                96,
                owner,
            )
        record["owners"] = targets

    def _reroute_subscriptions(self, fresh: bool = False) -> None:
        for route_key, record in self._subs_out.items():
            self._route_subscription(route_key, record, fresh)

    def _interest_drop_subscriber(self, runtime_id: str) -> None:
        for key, subscribers in list(self._interest.items()):
            subscribers.discard(runtime_id)
            if not subscribers:
                del self._interest[key]

    def _emit_deltas(
        self,
        added: Iterable[TranslatorProfile],
        removed: Iterable[TranslatorProfile],
    ) -> None:
        """Stream a store change only to subscribers whose interest set
        covers one of the affected profiles' keys."""
        if not self._interest:
            return
        per_subscriber: Dict[str, Dict[str, list]] = {}

        def targets_for(profile: TranslatorProfile) -> Set[str]:
            targets = set(self._interest.get(None, ()))
            for key in profile.index_keys():
                subscribers = self._interest.get(key)
                if subscribers:
                    targets |= subscribers
            return targets

        for profile in added:
            for subscriber in targets_for(profile):
                bucket = per_subscriber.setdefault(
                    subscriber, {"profiles": [], "digests": [], "removed": []}
                )
                bucket["profiles"].append(profile.to_dict())
                bucket["digests"].append(profile.wire_digest)
        for profile in removed:
            for subscriber in targets_for(profile):
                bucket = per_subscriber.setdefault(
                    subscriber, {"profiles": [], "digests": [], "removed": []}
                )
                bucket["removed"].append(profile.translator_id)
        for subscriber, delta in per_subscriber.items():
            payload = {
                "kind": "umiddle-shard-delta",
                "origin": self.runtime_id,
                "profiles": delta["profiles"],
                "digests": delta["digests"],
                "removed": delta["removed"],
            }
            size = 64 + sum(len(d) + 48 for d in delta["profiles"]) + sum(
                len(r) + 4 for r in delta["removed"]
            )
            self._send(payload, size, subscriber)
            self.deltas_sent += 1

    # -- lookups -----------------------------------------------------------

    def lookup(self, query: Query) -> List[TranslatorProfile]:
        """Sharded lookup: route by the query's first index key to the
        owners of its sub-shards (TTL cache for hot keys), fan out + merge
        when the query has no indexable key, and overlay the local
        directory view (own translators are visible before placement
        propagates).

        The owners come from the view's read plan for the key
        (:meth:`ShardMap.read_plan`), grouped once per view, not per
        lookup; every candidate is filtered by the query's
        :attr:`~repro.core.query.Query.predicate`.

        Results are ordered healthy-first, then by translator id -- the
        flat path's per-node registration order has no global analog."""
        keys = query.index_keys()
        if not keys:
            matched = self._fanout_scan(query)
        else:
            route_key = keys[0]
            plan = self.map.read_plan(route_key)
            local = None in plan or self.runtime_id in plan
            matched = []
            if local:
                self.local_lookups += 1
                matched.extend(self.store.lookup(query))
            if len(plan) > local:  # an owner besides this node
                bucket = self._routed_bucket(route_key, plan)
                matched.extend(filter(query.predicate, bucket))
        if self._lost_origins:
            # A peer whose lease expiry fires after ours (or a stale TTL
            # cache entry) can still serve profiles from an origin this
            # node already reaped; the flat path would never show them.
            alive = self.directory._runtimes
            matched = [
                p
                for p in matched
                if p.runtime_id not in self._lost_origins
                or p.runtime_id in alive
            ]
        merged = {profile.translator_id: profile for profile in matched}
        for profile in self.directory.lookup_local(query):
            merged.setdefault(profile.translator_id, profile)
        return self._order(list(merged.values()), query)

    def _quarantined_peer(self, runtime_id: str) -> bool:
        """Owner suspicion feeding failover: a quarantined primary is
        skipped in favor of its replicas -- but only once replicas exist
        to fail over to, so the single-homed path never turns a
        reachable-but-suspect owner into an unavailable shard."""
        if not self.replicated:
            return False
        monitor = self.runtime.health
        if not monitor.enabled:
            return False
        return monitor.peer_health(runtime_id) is HealthState.QUARANTINED

    def _routed_bucket(
        self, route_key: _IndexKey, plan: _ReadPlan
    ) -> Tuple[TranslatorProfile, ...]:
        """The merged remote bucket for one key: one RPC per distinct
        sub-shard owner in the read plan other than this node, replica
        failover per shard, TTL-cached as a unit.

        A reachable, non-quarantined primary serves its whole key bucket
        authoritatively.  An unreachable one fails over shard by shard:
        every sub-shard of the key the dead owner held is read from its
        ranked replicas as an explicitly-traced degraded read (never
        cached) carrying the slice's bounded-staleness marker.  A
        reachable replica holding no slice vouches the sub-shard empty
        (a primary streams a slice the moment it holds an entry, and
        slices are journaled, so absence at a live replica means absence
        -- modulo the same sync lag every degraded read accepts).  Only
        a sub-shard with no reachable replica at all falls through: a
        stale cache entry backfills, and a route with none of the three
        raises :class:`ShardUnavailable` instead of silently returning a
        wrong partial answer served by a non-holder."""
        now = self.runtime.kernel.now
        cached = self._cache.get(route_key)
        if (
            cached is not None
            and self.cache_ttl > 0
            and now - cached[0] <= self.cache_ttl
        ):
            self.cache_hits += 1
            return cached[1]
        fabric = shard_fabric(self.runtime.network)
        merged: Dict[str, TranslatorProfile] = {}
        authoritative = True
        failed: Optional[Tuple[int, str]] = None
        for owner, shards in plan.items():
            if owner == self.runtime_id:
                continue
            router = self._peer_router(fabric, owner)
            if router is not None and not self._quarantined_peer(owner):
                self.routed_lookups += 1
                for profile in router.serve_bucket(route_key):
                    merged.setdefault(profile.translator_id, profile)
                continue
            authoritative = False
            if not self.replicated:
                if failed is None:
                    failed = (shards[0], owner)
                continue
            for shard in shards:
                served = False
                vouched_empty = False
                for candidate in replicas_of(
                    self.map, shard, self.replication_factor
                ):
                    if candidate == self.runtime_id:
                        result = self.serve_replica_bucket(shard, route_key)
                    else:
                        replica_router = self._peer_router(fabric, candidate)
                        if replica_router is None:
                            continue
                        self.routed_lookups += 1
                        result = replica_router.serve_replica_bucket(
                            shard, route_key
                        )
                    if result is None:
                        vouched_empty = True
                        continue
                    replica_bucket, synced_at = result
                    for profile in replica_bucket:
                        merged.setdefault(profile.translator_id, profile)
                    served = True
                    self.degraded_reads += 1
                    if self.runtime.tracing:
                        self.runtime.trace(
                            "shard.degraded-read",
                            f"shard {shard}: primary {owner} unreachable, "
                            f"replica {candidate} served "
                            f"{len(replica_bucket)} profile(s) "
                            f"(staleness {max(0.0, now - synced_at):.3f}s)",
                            shard=shard,
                            staleness=max(0.0, now - synced_at),
                        )
                    break
                if not served and not vouched_empty and failed is None:
                    failed = (shard, owner)
        if failed is not None:
            # Mid-failover window with no live holder for some sub-shard:
            # backfill from the stale cache if we have one; with no cache
            # either the lookup surfaces a structured failure instead of
            # a silently wrong partial answer.
            self.routed_failures += 1
            if cached is None:
                failed_shard, failed_owner = failed
                self.unavailable_lookups += 1
                if self.runtime.tracing:
                    self.runtime.trace(
                        "shard.unavailable",
                        f"shard {failed_shard}: primary {failed_owner} "
                        "unreachable and no replica or cached bucket "
                        f"serves {route_key[0]}={route_key[1]}",
                        shard=failed_shard,
                    )
                raise ShardUnavailable(failed_shard, failed_owner)
            for profile in cached[1]:
                merged.setdefault(profile.translator_id, profile)
        bucket = tuple(merged.values())
        if authoritative:
            self._cache[route_key] = (now, bucket)
        if self.runtime.tracing:
            owners = len(plan) - (self.runtime_id in plan)
            self.runtime.trace(
                "shard.lookup-routed",
                f"{route_key[0]}={route_key[1]} -> "
                f"{owners} owner(s) "
                f"({len(bucket)} candidate(s))",
                owners=owners,
            )
        return bucket

    def _fanout_scan(self, query: Query) -> List[TranslatorProfile]:
        self.fanout_lookups += 1
        fabric = shard_fabric(self.runtime.network)
        merged: Dict[str, TranslatorProfile] = {}
        members = self.map.members or (self.runtime_id,)
        for member in members:
            if member == self.runtime_id:
                matches = self.store.scan(query)
            else:
                router = self._peer_router(fabric, member)
                if router is None:
                    continue
                self.routed_lookups += 1
                matches = router.serve_scan(query)
            for profile in matches:
                merged.setdefault(profile.translator_id, profile)
        return list(merged.values())

    def serve_bucket(self, route_key: _IndexKey) -> List[TranslatorProfile]:
        """Owner side of a routed lookup: the full bucket for one key."""
        bucket = self.store.bucket(route_key)
        self.bucket_serves += 1
        self.bucket_bytes_served += sum(self._profile_wire_size(p) for p in bucket)
        return bucket

    def serve_replica_bucket(
        self, shard: int, route_key: _IndexKey
    ) -> Optional[Tuple[List[TranslatorProfile], float]]:
        """Replica side of a degraded read: the bucket held in one replica
        slice plus the slice's last-sync instant (the bounded-staleness
        marker the reader traces), or ``None`` when this node holds no
        slice for the shard."""
        slice_ = self.replicas.get(shard)
        if slice_ is None:
            return None
        bucket = self.replicas.bucket(shard, route_key)
        self.bucket_serves += 1
        self.bucket_bytes_served += sum(
            self._profile_wire_size(p) for p in bucket
        )
        return bucket, slice_.synced_at

    def serve_scan(self, query: Query) -> List[TranslatorProfile]:
        self.scan_serves += 1
        return self.store.scan(query)

    def _order(
        self, matched: List[TranslatorProfile], query: Query
    ) -> List[TranslatorProfile]:
        monitor = self.runtime.health
        if not monitor.enabled:
            matched.sort(key=lambda profile: profile.translator_id)
            return matched
        decorated = []
        for profile in matched:
            rank = monitor.effective_rank(profile)
            if rank >= 2 and not query.include_quarantined:
                continue
            decorated.append((rank, profile.translator_id, profile))
        decorated.sort()
        return [profile for _rank, _tid, profile in decorated]

    # -- message plane ------------------------------------------------------

    def handle(self, payload: dict) -> None:
        """Dispatch one ``umiddle-shard-*`` payload (directory receiver)."""
        if not self.enabled or not self.active:
            return
        kind = payload.get("kind")
        # No origin==self guard: all shard traffic is unicast, and a
        # self-targeted send (we own the shard a local subscription or
        # placement routes to) legitimately short-circuits through here.
        origin = payload.get("origin")
        if kind == "umiddle-shard-store":
            self.stores_received += 1
            digests = payload.get("digests") or [None] * len(payload["profiles"])
            batch = [
                TranslatorProfile.from_dict(data, digest=digest)
                for data, digest in zip(payload["profiles"], digests)
            ]
            self._admit(batch, payload.get("shards"))
            if self.replicated:
                claimed = {p.translator_id for p in batch}
                pending = self._provisional.get(origin)
                if pending:
                    for tid in claimed:
                        pending.pop(tid, None)
                if payload.get("complete"):
                    self._reap_stale_promotions(origin, claimed)
        elif kind == "umiddle-shard-remove":
            self.removes_received += 1
            for translator_id in payload["ids"]:
                self._evict(translator_id)
        elif kind == "umiddle-shard-holdings":
            self._handle_holdings(origin, payload)
        elif kind == "umiddle-shard-subscribe":
            self._handle_subscribe(origin, payload.get("key"))
        elif kind == "umiddle-shard-unsubscribe":
            key = payload.get("key")
            route_key = tuple(key) if key is not None else None
            subscribers = self._interest.get(route_key)
            if subscribers is not None:
                subscribers.discard(origin)
                if not subscribers:
                    del self._interest[route_key]
        elif kind == "umiddle-shard-delta":
            self.deltas_received += 1
            self.directory.apply_shard_delta(
                origin,
                payload.get("profiles", ()),
                payload.get("digests"),
                payload.get("removed", ()),
            )
        elif kind == "umiddle-shard-replica":
            if self.replicated:
                self._handle_replica(origin, payload)
        elif kind == "umiddle-shard-digest":
            if self.replicated:
                self._handle_digest(origin, payload)
        elif kind == "umiddle-shard-digest-reply":
            if self.replicated:
                self._handle_digest_reply(origin, payload)

    def _replicates(self, shard: int) -> bool:
        return self.runtime_id in replicas_of(
            self.map, shard, self.replication_factor
        )

    def _handle_replica(self, origin: str, payload: dict) -> None:
        """Replica side of the primary's slice stream: apply each pushed
        slice unless the sender is not the shard's current primary under
        this receiver's membership view -- the fence that keeps a deposed
        primary from resurrecting reaped state.  The membership view is
        the authority anchor used everywhere else in the directory, so it
        is the authority anchor here too."""
        self.replica_pushes_received += 1
        now = self.runtime.kernel.now
        for shard_key, entry in (payload.get("slices") or {}).items():
            shard = int(shard_key)
            if self.map.owner(shard) != origin:
                self.fenced_frames += 1
                if self.runtime.tracing:
                    self.runtime.trace(
                        "shard.fenced",
                        f"push for shard {shard} from non-owner {origin} "
                        "rejected",
                        shard=shard,
                    )
                continue
            if not self._replicates(shard):
                # A primary whose view is out of date addressed the wrong
                # replica: a slice kept here would be an orphan that no
                # anti-entropy round ever compares again.
                continue
            profile_dicts = entry.get("profiles") or []
            digests = entry.get("digests") or [None] * len(profile_dicts)
            profiles = [
                TranslatorProfile.from_dict(data, digest=digest)
                for data, digest in zip(profile_dicts, digests)
            ]
            removed = entry.get("removed") or []
            full = bool(entry.get("full"))
            self.replicas.apply_store(shard, profiles, now, full=full)
            if removed:
                self.replicas.apply_remove(shard, removed, now)
            # The applied profiles' own wire dicts (equal to the payload's,
            # key order included): the journal mirror then shares them
            # with the live profiles instead of keeping the decoded copies.
            self.runtime.journal.append(
                "shard-replica",
                {
                    "shard": shard,
                    "profiles": [profile.to_dict() for profile in profiles],
                    "removed": list(removed),
                    "full": full,
                },
            )

    def _handle_digest(self, origin: str, payload: dict) -> None:
        """Anti-entropy digest receiver, both directions.

        As a *replica* (the digested shard is owned by the sender):
        compare the primary's per-shard slice summaries with local slices
        and answer with the shards whose content mismatches.

        As the *primary* (we own the digested shard and the sender is one
        of its replicas): compare the replica's summary against the
        authoritative slice and full-sync mismatches directly.  This is
        the pull path a rejoining replica needs -- its own restart never
        changes the primary's membership view (the lease never expired),
        so the primary-side push digest would never fire."""
        mismatched = []
        stale_held = []
        for shard_key, summary in (payload.get("shards") or {}).items():
            shard = int(shard_key)
            count, digest = int(summary[0]), summary[1]
            if shard in self._owned:
                # Primary side: resync a divergent replica on request.
                if origin not in replicas_of(
                    self.map, shard, self.replication_factor
                ):
                    continue
                profiles = self.store.slice_of(shard)
                mine = slice_digest(
                    {p.translator_id: p for p in profiles}
                )
                if len(profiles) != count or mine != digest:
                    stale_held.append(shard)
                continue
            # Replica side.  Same owner-anchored fence as
            # _handle_replica: a digest from a sender that is not the
            # current map owner is a deposed primary's.  Refuse the
            # exchange instead of inviting a stale sync.
            if self.map.owner(shard) != origin:
                self.fenced_frames += 1
                continue
            if not self._replicates(shard):
                continue
            slice_ = self.replicas.get(shard)
            if slice_ is None:
                if count:
                    mismatched.append(shard)
                continue
            if len(slice_.entries) != count or slice_.digest() != digest:
                mismatched.append(shard)
        if stale_held:
            self._full_sync(origin, stale_held)
        if not mismatched:
            return
        self.digest_replies += 1
        self._send(
            {
                "kind": "umiddle-shard-digest-reply",
                "origin": self.runtime_id,
                "shards": sorted(mismatched),
            },
            64 + 8 * len(mismatched),
            origin,
        )

    def _handle_holdings(self, owner: str, payload: dict) -> None:
        """Origin side of :meth:`_report_holdings`: have a restarted owner
        drop what we unregistered while it was down, re-place our profiles
        on its shards when its copy differs from ours, and register again
        the standing-query interest we route to it (a cold restart lost
        its interest table, and nothing else would re-send it)."""
        for route_key, record in self._subs_out.items():
            if owner in record["owners"]:
                self._send(
                    self._interest_frame("umiddle-shard-subscribe", route_key),
                    96,
                    owner,
                )
        local = {p.translator_id: p for p in self.directory._local_profiles()}
        gone = [tid for tid in payload.get("ids", ()) if tid not in local]
        if gone:
            self._send(
                {
                    "kind": "umiddle-shard-remove",
                    "origin": self.runtime_id,
                    "ids": gone,
                },
                64 + sum(len(tid) + 4 for tid in gone),
                owner,
            )
        placed = {
            tid: profile
            for tid, profile in local.items()
            if owner in self._owners_of_shards(self.shards_of_profile(profile))
        }
        if slice_digest(placed) != payload.get("digest"):
            self._place(list(placed.values()), only=owner)

    def _handle_digest_reply(self, origin: str, payload: dict) -> None:
        """Primary side of anti-entropy: full-sync exactly the shards the
        replica reported divergent that we still own."""
        to_sync = [
            int(shard)
            for shard in payload.get("shards") or ()
            if int(shard) in self._owned
        ]
        self._full_sync(origin, to_sync)

    def _full_sync(self, peer: str, shards: List[int]) -> None:
        """Push the full authoritative slice of each shard to one
        replica -- the repair both anti-entropy directions converge on."""
        slices: Dict[str, dict] = {}
        size = 64
        for shard in shards:
            profiles = self.store.slice_of(shard)
            entry = {
                "profiles": [p.to_dict() for p in profiles],
                "digests": [p.wire_digest for p in profiles],
                "removed": [],
                "full": True,
            }
            slices[str(shard)] = entry
            size += 24 + sum(len(d) + 48 for d in entry["profiles"])
        if not slices:
            return
        self.replica_syncs += len(slices)
        self._send(
            {
                "kind": "umiddle-shard-replica",
                "origin": self.runtime_id,
                "slices": slices,
            },
            size,
            peer,
        )
        self.replica_pushes_sent += 1

    def _handle_subscribe(self, origin: str, key) -> None:
        route_key = tuple(key) if key is not None else None
        self._interest.setdefault(route_key, set()).add(origin)
        # Initial sync: the subscriber gets the current bucket at once so a
        # standing query re-routed to a new owner never misses the state
        # that predates its subscription.
        if route_key is None:
            current = list(self.store._profiles.values())
        else:
            current = self.store.bucket(route_key)
        if not current:
            return
        payload = {
            "kind": "umiddle-shard-delta",
            "origin": self.runtime_id,
            "profiles": [p.to_dict() for p in current],
            "digests": [p.wire_digest for p in current],
            "removed": [],
        }
        size = 64 + sum(self._profile_wire_size(p) + 48 for p in current)
        self._send(payload, size, origin)
        self.deltas_sent += 1

    def _send(self, payload: dict, size: int, runtime_id: str) -> None:
        """Ship one shard-plane payload to a peer router.

        Live runtimes use real datagrams on the directory port; a router
        without a socket (offline tests/benchmarks) dispatches directly
        through the fabric so placement still converges without a kernel.
        Self-targeted sends always short-circuit in process.

        Under the data plane, bulk payloads (slice pushes, cold-ingest
        stores, anti-entropy full syncs, initial subscription syncs) ship
        as zlib-compressed self-contained frames charged at their *actual*
        encoded size; everything else keeps the declared-size dict
        datagram.  Every receiver decodes both.
        """
        if runtime_id == self.runtime_id:
            self.handle(payload)
            return
        socket = self.directory._socket
        if socket is not None and not socket.closed:
            info = self.directory.runtime_info(runtime_id)
            if info is None:
                return
            if size >= Z_MIN_BYTES and self.runtime.data_plane_enabled:
                frame = encode_gossip(payload, compress=True)
                self.z_frames_sent += 1
                self.z_bytes_saved += max(0, size - frame.wire_size)
                socket.sendto(frame, frame.wire_size, info.address, info.directory_port)
                return
            socket.sendto(payload, size, info.address, info.directory_port)
            return
        router = shard_fabric(self.runtime.network).get(runtime_id)
        if router is not None:
            self.direct_dispatches += 1
            router.handle(payload)
