"""Replicated shard availability benchmark: what the replica tier buys
when a primary dies, and what handoff costs.

A single-homed shard blacks out its keyed lookups the moment the owner
becomes unreachable, until lease reaping hands the shard to a new owner
and origins re-push (PR 6 behavior).  With ``replication_factor=2`` each
shard also lives on one ranked replica, so the same lookups keep
answering as explicitly-traced degraded reads.

Measured at 5k translators across 8 nodes (shard count 1024), wall
clock:

- keyed lookup latency p50/p99 through the routed path with every
  primary healthy, versus the same victim-owned keys served degraded
  (replica failover) after one primary is deactivated -- with result
  correctness checked against a flat oracle holding every profile;
- the same dead-primary probe on an identically built
  ``replication_factor=1`` cluster, counting the structured
  ``ShardUnavailable`` failures the replica tier exists to remove;
- handoff ingest: promoting the victim's shards from the survivors'
  replica slices (:meth:`_warm_ingest`, in-memory profile objects)
  versus cold-ingesting the same profiles from their wire dicts (the
  PR 6 recovery path) on a fresh node.

Results land in ``BENCH_shard_availability.json`` at the repository
root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.errors import ShardUnavailable
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.runtime import UMiddleRuntime
from repro.core.shapes import Direction, PortSpec, Shape
from repro.testbed import build_testbed

from conftest import timed_without_gc

POPULATION = 5_000
NODES = 8
SHARD_COUNT = 1024
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_shard_availability.json"

PLATFORMS = ("upnp", "jini", "bluetooth", "motes", "webservices")
ROLES = ("display", "sensor", "printer", "player", "storage")
MIMES = (
    "text/plain",
    "image/jpeg",
    "audio/wav",
    "application/postscript",
    "video/mpeg",
)

#: Matches per device-type query (fixed selectivity, as in the shard
#: scale benchmark: latency measures the mechanism, not the result size).
MATCHES_PER_TYPE = 20


def make_profile(index: int, population: int, runtime_id: str) -> TranslatorProfile:
    shape = Shape(
        [
            PortSpec.digital("in", Direction.IN, MIMES[index % len(MIMES)]),
            PortSpec.digital(
                "out", Direction.OUT, MIMES[(index + 1) % len(MIMES)]
            ),
        ]
    )
    types = max(1, population // MATCHES_PER_TYPE)
    return TranslatorProfile(
        translator_id=f"t-{index:06d}",
        name=f"svc-{index:06d}",
        platform=PLATFORMS[index % len(PLATFORMS)],
        device_type=f"type-{index % types}",
        role=ROLES[index % len(ROLES)],
        runtime_id=runtime_id,
        shape=shape,
    )


def offline_runtime(bed, host: str, **kwargs) -> UMiddleRuntime:
    """A runtime with no sockets/processes: pure data-structure costs.
    Shard and replica traffic short-circuits through the in-process
    fabric."""
    node = bed.add_host(host)
    return UMiddleRuntime(
        node, name=f"bench-{host}", auto_start=False, journal_enabled=False,
        **kwargs,
    )


def percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def build_cluster(bed, factor: int, tag: str):
    cluster = [
        offline_runtime(
            bed,
            f"avail-{tag}-{i}",
            sharding_enabled=True,
            shard_count=SHARD_COUNT,
            replication_factor=factor,
        )
        for i in range(NODES)
    ]
    members = [runtime.runtime_id for runtime in cluster]
    for runtime in cluster:
        runtime.shards.seed_members(members)
        runtime.shards.cache_ttl = 0.0  # every lookup pays the routed path
    profiles = []
    for index in range(POPULATION):
        origin = cluster[index % NODES]
        profile = make_profile(index, POPULATION, origin.runtime_id)
        origin.directory.register(profile)
        profiles.append(profile)
    return cluster, profiles


def victim_hit_queries(reader, victim_id: str):
    """Device-type queries split by whether any of their read sub-shards
    is owned by the victim (only those degrade when it dies)."""
    types = POPULATION // MATCHES_PER_TYPE
    hitting, clean = [], []
    for type_index in range(types):
        value = f"type-{type_index}"
        owners = set(reader.shards.map.read_plan(("device_type", value)))
        (hitting if victim_id in owners else clean).append(
            Query(device_type=value)
        )
    return hitting, clean


def sample_lookup(reader, queries, inner: int = 10):
    """Per-query mean latency samples across ``queries``."""
    samples = []
    for query in queries:
        start = time.perf_counter()
        for _ in range(inner):
            reader.lookup(query)
        samples.append((time.perf_counter() - start) / inner)
    return samples


def bench_degraded_reads(bed) -> dict:
    cluster, profiles = build_cluster(bed, factor=2, tag="r2")
    reader, victim = cluster[0], cluster[-1]
    flat = offline_runtime(bed, "avail-flat")
    for profile in profiles:
        flat.directory._store_entry(profile, local=True, now=flat.kernel.now)

    hitting, _clean = victim_hit_queries(reader, victim.runtime_id)
    assert hitting, "no device-type key routes to the victim"
    healthy = sample_lookup(reader, hitting)

    victim.shards.deactivate()
    reader.shards._cache.clear()
    before = reader.shards.degraded_reads
    correct = 0
    for query in hitting:
        got = {p.translator_id for p in reader.lookup(query)}
        want = {
            p.translator_id for p in flat.directory.lookup_local(query)
        }
        if got == want:
            correct += 1
    assert reader.shards.degraded_reads > before, (
        "dead primary never triggered a replica failover"
    )
    reader.shards._cache.clear()
    degraded = sample_lookup(reader, hitting)

    # Handoff ingest on the survivors: promote the victim's shards from
    # the replica slices (in-memory profile objects) and time it against
    # cold-ingesting the same profiles from their wire dicts on a fresh
    # node -- the PR 6 recovery path a new owner would otherwise pay.
    warm_s = 0.0
    promoted = []
    promoted_shards = []
    for survivor in cluster[:-1]:
        held = [
            shard
            for shard in survivor.shards.replicas.shards()
            if survivor.shards.map.owner(shard) == victim.runtime_id
        ]
        if not held:
            continue
        for shard in held:
            for profile in survivor.shards.replicas.get(shard).entries.values():
                promoted.append(profile)
                promoted_shards.append([shard])
        warm_s += timed_without_gc(lambda: survivor.shards._warm_ingest(held))
    assert promoted, "no survivor held a replica slice of a victim shard"
    warm_count = len(promoted)

    payload = {
        "kind": "umiddle-shard-store",
        "origin": reader.runtime_id,
        "profiles": [p.to_dict() for p in promoted],
        "digests": [p.wire_digest for p in promoted],
        "shards": promoted_shards,
    }
    cold_s = float("inf")
    for attempt in range(3):
        receiver = offline_runtime(
            bed,
            f"avail-cold-{attempt}",
            sharding_enabled=True,
            shard_count=SHARD_COUNT,
        )
        receiver.shards.seed_members([receiver.runtime_id])
        cold_s = min(cold_s, timed_without_gc(lambda: receiver.shards.handle(payload)))
        assert receiver.shards.store.profile_count == len(
            {p.translator_id for p in promoted}
        )

    return {
        "victim_keys": len(hitting),
        "correct_during_crash": correct,
        "correct_ratio": round(correct / len(hitting), 4),
        "degraded_reads": reader.shards.degraded_reads - before,
        "healthy_p50_us": round(percentile(healthy, 0.50) * 1e6, 3),
        "healthy_p99_us": round(percentile(healthy, 0.99) * 1e6, 3),
        "degraded_p50_us": round(percentile(degraded, 0.50) * 1e6, 3),
        "degraded_p99_us": round(percentile(degraded, 0.99) * 1e6, 3),
        "warm_ingest_profiles": warm_count,
        "warm_ingest_ms": round(warm_s * 1e3, 3),
        "warm_us_per_profile": round(warm_s / warm_count * 1e6, 3),
        "cold_ingest_ms": round(cold_s * 1e3, 3),
        "cold_us_per_profile": round(cold_s / warm_count * 1e6, 3),
        "ingest_speedup": round(cold_s / warm_s, 1) if warm_s else None,
    }


def bench_unreplicated_control(bed) -> dict:
    """The identical dead-primary probe with replication off: the keyed
    lookups the replica tier serves degraded here fail structurally."""
    cluster, _profiles = build_cluster(bed, factor=1, tag="r1")
    reader, victim = cluster[0], cluster[-1]
    hitting, _clean = victim_hit_queries(reader, victim.runtime_id)
    victim.shards.deactivate()
    # The stale-cache backfill would mask the outage: these probes
    # measure the raw single-homed failure mode.
    reader.shards._cache.clear()
    unavailable = 0
    for query in hitting:
        try:
            reader.lookup(query)
        except ShardUnavailable as exc:
            assert exc.retryable
            unavailable += 1
    return {
        "victim_keys": len(hitting),
        "unavailable": unavailable,
        "unavailable_ratio": round(unavailable / len(hitting), 4),
    }


def test_shard_availability(compare):
    bed = build_testbed(hosts=[])
    replicated = bench_degraded_reads(bed)
    control = bench_unreplicated_control(bed)

    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "shard_availability",
                "schema": 1,
                "translators": POPULATION,
                "nodes": NODES,
                "shard_count": SHARD_COUNT,
                "replication_factor": 2,
                "replicated": replicated,
                "unreplicated_control": control,
            },
            indent=2,
        )
        + "\n"
    )

    compare(
        "Keyed lookups through a dead primary (wall clock)",
        ["mode", "victim keys", "correct", "unavailable",
         "p50 (us)", "p99 (us)"],
        [
            [
                "replicated (R=2)",
                replicated["victim_keys"],
                replicated["correct_during_crash"],
                0,
                replicated["degraded_p50_us"],
                replicated["degraded_p99_us"],
            ],
            [
                "healthy baseline",
                replicated["victim_keys"],
                replicated["victim_keys"],
                0,
                replicated["healthy_p50_us"],
                replicated["healthy_p99_us"],
            ],
            [
                "flat (R=1)",
                control["victim_keys"],
                control["victim_keys"] - control["unavailable"],
                control["unavailable"],
                "-",
                "-",
            ],
        ],
    )
    compare(
        "Handoff ingest: replica promotion vs cold wire apply",
        ["profiles", "warm (ms)", "warm us/p", "cold (ms)", "cold us/p",
         "speedup"],
        [
            [
                replicated["warm_ingest_profiles"],
                replicated["warm_ingest_ms"],
                replicated["warm_us_per_profile"],
                replicated["cold_ingest_ms"],
                replicated["cold_us_per_profile"],
                f"{replicated['ingest_speedup']}x",
            ]
        ],
    )

    # The replica tier's availability claim: during a single-primary
    # crash at least 99% of victim-keyed lookups still answer correctly.
    assert replicated["correct_ratio"] >= 0.99, (
        f"only {replicated['correct_ratio']:.1%} of victim-keyed lookups "
        "correct during the crash"
    )
    assert replicated["degraded_reads"] > 0

    # The control shows what those lookups do without replicas: fail.
    assert control["unavailable"] > 0, (
        "unreplicated control never raised ShardUnavailable"
    )

    # Warm handoff ingest reuses in-memory profile objects; it must beat
    # the cold wire-dict ingest of the same profiles at least 2x.
    assert replicated["ingest_speedup"] >= 2.0, (
        f"warm ingest only {replicated['ingest_speedup']}x faster than "
        "cold wire apply"
    )
