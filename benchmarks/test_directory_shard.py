"""Sharded directory benchmark: per-node state and lookup latency at
federation scale, sharded versus flat.

The flat directory replicates every profile on every node, so per-node
memory and full-state apply grow linearly with the federation.  The
rendezvous-sharded directory stores each profile only on the owners of
its key shards, so per-node state stays roughly constant as the
population *and* the node count grow together (the deployment story: more
translators arrive because more nodes arrived).

Three scales, nodes growing with population:

- 5k translators across 8 nodes,
- 25k across 40,
- 100k across 160.

Measured per scale, wall clock:

- per-node state: profiles held, index postings and estimated bytes on
  the fattest sharded node versus the flat replica (which holds it all);
- keyed lookup latency p50/p99 through the routed path (cache disabled --
  every lookup pays the owner round trip) versus the flat indexed lookup,
  with a fixed-selectivity query (~20 matches at every scale) so latency
  measures the mechanism, not the result size;
- keyless lookup latency p50: a mixed-case ``name_contains`` query that
  matches one profile fans out to every node, which scans its whole
  store (reported, not gated);
- slice apply: cold-ingesting one node's authoritative shard slice versus
  cold-applying the full federation state flat (the recovering-node /
  newcomer story).

Plus the gate for the default path: with sharding off, ``lookup`` must
cost the same as calling the flat directory directly.

Results land in ``BENCH_directory_shard.json`` at the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.runtime import UMiddleRuntime
from repro.core.shapes import Direction, PortSpec, Shape
from repro.testbed import build_testbed

#: (population, node count): nodes scale with the federation.
SCALES = ((5_000, 8), (25_000, 40), (100_000, 160))
SHARD_COUNT = 1024
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_directory_shard.json"

PLATFORMS = ("upnp", "jini", "bluetooth", "motes", "webservices")
ROLES = ("display", "sensor", "printer", "player", "storage")
MIMES = (
    "text/plain",
    "image/jpeg",
    "audio/wav",
    "application/postscript",
    "video/mpeg",
)

#: Matches per device-type query, held constant across scales by scaling
#: the number of device types with the population.
MATCHES_PER_TYPE = 20

#: Keyless lookups timed per scale: each scans every node's whole store.
KEYLESS_SAMPLES = 9


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
    Shard placement traffic short-circuits through the in-process fabric."""
    node = bed.add_host(host)
    return UMiddleRuntime(
        node, name=f"bench-{host}", auto_start=False, journal_enabled=False,
        **kwargs,
    )


def best_timing(fn, repeat: int = 5, number: int = 100) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def build_cluster(bed, population: int, nodes: int):
    cluster = [
        offline_runtime(
            bed,
            f"shard-{population}-{i}",
            sharding_enabled=True,
            shard_count=SHARD_COUNT,
        )
        for i in range(nodes)
    ]
    members = [runtime.runtime_id for runtime in cluster]
    for runtime in cluster:
        runtime.shards.seed_members(members)
        runtime.shards.cache_ttl = 0.0  # every lookup pays the routed path
    profiles = []
    for index in range(population):
        origin = cluster[index % nodes]
        profile = make_profile(index, population, origin.runtime_id)
        origin.directory.register(profile)
        profiles.append(profile)
    return cluster, profiles


def bench_lookup_latency(reader, population: int, flat) -> dict:
    types = max(1, population // MATCHES_PER_TYPE)
    probe = Query(device_type="type-0")
    routed = reader.lookup(probe)
    assert len(routed) == MATCHES_PER_TYPE
    assert [p.translator_id for p in routed] == sorted(
        p.translator_id for p in flat.directory.lookup_local(probe)
    )

    samples = []
    step = max(1, types // 200)
    inner = 20
    for type_index in range(0, min(types, 200 * step), step):
        query = Query(device_type=f"type-{type_index}")
        start = time.perf_counter()
        for _ in range(inner):
            reader.lookup(query)
        samples.append((time.perf_counter() - start) / inner)
    flat_s = best_timing(lambda: flat.directory.lookup_local(probe), number=200)

    keyless = []
    for sample in range(KEYLESS_SAMPLES):
        index = sample * population // KEYLESS_SAMPLES
        query = Query(name_contains=f"SVC-{index:06d}")
        start = time.perf_counter()
        found = reader.lookup(query)
        keyless.append(time.perf_counter() - start)
        assert [p.translator_id for p in found] == [f"t-{index:06d}"]
    return {
        "queries_sampled": len(samples),
        "sharded_p50_us": round(percentile(samples, 0.50) * 1e6, 3),
        "sharded_p99_us": round(percentile(samples, 0.99) * 1e6, 3),
        "flat_indexed_us": round(flat_s * 1e6, 3),
        "keyless_sampled": len(keyless),
        "keyless_fanout_p50_us": round(percentile(keyless, 0.50) * 1e6, 3),
    }


def bench_per_node_state(cluster, flat, population: int) -> dict:
    held = [rt.shards.store.profile_count for rt in cluster]
    fattest = max(range(len(cluster)), key=lambda i: held[i])
    store = cluster[fattest].shards.store
    flat_bytes = sum(
        entry.profile.estimated_size()
        for entry in flat.directory._entries.values()
    )
    mean_held = sum(held) / len(held)
    return {
        "nodes": len(cluster),
        "max_profiles_per_node": held[fattest],
        "mean_profiles_per_node": round(mean_held, 1),
        # Placement skew: how much fatter the fattest node is than the
        # mean (hot keys spread over KEY_SPLIT sub-shards).
        "fattest_node_ratio": round(held[fattest] / mean_held, 3),
        "max_postings_per_node": store.posting_count,
        "max_bytes_per_node": store.estimated_bytes(),
        "flat_profiles_per_node": population,
        "flat_bytes_per_node": flat_bytes,
        "memory_ratio": round(population / held[fattest], 1),
    }


def bench_slice_apply(cluster, flat, profiles, population: int, bed) -> dict:
    """Cold-ingest one sharded node's slice vs. the full state flat."""
    subject = max(cluster, key=lambda rt: rt.shards.store.profile_count)
    snapshot = subject.shards.store.snapshot()
    by_id = {p.translator_id: p for p in profiles}
    payload = {
        "kind": "umiddle-shard-store",
        "origin": subject.runtime_id,
        "profiles": [entry["profile"] for entry in snapshot.values()],
        "digests": [by_id[tid].wire_digest for tid in snapshot],
        "shards": [entry["shards"] for entry in snapshot.values()],
    }
    subject.shards.store.clear()
    start = time.perf_counter()
    subject.shards.handle(payload)
    sharded_s = time.perf_counter() - start
    assert subject.shards.store.profile_count == len(snapshot)

    sender = flat
    receiver = offline_runtime(bed, f"flat-recv-{population}")
    full = sender.directory._announcement(
        sender.directory._local_profiles(), [], True, False
    )
    start = time.perf_counter()
    receiver.directory._apply_announcement(full)
    flat_s = time.perf_counter() - start
    assert len(receiver.directory.profiles()) == population
    return {
        "slice_profiles": len(snapshot),
        "sharded_slice_apply_ms": round(sharded_s * 1e3, 3),
        "flat_full_apply_ms": round(flat_s * 1e3, 3),
        "speedup": round(flat_s / sharded_s, 1),
    }


def bench_sharding_off(bed) -> dict:
    """Sharding disabled must not tax the flat lookup path."""
    runtime = offline_runtime(bed, "gate-host")
    assert not runtime.shards.enabled
    for index in range(5_000):
        runtime.directory.register(
            make_profile(index, 5_000, runtime.runtime_id)
        )
    probe = Query(device_type="type-0")
    dispatched_s = best_timing(lambda: runtime.lookup(probe), number=500)
    direct_s = best_timing(
        lambda: runtime.directory.lookup_local(probe), number=500
    )
    return {
        "translators": 5_000,
        "dispatched_us": round(dispatched_s * 1e6, 3),
        "direct_us": round(direct_s * 1e6, 3),
        "overhead_ratio": round(dispatched_s / direct_s, 3),
    }


def test_directory_shard_scale(compare):
    results = []
    for population, nodes in SCALES:
        bed = build_testbed(hosts=[])
        cluster, profiles = build_cluster(bed, population, nodes)
        flat = offline_runtime(bed, f"flat-{population}")
        for profile in profiles:
            flat.directory._store_entry(
                profile, local=True, now=flat.kernel.now
            )
        results.append(
            {
                "translators": population,
                "state": bench_per_node_state(cluster, flat, population),
                "lookup": bench_lookup_latency(cluster[0], population, flat),
                "apply": bench_slice_apply(
                    cluster, flat, profiles, population, bed
                ),
            }
        )

    gate_bed = build_testbed(hosts=[])
    sharding_off = bench_sharding_off(gate_bed)

    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "directory_shard",
                "schema": 2,
                "shard_count": SHARD_COUNT,
                "scales": results,
                "sharding_off": sharding_off,
            },
            indent=2,
        )
        + "\n"
    )

    compare(
        "Sharded vs flat directory (wall clock)",
        ["n", "nodes", "profiles/node", "flat/node", "mem ratio",
         "lookup p50 (us)", "lookup p99 (us)", "flat idx (us)",
         "keyless p50 (us)", "slice apply (ms)", "flat apply (ms)"],
        [
            [
                r["translators"],
                r["state"]["nodes"],
                r["state"]["max_profiles_per_node"],
                r["state"]["flat_profiles_per_node"],
                f"{r['state']['memory_ratio']}x",
                r["lookup"]["sharded_p50_us"],
                r["lookup"]["sharded_p99_us"],
                r["lookup"]["flat_indexed_us"],
                r["lookup"]["keyless_fanout_p50_us"],
                r["apply"]["sharded_slice_apply_ms"],
                r["apply"]["flat_full_apply_ms"],
            ]
            for r in results
        ],
    )

    small = next(r for r in results if r["translators"] == 5_000)
    large = next(r for r in results if r["translators"] == 100_000)

    # Per-node state must grow sub-linearly: 20x the population (with
    # nodes scaled alongside) must not mean 20x the per-node state.  The
    # mean is the expected per-node burden; the worst node (which may
    # draw several hot-key sub-shards in the rendezvous lottery) is gated
    # separately: at 100k it must still hold at least 5x less than flat.
    growth = (
        large["state"]["mean_profiles_per_node"]
        / small["state"]["mean_profiles_per_node"]
    )
    assert growth < 4.0, f"per-node state grew {growth:.1f}x over a 20x scale-up"
    assert large["state"]["memory_ratio"] >= 5.0, (
        f"sharding only bought {large['state']['memory_ratio']}x at 100k"
    )

    # Routed lookup latency must stay roughly flat across the scale-up
    # (p50), with a loose guard on the tail.
    latency_growth = (
        large["lookup"]["sharded_p50_us"] / small["lookup"]["sharded_p50_us"]
    )
    assert latency_growth < 3.0, (
        f"routed lookup p50 grew {latency_growth:.1f}x from 5k to 100k"
    )
    tail_growth = (
        large["lookup"]["sharded_p99_us"] / small["lookup"]["sharded_p99_us"]
    )
    assert tail_growth < 10.0, (
        f"routed lookup p99 grew {tail_growth:.1f}x from 5k to 100k"
    )

    # Cold-starting a sharded node ingests a slice, not the world.
    assert large["apply"]["speedup"] >= 5.0, (
        f"slice apply only {large['apply']['speedup']}x faster than flat"
    )

    # And the default path must not pay for any of it.
    assert sharding_off["overhead_ratio"] < 1.5, (
        f"sharding-off dispatch costs {sharding_off['overhead_ratio']}x"
    )
