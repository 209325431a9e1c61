"""Per-layer metrics of a traced run.

Self times come from the tracer's spans; counts come from the program's
public counters over the traced phase.  "Per op" divides by the
workload's completed operations (a delivered message on telemetry-*, a
directory operation on directory-churn, a recovery on crash-recover);
"per msg" divides by delivered data-plane messages and reads 0 on a
workload that delivers none.
"""

from __future__ import annotations

from typing import Dict

from harness import PROFILES
from stats import quantile

#: The kernel layer's self time is the event loop plus generator-driven
#: code that has no public entry point to wrap: the transport's
#: ``_serve_peer``/``_peer_sender*`` and the directory's ``_receiver``.
KERNEL_LABEL = "kernel (+ transport/directory generators)"


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _per(amount: float, count: int) -> float:
    return amount / count if count else 0.0


def _p99(samples) -> float:
    return quantile(sorted(samples), 99.0) if len(samples) else 0.0


def layer_metrics(workload, tracer) -> Dict[str, dict]:
    d = workload.measured
    ops = workload.ops
    msgs = getattr(workload, "delivered", 0)
    wall = tracer.wall
    self_s = tracer.layer_self()
    us = 1e6
    shard_lookups = tracer.calls_of("ShardRouter.lookup")
    relayed = d["transport.messages_relayed"]
    batching = PROFILES[workload.profile].get("batching_enabled", False)
    frames = d["transport.batches_sent"] if batching else relayed
    encode_kb = tracer.bytes_of(".encode_envelope", ".encode_batch",
                                ".encode_batch_delta", ".encode_gossip",
                                ".encode_journal_body") / 1024.0
    decode_kb = tracer.bytes_of(".decode_frame", ".decode_gossip",
                                ".decode_journal_body") / 1024.0
    encode_s = tracer.time_of(".encode_envelope", ".encode_batch",
                              ".encode_batch_delta", ".encode_gossip",
                              ".encode_journal_body")
    decode_s = tracer.time_of(".decode_frame", ".decode_gossip",
                              ".decode_journal_body")
    codec_calls = sum(
        tracer.calls[nid] for nid, layer in enumerate(tracer.layer_of)
        if layer == "codec"
    )
    lookups = tracer.calls_of("UMiddleRuntime.lookup")
    directory_lookup_s = tracer.time_of(
        "UMiddleRuntime.lookup", "Directory.lookup", "Directory.lookup_local"
    )
    applies = tracer.calls_of("ReplicaStore.apply_store", "ReplicaStore.apply_remove")
    return {
        "kernel.events_per_op": _m(_per(d["events"], ops), "count"),
        "kernel.self_us_per_op": _m(_per(self_s["kernel"] * us, ops), "us"),
        "kernel.self_share": _m(_per(self_s["kernel"], wall), "1"),
        "net.frames_per_msg": _m(_per(d["lan_frames"], ops), "count"),
        "net.drops": _m(d["lan_drops"], "count"),
        "sockets.self_share": _m(_per(self_s["sockets"], wall), "1"),
        "sockets.recv_queue_p99": _m(_p99(tracer.gauges["recv_queue"]), "count"),
        "transport.self_us_per_msg": _m(_per(self_s["transport"] * us, msgs), "us"),
        "transport.envelopes_per_frame": _m(_per(relayed, frames), "count"),
        "transport.retries_per_kmsg": _m(
            _per(d["transport.retries"] * 1000.0, msgs), "count"),
        "transport.duplicates": _m(d["transport.duplicates_suppressed"], "count"),
        "transport.path_depth_p99": _m(_p99(tracer.gauges["path_depth"]), "count"),
        "codec.calls_per_op": _m(_per(codec_calls, ops), "count"),
        "codec.encode_us_per_kb": _m(_per(encode_s * us, encode_kb), "us/KB"),
        "codec.decode_us_per_kb": _m(_per(decode_s * us, decode_kb), "us/KB"),
        "codec.self_share": _m(_per(self_s["codec"], wall), "1"),
        "journal.appends_per_op": _m(_per(d["journal.records_appended"], ops), "count"),
        "journal.fsyncs_per_op": _m(_per(d["journal.fsyncs"], ops), "count"),
        "journal.append_self_us": _m(_per(
            tracer.time_of("Journal.append") * us,
            tracer.calls_of("Journal.append")), "us"),
        "journal.checkpoint_share": _m(_per(
            tracer.time_of("Journal.checkpoint", inclusive=True), wall), "1"),
        "journal.replay_ms": _m(_per(
            tracer.time_of("Journal.replay", inclusive=True) * 1e3,
            tracer.calls_of("Journal.replay")), "ms"),
        "directory.lookup_self_us": _m(_per(directory_lookup_s * us, lookups), "us"),
        "directory.register_self_us": _m(_per(
            tracer.time_of("Directory.register") * us,
            tracer.calls_of("Directory.register")), "us"),
        "directory.self_share": _m(_per(self_s["directory"], wall), "1"),
        "shard.cache_hit_ratio": _m(_per(d["shards.cache_hits"], shard_lookups), "1"),
        "shard.scan_share": _m(_per(d["shards.fanout_lookups"], shard_lookups), "1"),
        "shard.owners_per_lookup": _m(
            _per(d["shards.routed_lookups"], shard_lookups), "count"),
        "shard.handle_self_us": _m(_per(
            tracer.time_of("ShardRouter.handle") * us,
            tracer.calls_of("ShardRouter.handle")), "us"),
        "shard.degraded_reads": _m(d["shards.degraded_reads"], "count"),
        "shard.unavailable": _m(d["shards.unavailable_lookups"], "count"),
        "replica.apply_self_us": _m(_per(
            tracer.time_of("ReplicaStore.apply_store", "ReplicaStore.apply_remove") * us,
            applies), "us"),
        "replica.fenced_frames": _m(d["shards.fenced_frames"], "count"),
        "replica.self_share": _m(_per(self_s["replica"], wall), "1"),
    }


def reconcile(tracer) -> dict:
    """Layer self times plus time outside any span, against the traced
    wall time they must add up to."""
    self_s = tracer.layer_self()
    layers_s = sum(self_s.values())
    wall = tracer.wall
    shares = {
        (KERNEL_LABEL if layer == "kernel" else layer): seconds / wall
        for layer, seconds in self_s.items()
    }
    shares["outside any span (benchmark harness)"] = tracer.outside / wall
    return {
        "wall_s": wall,
        "layers_s": layers_s,
        "outside_s": tracer.outside,
        "residual_s": wall - layers_s - tracer.outside,
        "shares": shares,
        "by_name": tracer.by_name(),
    }
