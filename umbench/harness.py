"""The four uMiddle workloads, driven only through the public API.

Each workload builds a federation with :func:`repro.testbed.build_testbed`
and :class:`~repro.core.runtime.UMiddleRuntime`, then runs an open loop
whose schedule lives on the simulated clock: operations are due at sim
times drawn from the benchmark's own seeded generator, the kernel is run
up to each due time, and the operation is issued.  The loop therefore
never falls behind its schedule in sim time; what varies between
machines and commits is only how much wall time the program spends.

Two clocks are measured:

- *program wall time*: ``perf_counter`` around every call into the
  program (kernel runs and the operations themselves), excluding the
  benchmark's own oracle bookkeeping;
- *sim time*: the calibrated model of the paper's testbed.

The measured phase is a whole number of *epochs* -- slices of the
schedule -- sized by ``--seconds`` but fixed for a seed, so every run
measures the same periodic structure (for example the directory's 10 s
load-reweighting period) rather than a random cut through it.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import Callable, Dict, List, Optional

from repro.calibration import DEFAULT
from repro.core.directory import DirectoryListener
from repro.core.errors import ShardUnavailable
from repro.core.messages import UMessage
from repro.core.qos import QosPolicy
from repro.core.query import Query
from repro.core.shard import CACHE_TTL
from repro.core.translator import Translator
from repro.testbed import build_testbed

from stats import quantile, supported, tail

#: The flag profiles, mapped to runtime constructor kwargs here and
#: nowhere else.  ``paper`` is the defaults EXPERIMENTS.md reproduces.
PROFILES: Dict[str, dict] = {
    "paper": {},
    "scale": {
        "batching_enabled": True,
        "codec_enabled": True,
        "compression_enabled": True,
        "sharding_enabled": True,
        "replication_factor": 2,
    },
}
#: ``scale`` without ``compression_enabled``, which also switches on
#: load-weighted shard placement.  Under register/unregister churn across
#: its reweighting rounds, unregistered translators stay in owner shard
#: stores and every runtime keeps serving them (reproduce with
#: ``run.py --workload directory-churn --profile scale``), so
#: directory-churn measures sharding and replication without it.
PROFILES["scale-unweighted"] = dict(PROFILES["scale"], compression_enabled=False)

MIMES = ("text/plain", "image/jpeg", "audio/wav", "video/mpeg")
PLATFORMS = ("upnp", "jini", "bluetooth", "motes")
ROLES = ("display", "sensor", "printer", "player")
SITES = tuple(f"building-{b}/floor-{f}" for b in range(1, 4) for f in range(1, 4))


def reading(rng: random.Random, producer: int, seq: int) -> dict:
    """One structured sensor reading (its size follows its JSON form)."""
    return {
        "kind": "sensor-reading",
        "src": producer,
        "sensor": "temperature",
        "site": SITES[rng.randrange(len(SITES))],
        "unit": "celsius",
        "value": round(rng.gauss(21.0, 3.0), 2),
        "seq": seq,
    }


class Failures:
    """Failed operations by kind, with the first example of each kind
    kept for the report."""

    def __init__(self):
        self.count = 0
        self.kinds: Dict[str, int] = {}
        self.examples: Dict[str, str] = {}

    def add(self, kind: str, detail: str, n: int = 1) -> None:
        self.count += n
        self.kinds[kind] = self.kinds.get(kind, 0) + n
        self.examples.setdefault(kind, detail)


def reference_work(n: int = 5000) -> int:
    """A fixed slice of pure-Python work (dict updates, small string
    allocations) whose duration tracks how fast this machine runs
    interpreter code right now."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class SpeedProbe:
    """Times :func:`reference_work` every ``EVERY_S`` of program wall
    time.  A shared host runs the same code up to ~2x slower for
    seconds at a time; dividing the program's wall time by the probe's
    mean slowdown (``NOMINAL_S`` / mean probe time) cancels that drift,
    so wall-clock metrics compare commits instead of neighbours."""

    EVERY_S = 0.05
    #: Duration of one probe on the reference machine (2-vCPU x86 VM,
    #: CPython 3.11, uncontended).
    NOMINAL_S = 0.0009

    def __init__(self):
        self.samples = array("d")
        self.due = 0.0

    def maybe_probe(self, prog_wall: float) -> None:
        if prog_wall < self.due:
            return
        self.due = prog_wall + self.EVERY_S
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    @property
    def slowdown(self) -> float:
        if not self.samples:
            return 1.0
        return (sum(self.samples) / len(self.samples)) / self.NOMINAL_S


class Workload:
    """Common harness: set-up, epochs, drain, counters."""

    name = ""
    profile = ""
    loop = ""
    epoch_s = 1.0
    #: Epochs after which the schedule's structure repeats.
    period = 1
    #: Typical wall seconds one epoch takes on the reference machine
    #: (2-vCPU x86 VM, CPython 3.11); sizes a run's fixed work.
    epoch_wall_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.bed = None
        self.runtimes: List = []
        self.tracer = None
        self.prog_wall = 0.0
        self.epochs = 0
        self.failures = Failures()
        self.attempted = 0
        self.ops = 0
        self.recording = False
        self._next_sample = 0.0
        self.speed = SpeedProbe()

    def epochs_for(self, seconds: float) -> int:
        """Whole periods of epochs that take about ``seconds`` of wall
        time on the reference machine.  A run's work is fixed by the
        seed and this count, never by how fast the host happens to be,
        so counts and sim-time metrics repeat exactly for a seed."""
        periods = max(1, round(seconds / (self.epoch_wall_s * self.period)))
        return periods * self.period

    # -- randomness ---------------------------------------------------------

    def rng(self, *stream) -> random.Random:
        """An independent generator per (seed, stream) for the operation
        stream; string seeds hash with SHA-512, so the draw is the same
        under any PYTHONHASHSEED."""
        return random.Random(":".join(str(part) for part in (self.seed, *stream)))

    @staticmethod
    def layout_rng(stream: str) -> random.Random:
        """The federation's layout (population, fan-out, hot keys) is part
        of the workload's definition and the same for every seed, so
        seeds vary the operation stream, not the system measured."""
        return random.Random(f"layout:{stream}")

    # -- program clock ------------------------------------------------------

    def advance(self, until: float) -> None:
        kernel = self.bed.kernel
        if until <= kernel.now:
            return
        start = time.perf_counter()
        kernel.run(until=until)
        self.prog_wall += time.perf_counter() - start
        self.speed.maybe_probe(self.prog_wall)
        if self.tracer is not None and kernel.now >= self._next_sample:
            self._next_sample = kernel.now + 0.1
            self.tracer.sample()

    def call(self, op_id: int, fn: Callable, *args):
        """Issue one synchronous operation; returns (result, wall seconds)."""
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.prog_wall += elapsed
            if self.tracer is not None:
                self.tracer.op = -1
        return result, elapsed

    def settle(self, seconds: float) -> None:
        self.advance(self.bed.kernel.now + seconds)

    @property
    def wall(self) -> float:
        """Program wall time of the measured phase at reference speed."""
        return self.prog_wall / self.speed.slowdown

    def wall_samples(self, samples):
        """Per-call wall times rescaled to reference speed."""
        factor = 1.0 / self.speed.slowdown
        return [value * factor for value in samples]

    # -- lifecycle ----------------------------------------------------------

    def build(self, hosts: List[str]) -> None:
        self.bed = build_testbed(calibration=DEFAULT, hosts=[])
        self.bed.network.trace.enabled = False
        self.runtimes = [
            self.bed.add_runtime(host, **PROFILES[self.profile]) for host in hosts
        ]

    def setup(self) -> None:
        raise NotImplementedError

    def run_epoch(self) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        """Stop offering load, reach quiescence, run the final checks."""
        raise NotImplementedError

    def begin_measure(self) -> None:
        """Reset the measured-phase accumulators."""
        self.prog_wall = 0.0
        self.speed = SpeedProbe()
        self.epochs = 0
        self.ops = 0
        self.attempted = 0
        self.recording = True
        self.sim_start = self.bed.kernel.now
        self.counters_at_start = self.counters()

    def end_measure(self) -> None:
        self.recording = False
        self.measured = self.delta()

    def counters(self) -> Dict[str, int]:
        """Public counters summed over the federation."""
        lan = self.bed.lan
        totals = {
            "events": self.bed.kernel.processed_events,
            "lan_bytes": lan.bytes_transmitted,
            "lan_frames": lan.frames_transmitted,
            "lan_drops": lan.frames_dropped,
        }
        fields = {
            "journal": ("bytes_written", "records_appended", "fsyncs", "checkpoints"),
            "transport": (
                "messages_relayed", "batches_sent", "retries",
                "duplicates_suppressed", "spool_dropped", "codec_frames_sent",
            ),
            "shards": (
                "cache_hits", "routed_lookups", "fanout_lookups", "local_lookups",
                "degraded_reads", "unavailable_lookups", "fenced_frames",
                "weight_rebalances",
            ),
        }
        for runtime in self.runtimes:
            for module, names in fields.items():
                obj = getattr(runtime, module)
                for field in names:
                    key = f"{module}.{field}"
                    totals[key] = totals.get(key, 0) + getattr(obj, field)
        return totals

    def delta(self) -> Dict[str, int]:
        self.sim_measured = self.bed.kernel.now - self.sim_start
        now = self.counters()
        return {key: now[key] - self.counters_at_start.get(key, 0) for key in now}

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> Dict[str, dict]:
        """Every end-to-end metric this workload defines, by the names
        the issue tables use: ``{name: {value, unit, n}}``."""
        raise NotImplementedError

    #: Gated metric name in BENCHMARK.json -> this workload's metric.
    #: The gated names mean the same on every workload up to the
    #: workload's unit of work (its "op").
    GATED = {
        "wall_ops_per_s": "wall_ops_per_s",
        "wire_bytes_per_op": "wire_bytes_per_op",
        "journal_bytes_per_op": "journal_bytes_per_op",
        "sim_p99_ms": "sim_delivery_p99_ms",
    }

    def universal(self, metrics: Dict[str, dict]) -> Dict[str, dict]:
        """This workload's values under the gated metric names."""
        return {gated: metrics[name] for gated, name in self.GATED.items()}


def metric(value, unit: str, n: Optional[int] = None) -> dict:
    return {"value": value, "unit": unit, "n": n}


def latency_pair(prefix: str, samples, scale: float, unit: str) -> Dict[str, dict]:
    """Median and p99, plus the highest supported tail percentile above
    p99.  A percentile with fewer than ``MIN_BEYOND`` samples beyond it
    is still computed (the gated JSON needs a number) but marked
    ``supported: False`` and printed as such."""
    out = {}
    ordered = sorted(samples)
    for pct in (50.0, 99.0):
        entry = metric(quantile(ordered, pct) * scale if ordered else None,
                       unit, len(ordered))
        entry["supported"] = supported(len(ordered), pct)
        out[f"{prefix}_p{pct:g}_{unit}"] = entry
    pct, value, count = tail(samples)
    if pct is not None and pct > 99.0:
        label = f"{pct:g}".replace(".", "_")
        out[f"{prefix}_p{label}_{unit}"] = metric(value * scale, unit, count)
    return out


# ---------------------------------------------------------------------------
# telemetry-scale / telemetry-paper
# ---------------------------------------------------------------------------


class Telemetry(Workload):
    """4 producers stream readings to 4 of 8 consumers each.

    Open loop in sim time: per producer, Poisson arrivals at
    ``BASE_RATE`` plus one burst of ``BURST`` messages per epoch, so the
    mean offered rate is ``BASE_RATE + BURST / epoch_s`` per producer
    (100/s; 1600 deliveries per sim second), below what the ``paper``
    profile carries (~2800 deliveries/s measured), so no backlog grows.
    Every ``FRAME_EVERY``-th message of a burst, and of a producer's
    Poisson arrivals in an epoch, is a ~1.4 kB opaque frame: the delivery
    p99 falls in burst tails, and bursts of one fixed make-up keep it
    from swinging with the seed."""

    loop = "open (sim-time Poisson + one burst per epoch)"
    epoch_s = 2.0
    #: Both profiles measure the same epochs of the same traffic (one
    #: epoch takes about 0.5 s under scale and 0.35 s under paper).
    epoch_wall_s = 0.55
    PRODUCERS = 4
    CONSUMERS = 8
    FANOUT = 4
    BASE_RATE = 80.0
    BURST = 40
    BURST_SPACING_S = 0.0005
    FRAME_EVERY = 10
    FRAME_BYTES = 1400
    GATED = dict(Workload.GATED, wall_ops_per_s="wall_msgs_per_s",
                 wire_bytes_per_op="wire_bytes_per_msg")

    def __init__(self, seed: int, profile: str):
        super().__init__(seed)
        self.profile = profile
        self.name = f"telemetry-{profile}"

    @property
    def offered_rate(self) -> float:
        return self.PRODUCERS * (self.BASE_RATE + self.BURST / self.epoch_s)

    def setup(self) -> None:
        hosts = [f"prod{i}" for i in range(self.PRODUCERS)] + [
            f"cons{j}" for j in range(self.CONSUMERS)
        ]
        self.build(hosts)
        producers = self.runtimes[: self.PRODUCERS]
        consumers = self.runtimes[self.PRODUCERS:]
        self.outs = []
        for i, runtime in enumerate(producers):
            source = Translator(
                f"sensor-{i}", role="sensor", translator_id=f"sensor-{i}"
            )
            self.outs.append(source.add_digital_output("data-out", "text/plain"))
            runtime.register_translator(source)
        self.sinks = []
        for j, runtime in enumerate(consumers):
            sink = Translator(
                f"display-{j}", role="display", translator_id=f"display-{j}"
            )
            sink.add_digital_input(
                "data-in", "text/plain",
                lambda message, j=j: self._on_message(j, message),
            )
            runtime.register_translator(sink)
            self.sinks.append(sink)
        self.settle(2.0)
        choose = self.layout_rng("fanout")
        self.targets = [
            sorted(choose.sample(range(self.CONSUMERS), self.FANOUT))
            for _ in range(self.PRODUCERS)
        ]
        qos = QosPolicy(buffer_capacity=4096)
        for i, runtime in enumerate(producers):
            for j in self.targets[i]:
                runtime.connect(
                    self.outs[i], self.sinks[j].profile.port_ref("data-in"), qos=qos
                )
        self.settle(1.0)
        # Per-producer send schedule (sim time of each seq) and, per
        # (consumer, producer), the next sequence number expected.
        self.sched = [array("d") for _ in range(self.PRODUCERS)]
        self.expect = [[0] * self.PRODUCERS for _ in range(self.CONSUMERS)]
        self.latencies = array("d")
        self.delivered = 0
        self._epoch_index = 0
        self.payload_rng = self.rng("payload")
        # Reach steady state: one epoch of traffic warms the adaptive
        # batching controllers and the codec symbol tables.
        self.run_epoch()

    def _on_message(self, j: int, message: UMessage) -> None:
        payload = message.payload
        if isinstance(payload, dict):
            producer, seq = payload["src"], payload["seq"]
        else:
            _, producer, seq = payload.split(":")
            producer, seq = int(producer), int(seq)
        expected = self.expect[j][producer]
        if seq != expected:
            kind = "duplicate" if seq < expected else "lost or reordered"
            self.failures.add(kind, f"consumer {j} got {producer}#{seq}, "
                                    f"expected #{expected}")
            if seq < expected:
                return
        self.expect[j][producer] = seq + 1
        if self.recording:
            self.delivered += 1
            self.latencies.append(self.bed.kernel.now - self.sched[producer][seq])

    def _message(self, producer: int, seq: int, frame: bool) -> UMessage:
        rng = self.payload_rng
        if frame:
            size = self.FRAME_BYTES + rng.randrange(-100, 101)
            return UMessage("text/plain", f"frame:{producer}:{seq}", size)
        return UMessage("text/plain", reading(rng, producer, seq))

    def run_epoch(self) -> None:
        start = self.bed.kernel.now
        end = start + self.epoch_s
        rng = self.rng("epoch", self._epoch_index)
        self._epoch_index += 1
        sends = []
        every = self.FRAME_EVERY
        for producer in range(self.PRODUCERS):
            at = start + rng.expovariate(self.BASE_RATE)
            k = 0
            while at < end:
                sends.append((at, producer, k % every == every - 1))
                at += rng.expovariate(self.BASE_RATE)
                k += 1
            # Periodic bursts, staggered per producer.
            burst_at = start + self.epoch_s * producer / self.PRODUCERS
            for k in range(self.BURST):
                sends.append((burst_at + k * self.BURST_SPACING_S, producer,
                              k % every == every - 1))
        sends.sort()
        for at, producer, frame in sends:
            self.advance(at)
            seq = len(self.sched[producer])
            self.sched[producer].append(at)
            self.call(-1, self.outs[producer].send,
                      self._message(producer, seq, frame))
            if self.recording:
                self.attempted += self.FANOUT
        self.advance(end)
        self.epochs += 1

    def begin_measure(self) -> None:
        super().begin_measure()
        self.delivered = 0
        self.latencies = array("d")

    def end_measure(self) -> None:
        super().end_measure()
        self.ops = self.delivered

    def drain(self) -> None:
        sent = [len(s) for s in self.sched]
        deadline = self.bed.kernel.now + 30.0

        def pending():
            return sum(
                sent[i] - self.expect[j][i]
                for i in range(self.PRODUCERS)
                for j in self.targets[i]
            )

        while pending() > 0 and self.bed.kernel.now < deadline:
            self.settle(0.5)
        missing = pending()
        if missing:
            self.failures.add("never delivered", f"{missing} message(s)", missing)
        dropped = self.delta()["transport.spool_dropped"]
        if dropped:
            self.failures.add("spool drop", f"{dropped} envelope(s)", dropped)

    def metrics(self) -> Dict[str, dict]:
        d = self.measured
        msgs = max(self.delivered, 1)
        out = {
            "wall_msgs_per_s": metric(self.delivered / self.wall, "1/s",
                                      self.delivered),
            "wire_bytes_per_msg": metric(d["lan_bytes"] / msgs, "B", self.delivered),
            "journal_bytes_per_op": metric(d["journal.bytes_written"] / msgs, "B",
                                           self.delivered),
        }
        out.update(latency_pair("sim_delivery", self.latencies, 1e3, "ms"))
        return out


# ---------------------------------------------------------------------------
# Shared federation for directory-churn and crash-recover
# ---------------------------------------------------------------------------


class Federation(Workload):
    """8 runtimes of the workload's profile holding ``POPULATION``
    translators."""

    profile = "scale"
    epoch_s = 10.0
    NODES = 8
    POPULATION = 1000
    BASE_TYPES = 100
    #: Steady state: past the first load-reweighting round (10 s period).
    STEADY_AT_S = 12.5

    def build_federation(self) -> None:
        self.build([f"n{i}" for i in range(self.NODES)])
        self.settle(3.0)
        rng = self.layout_rng("population")
        #: The benchmark's own table of live profiles (the oracle).
        self.live: Dict[str, object] = {}
        self.by_type: Dict[str, Dict[str, object]] = {}
        self.changed_at: Dict[str, float] = {}
        self.translators: Dict[str, tuple] = {}
        for index in range(self.POPULATION):
            translator = self.make_translator(
                f"dev-{index:05d}", f"type-{rng.randrange(self.BASE_TYPES)}", rng
            )
            self.register(index % self.NODES, translator, op_id=-1)
            if index % 100 == 99:
                self.settle(0.1)

    def make_translator(self, tid: str, device_type: str, rng) -> Translator:
        translator = Translator(
            tid,
            platform=PLATFORMS[rng.randrange(len(PLATFORMS))],
            device_type=device_type,
            role=ROLES[rng.randrange(len(ROLES))],
            translator_id=tid,
        )
        translator.add_digital_input("in", MIMES[rng.randrange(4)], lambda m: None)
        translator.add_digital_output("out", MIMES[rng.randrange(4)])
        return translator

    def register(self, node: int, translator: Translator, op_id: int) -> float:
        _, elapsed = self.call(
            op_id, self.runtimes[node].register_translator, translator
        )
        profile = translator.profile
        tid = profile.translator_id
        self.live[tid] = profile
        self.by_type.setdefault(profile.device_type, {})[tid] = profile
        self.changed_at[tid] = self.bed.kernel.now
        self.translators[tid] = (node, translator)
        return elapsed

    def unregister(self, tid: str, op_id: int) -> float:
        node, translator = self.translators.pop(tid)
        _, elapsed = self.call(
            op_id, self.runtimes[node].unregister_translator, translator
        )
        profile = self.live.pop(tid)
        del self.by_type[profile.device_type][tid]
        self.changed_at[tid] = self.bed.kernel.now
        return elapsed

    def oracle(self, query: Query) -> set:
        if query.device_type is not None:
            candidates = self.by_type.get(query.device_type, {}).values()
        else:
            candidates = self.live.values()
        return {p.translator_id for p in candidates if query.matches(p)}

    def reach_steady_state(self) -> None:
        while self.bed.kernel.now < self.STEADY_AT_S:
            self.settle(0.5)


class _Watch(DirectoryListener):
    def __init__(self, workload: "DirectoryChurn"):
        self.workload = workload

    def translator_added(self, profile) -> None:
        self.workload._seen(profile.translator_id, "add")

    def translator_removed(self, profile) -> None:
        self.workload._seen(profile.translator_id, "remove")


class DirectoryChurn(Federation):
    """Keyed zipf lookups, keyless fan-out lookups and watched churn."""

    name = "directory-churn"
    profile = "scale-unweighted"
    loop = "open (sim-time Poisson op arrivals)"
    epoch_wall_s = 1.2
    RATE = 250.0
    MIX = (("keyed", 0.78), ("keyless", 0.02), ("register", 0.10),
           ("unregister", 0.10))
    CHURN_TYPES = 16
    CHURN_POOL = 64
    ZIPF_S = 1.1
    #: A churned translator lives at least this long before removal, so
    #: its registration is visible before it is withdrawn.
    MIN_AGE_S = 5.0
    #: Lookup answers may lag a change by the shard cache TTL plus delta
    #: propagation; only translators changed this recently may differ.
    IN_FLIGHT_S = CACHE_TTL + 1.0
    GATED = dict(Workload.GATED, sim_p99_ms="sim_visible_p99_ms")

    @property
    def offered_rate(self) -> float:
        return self.RATE

    def setup(self) -> None:
        self.build_federation()
        self.pending_vis: Dict[tuple, float] = {}
        self.visible = array("d")
        self.lookup_wall = array("d")
        # One listener per standing query: a directory keeps a single
        # subscription per listener object.
        for k in range(self.CHURN_TYPES):
            self.runtimes[self.watcher(k)].directory.subscribe_query(
                Query(device_type=f"churn-{k}"), _Watch(self)
            )
        rng = self.layout_rng("churn-pool")
        self.churn_serial = 0
        self.churn_live: List[str] = []
        for _ in range(self.CHURN_POOL):
            self._register_churn(rng, op_id=-1)
        self.reach_steady_state()
        self.pending_vis.clear()
        types = [f"type-{t}" for t in range(self.BASE_TYPES)] + [
            f"churn-{k}" for k in range(self.CHURN_TYPES)
        ]
        self.layout_rng("zipf-ranks").shuffle(types)
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(types))]
        self.zipf_types = types
        self.zipf_cum = []
        total = 0.0
        for w in weights:
            total += w
            self.zipf_cum.append(total)
        self._epoch_index = 0
        self.op_serial = 0

    def watcher(self, churn_type: int) -> int:
        return churn_type % self.NODES

    def _register_churn(self, rng, op_id: int) -> float:
        k = rng.randrange(self.CHURN_TYPES)
        node = (self.watcher(k) + 1 + rng.randrange(self.NODES - 1)) % self.NODES
        tid = f"churn-{self.churn_serial:06d}"
        self.churn_serial += 1
        translator = self.make_translator(tid, f"churn-{k}", rng)
        self.pending_vis[(tid, "add")] = self.bed.kernel.now
        elapsed = self.register(node, translator, op_id)
        self.churn_live.append(tid)
        return elapsed

    def _seen(self, tid: str, kind: str) -> None:
        sent = self.pending_vis.pop((tid, kind), None)
        if sent is not None and self.recording:
            self.visible.append(self.bed.kernel.now - sent)

    def _pick_kind(self, rng) -> str:
        roll = rng.random()
        for kind, share in self.MIX:
            if roll < share:
                return kind
            roll -= share
        return self.MIX[-1][0]

    def _zipf_type(self, rng) -> str:
        roll = rng.random() * self.zipf_cum[-1]
        lo, hi = 0, len(self.zipf_cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.zipf_cum[mid] < roll:
                lo = mid + 1
            else:
                hi = mid
        return self.zipf_types[lo]

    def _check(self, query: Query, result, now: float) -> None:
        got = {p.translator_id for p in result}
        diff = got ^ self.oracle(query)
        late = [tid for tid in diff
                if now - self.changed_at.get(tid, -1e9) > self.IN_FLIGHT_S]
        if late:
            kind = "stale lookup" if late[0] in got else "incomplete lookup"
            self.failures.add(kind, f"{query.index_keys() or query.name_contains!r}: "
                                    f"{sorted(late)[:3]} changed >{self.IN_FLIGHT_S:g}s ago")

    def run_epoch(self) -> None:
        start = self.bed.kernel.now
        end = start + self.epoch_s
        rng = self.rng("epoch", self._epoch_index)
        self._epoch_index += 1
        at = start + rng.expovariate(self.RATE)
        while at < end:
            self.advance(at)
            self.op_serial += 1
            self._op(rng, self.op_serial)
            at += rng.expovariate(self.RATE)
        self.advance(end)
        self.epochs += 1

    def _op(self, rng, op_id: int) -> None:
        kind = self._pick_kind(rng)
        now = self.bed.kernel.now
        if kind == "unregister":
            old = [tid for tid in self.churn_live[:8]
                   if now - self.changed_at[tid] >= self.MIN_AGE_S]
            if not old:
                kind = "register"
            else:
                tid = old[rng.randrange(len(old))]
                self.churn_live.remove(tid)
                if (tid, "add") in self.pending_vis:
                    self.failures.add("change never visible",
                                      f"{tid} registration unseen after {self.MIN_AGE_S:g}s")
                    del self.pending_vis[(tid, "add")]
                self.pending_vis[(tid, "remove")] = now
                self.unregister(tid, op_id)
        if kind == "register":
            self._register_churn(rng, op_id)
        elif kind in ("keyed", "keyless"):
            if kind == "keyed":
                query = Query(device_type=self._zipf_type(rng))
            else:
                query = Query(name_contains=f"dev-{rng.randrange(100):02d}")
            runtime = self.runtimes[rng.randrange(self.NODES)]
            try:
                result, elapsed = self.call(op_id, runtime.lookup, query)
            except ShardUnavailable as exc:
                self.failures.add("ShardUnavailable", str(exc))
            else:
                if self.recording:
                    self.lookup_wall.append(elapsed)
                self._check(query, result, now)
        if self.recording:
            self.attempted += 1
            self.ops += 1

    def begin_measure(self) -> None:
        super().begin_measure()
        self.visible = array("d")
        self.lookup_wall = array("d")

    def drain(self) -> None:
        deadline = self.bed.kernel.now + 30.0
        while self.pending_vis and self.bed.kernel.now < deadline:
            self.settle(0.5)
        if self.pending_vis:
            self.failures.add(
                "change never visible",
                f"{len(self.pending_vis)} change(s) never reached their watcher",
                len(self.pending_vis),
            )
        # Final check at quiescence: every runtime answers every keyed
        # query exactly like the oracle.
        self.settle(CACHE_TTL + 1.0)
        now = self.bed.kernel.now
        for device_type in self.zipf_types:
            query = Query(device_type=device_type)
            want = self.oracle(query)
            for index, runtime in enumerate(self.runtimes):
                self.attempted += 1
                got = {p.translator_id for p in runtime.lookup(query)}
                if got != want:
                    self.failures.add(
                        "quiescent mismatch",
                        f"{device_type} on n{index}: {sorted(got ^ want)[:3]} "
                        f"at t={now:.1f}",
                    )

    def metrics(self) -> Dict[str, dict]:
        d = self.measured
        ops = max(self.ops, 1)
        out = {
            "wall_ops_per_s": metric(self.ops / self.wall, "1/s", self.ops),
            "wire_bytes_per_op": metric(d["lan_bytes"] / ops, "B", self.ops),
            "journal_bytes_per_op": metric(d["journal.bytes_written"] / ops, "B",
                                           self.ops),
        }
        out.update(latency_pair("wall_lookup", self.wall_samples(self.lookup_wall),
                                1e6, "us"))
        out.update(latency_pair("sim_visible", self.visible, 1e3, "ms"))
        return out


# ---------------------------------------------------------------------------
# crash-recover
# ---------------------------------------------------------------------------


class CrashRecover(Federation):
    """Round-robin cold crash + recover of every runtime but the stream's
    source, while a light stream runs; probes compare the victim's
    lookups with the oracle until they agree again.

    One epoch is one crash cycle: crash, ``DOWN_S`` down, ``recover()``,
    probe every ``POLL_S`` until the victim's lookups equal the oracle
    (a recovery that has not reconverged ``RECONVERGE_DEADLINE_S`` after
    ``recover()`` fails), then ``GAP_S`` of quiet before the next victim.
    The population is smaller than directory-churn's so that one run
    holds at least 20 recoveries (a supported median); each recovery
    costs about 0.5 s of wall time here, most of it codec work."""

    name = "crash-recover"
    loop = "open (sim-time Poisson stream) + back-to-back crash cycles"
    POPULATION = 300
    epoch_s = 0.0
    #: Nominally 0.5 s; counted as 0.4 s so a run spans four rotations
    #: (four crashes of the stream's sink), which steadies the delivery p99.
    epoch_wall_s = 0.4
    STREAM_RATE = 100.0
    DOWN_S = 0.25
    POLL_S = 0.05
    GAP_S = 0.25
    RECONVERGE_DEADLINE_S = 10.0
    PROBES = 4
    #: Victims rotate over every runtime but the stream's source.
    period = Federation.NODES - 1

    @property
    def offered_rate(self) -> float:
        return self.STREAM_RATE

    def setup(self) -> None:
        self.build_federation()
        rng = self.layout_rng("stream")
        self.sink_node = 1 + rng.randrange(self.NODES - 1)
        source = Translator("stream-src", role="sensor", translator_id="stream-src")
        self.out = source.add_digital_output("data-out", "text/plain")
        self.runtimes[0].register_translator(source)
        sink = Translator("stream-sink", role="display", translator_id="stream-sink")
        sink.add_digital_input("data-in", "text/plain", self._on_message)
        self.runtimes[self.sink_node].register_translator(sink)
        self.settle(2.0)
        self.runtimes[0].connect(
            self.out, sink.profile.port_ref("data-in"),
            qos=QosPolicy(buffer_capacity=4096),
        )
        probe_rng = self.layout_rng("probes")
        self.probes = [
            Query(device_type=f"type-{t}")
            for t in probe_rng.sample(range(self.BASE_TYPES), self.PROBES)
        ]
        self.sched = array("d")
        self.expect = 0
        #: Redeliveries tolerated after a cold crash of the sink (see
        #: _on_message); anything else out of sequence is a failure.
        self.replay_open = False
        self.replayed = set()
        self.redelivered = 0
        self.sink_crashes = 0
        self.delivered = 0
        self.latencies = array("d")
        self.recover_wall = array("d")
        self.reconverge_sim = array("d")
        self.recoveries = 0
        self.victim_turn = 0
        self.arrivals = self.rng("arrivals")
        self.payloads = self.rng("payload")
        self.next_send = self.bed.kernel.now + self.arrivals.expovariate(
            self.STREAM_RATE)
        while self.bed.kernel.now < self.STEADY_AT_S:
            self.stream_until(self.bed.kernel.now + 0.5)

    def _on_message(self, message: UMessage) -> None:
        seq = message.payload["seq"]
        if seq < self.expect and self.replay_open and seq not in self.replayed:
            # DESIGN.md (exactly-once delivery): a receiver that cold-crashes
            # forgets its dedup window, so the sender's respooled tail may
            # be delivered once more, ahead of any new message.
            self.replayed.add(seq)
            self.redelivered += 1
            return
        if seq != self.expect:
            kind = "duplicate" if seq < self.expect else "lost or reordered"
            self.failures.add(kind, f"stream got #{seq}, expected #{self.expect}")
            if seq < self.expect:
                return
        self.replay_open = False
        self.expect = seq + 1
        if self.recording:
            self.delivered += 1
            self.latencies.append(self.bed.kernel.now - self.sched[seq])

    def stream_until(self, until: float) -> None:
        """Run the kernel to ``until``, issuing the stream's sends on the
        way at their scheduled sim times."""
        while self.next_send <= until:
            at = self.next_send
            self.advance(at)
            seq = len(self.sched)
            self.sched.append(at)
            self.call(-1, self.out.send, UMessage("text/plain", reading(
                self.payloads, 0, seq)))
            self.next_send = at + self.arrivals.expovariate(self.STREAM_RATE)
        self.advance(until)

    def _converged(self, runtime, op_id: int) -> bool:
        for query in self.probes:
            try:
                result, _ = self.call(op_id, runtime.lookup, query)
            except ShardUnavailable:
                return False
            if {p.translator_id for p in result} != self.oracle(query):
                return False
        return True

    def run_epoch(self) -> None:
        kernel = self.bed.kernel
        victim_node = 1 + self.victim_turn % (self.NODES - 1)
        self.victim_turn += 1
        victim = self.runtimes[victim_node]
        op_id = self.victim_turn
        wall_before = self.prog_wall
        self.call(op_id, victim.crash, True)
        if victim_node == self.sink_node:
            self.sink_crashes += 1
            self.replay_open = True
            self.replayed = set()
        self.stream_until(kernel.now + self.DOWN_S)
        recovered_at = kernel.now
        self.call(op_id, victim.recover)
        deadline = recovered_at + self.RECONVERGE_DEADLINE_S
        converged = self._converged(victim, op_id)
        while not converged and kernel.now < deadline:
            self.stream_until(kernel.now + self.POLL_S)
            converged = self._converged(victim, op_id)
        if self.recording:
            self.attempted += 1
        if converged:
            if self.recording:
                self.recoveries += 1
                self.recover_wall.append(self.prog_wall - wall_before)
                self.reconverge_sim.append(kernel.now - recovered_at)
        else:
            self.failures.add(
                "no reconvergence",
                f"n{victim_node} differs from the oracle "
                f"{self.RECONVERGE_DEADLINE_S:g}s after recover()",
            )
        self.stream_until(kernel.now + self.GAP_S)
        self.epochs += 1

    def begin_measure(self) -> None:
        super().begin_measure()
        self.delivered = 0
        self.recoveries = 0
        self.latencies = array("d")
        self.recover_wall = array("d")
        self.reconverge_sim = array("d")
        self.sent_at_start = len(self.sched)

    def end_measure(self) -> None:
        super().end_measure()
        self.ops = self.recoveries
        self.attempted += len(self.sched) - self.sent_at_start

    def drain(self) -> None:
        deadline = self.bed.kernel.now + 30.0
        while self.expect < len(self.sched) and self.bed.kernel.now < deadline:
            self.settle(0.5)
        missing = len(self.sched) - self.expect
        if missing:
            self.failures.add("never delivered", f"{missing} stream message(s)", missing)
        for index, runtime in enumerate(self.runtimes):
            self.attempted += 1
            if not self._converged(runtime, -1):
                self.failures.add("quiescent mismatch",
                                  f"n{index} probes differ from the oracle")

    def metrics(self) -> Dict[str, dict]:
        d = self.measured
        ops = max(self.ops, 1)
        out = {
            "wall_ops_per_s": metric(self.ops / self.wall, "1/s", self.ops),
            "wire_bytes_per_op": metric(d["lan_bytes"] / ops, "B", self.ops),
            "journal_bytes_per_op": metric(d["journal.bytes_written"] / ops, "B",
                                           self.ops),
        }
        out.update(latency_pair("sim_delivery", self.latencies, 1e3, "ms"))
        out.update(latency_pair("wall_recover", self.wall_samples(self.recover_wall),
                                1e3, "ms"))
        out.update(latency_pair("sim_reconverge", self.reconverge_sim, 1e3, "ms"))
        out["stream_redeliveries"] = metric(self.redelivered, "count",
                                            self.sink_crashes)
        return out


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "telemetry-scale": lambda seed: Telemetry(seed, "scale"),
    "telemetry-paper": lambda seed: Telemetry(seed, "paper"),
    "directory-churn": DirectoryChurn,
    "crash-recover": CrashRecover,
}
