"""Per-layer wall-clock spans recorded from outside the program.

The program under test has no tracing hooks of its own, so this module
wraps each layer's public entry points for the duration of a traced (or
sensitivity) run and removes every wrapper afterwards.  A wrapper is
installed where the caller looks the name up: on the class for methods
(``Kernel.step``), and in the importing module for functions that were
imported by name (``encode_journal_body`` inside ``repro.core.journal``).

Spans (name, start, end, parent, op id) are kept in memory up to a cap
and written out when the run ends; per-name call counts, inclusive time
and self time are accumulated for every call, capped or not.  A span's
self time is its duration minus the time covered by the spans nested in
it, so self times over all layers plus the time spent outside any span
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
import weakref
from array import array
from typing import Callable, Dict, List, Tuple

#: Layer -> the public entry points wrapped for it, as (module, name).
#: ``name`` is ``Class.method`` or a module-level function name in the
#: module whose callers look it up.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "kernel": (("repro.simnet.kernel", "Kernel.step"),),
    "net": (("repro.simnet.net", "Medium.transmit"),),
    "sockets": (
        ("repro.simnet.sockets", "StreamSocket.send"),
        ("repro.simnet.sockets", "DatagramSocket.sendto"),
        ("repro.simnet.sockets", "DatagramSocket.send_multicast"),
    ),
    "transport": (
        ("repro.core.ports", "DigitalOutputPort.send"),
        ("repro.core.transport", "Transport.dispatch"),
        ("repro.core.transport", "MessagePath.enqueue"),
        ("repro.core.transport", "Transport.recover"),
    ),
    "codec": (
        ("repro.core.codec", "WireEncoder.encode_envelope"),
        ("repro.core.codec", "WireEncoder.encode_batch"),
        ("repro.core.codec", "WireEncoder.encode_batch_delta"),
        ("repro.core.codec", "WireDecoder.decode_frame"),
        ("repro.core.directory", "encode_gossip"),
        ("repro.core.shard", "encode_gossip"),
        ("repro.core.directory", "decode_gossip"),
        ("repro.core.journal", "encode_journal_body"),
        ("repro.core.journal", "decode_journal_body"),
    ),
    "journal": (
        ("repro.core.journal", "Journal.append"),
        ("repro.core.journal", "Journal.append_spool"),
        ("repro.core.journal", "Journal.sync"),
        ("repro.core.journal", "Journal.checkpoint"),
        ("repro.core.journal", "Journal.replay"),
    ),
    "directory": (
        ("repro.core.runtime", "UMiddleRuntime.lookup"),
        ("repro.core.directory", "Directory.lookup"),
        ("repro.core.directory", "Directory.lookup_local"),
        ("repro.core.directory", "Directory.register"),
        ("repro.core.directory", "Directory.unregister"),
        ("repro.core.directory", "Directory.subscribe_query"),
    ),
    "shard": (
        ("repro.core.shard", "ShardRouter.lookup"),
        ("repro.core.shard", "ShardRouter.serve_bucket"),
        ("repro.core.shard", "ShardRouter.serve_scan"),
        ("repro.core.shard", "ShardRouter.handle"),
        ("repro.core.shard", "ShardRouter.membership_changed"),
        ("repro.core.shard", "ShardRouter.sweep"),
    ),
    "replica": (
        ("repro.core.replica", "ReplicaStore.apply_store"),
        ("repro.core.replica", "ReplicaStore.apply_remove"),
        ("repro.core.replica", "ReplicaStore.bucket"),
    ),
}

#: Sensitivity self-check: the entry points that receive a fixed
#: busy-wait, one layer at a time.
INJECTION_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "codec": (
        ("repro.core.codec", "WireEncoder.encode_envelope"),
        ("repro.core.codec", "WireEncoder.encode_batch"),
        ("repro.core.codec", "WireEncoder.encode_batch_delta"),
    ),
    "checkpoint": (("repro.core.journal", "Journal.checkpoint"),),
    "shard_lookup": (("repro.core.shard", "ShardRouter.lookup"),),
    "replay": (("repro.core.journal", "Journal.replay"),),
}

#: Classes whose live instances feed the sampled gauges.
_GAUGE_CLASSES = (
    ("repro.simnet.sockets", "StreamSocket"),
    ("repro.simnet.sockets", "DatagramSocket"),
    ("repro.core.transport", "MessagePath"),
)


def _resolve(module_name: str, name: str):
    """(owner, attribute) for ``Class.method`` or a module function."""
    owner = importlib.import_module(module_name)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def nbytes(value) -> int:
    """Encoded size of a codec input or output: a ``BinaryFrame`` or a
    journal body."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return getattr(value, "wire_size", 0)


class Patcher:
    """Installs wrappers and restores exactly what was there before."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object, bool]] = []

    def patch(self, module_name: str, name: str, make: Callable) -> None:
        owner, attr = _resolve(module_name, name)
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original, own))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


class Tracer:
    """Span recorder over :data:`LAYERS`.

    ``op`` is the id of the synchronous operation the benchmark is
    executing (-1 while the kernel runs on its own); spans opened
    meanwhile carry it."""

    def __init__(self, max_spans: int = 200_000, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.max_spans = max_spans
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.incl: List[float] = []
        self.self_time: List[float] = []
        self.bytes: List[int] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.active = False
        self.outside = 0.0
        self._stack: List[list] = []
        self._patcher = Patcher()
        self._instances: Dict[str, "weakref.WeakSet"] = {}
        self.gauges: Dict[str, array] = {
            "recv_queue": array("l"),
            "path_depth": array("l"),
        }
        self.started = 0.0
        self.stopped = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, targets in self.layers.items():
            for module_name, name in targets:
                nid = len(self.names)
                self.names.append(f"{module_name.rsplit('.', 1)[-1]}.{name}")
                self.layer_of.append(layer)
                self.calls.append(0)
                self.incl.append(0.0)
                self.self_time.append(0.0)
                self.bytes.append(0)
                self._patcher.patch(
                    module_name, name, functools.partial(self._wrap, nid, name)
                )
        live = {}
        for module_name, cls_name in _GAUGE_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._instances[cls_name] = weakref.WeakSet()
            live[cls] = self._instances[cls_name]
            self._patcher.patch(
                module_name, f"{cls_name}.__init__",
                functools.partial(self._track, self._instances[cls_name]),
            )
        for obj in gc.get_objects():
            bucket = live.get(type(obj))
            if bucket is not None:
                bucket.add(obj)
        return self

    def uninstall(self) -> None:
        self.active = False
        self._patcher.restore()

    @staticmethod
    def _track(bucket, original):
        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.add(obj)
        return init

    def _wrap(self, nid: int, name: str, fn):
        perf = time.perf_counter
        stack = self._stack
        calls, incl, self_time, sizes = (
            self.calls, self.incl, self.self_time, self.bytes
        )
        span_name, span_parent, span_op = (
            self.span_name, self.span_parent, self.span_op
        )
        span_start, span_end = self.span_start, self.span_end
        measure = None
        method = name.rsplit(".", 1)[-1]
        if method.startswith("encode"):
            measure = lambda args, result: nbytes(result)  # noqa: E731
        elif method.startswith("decode"):
            measure = lambda args, result: nbytes(args[-1])  # noqa: E731

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(span_name)
            if index < self.max_spans:
                span_name.append(nid)
                span_parent.append(stack[-1][0] if stack else -1)
                span_op.append(self.op)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                index = -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                incl[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.outside -= duration
                if index >= 0:
                    span_start[index] = start
                    span_end[index] = end
            if measure is not None:
                sizes[nid] += measure(args, result)
            return result

        return wrapper

    # -- recording window ---------------------------------------------------

    def start(self) -> None:
        self.started = time.perf_counter()
        self.outside = 0.0
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.stopped = time.perf_counter()
        # ``outside`` accumulated minus every top-level span; adding the
        # window gives the wall time no span covered (the benchmark's own
        # bookkeeping between calls into the program).
        self.outside += self.stopped - self.started

    @property
    def wall(self) -> float:
        return self.stopped - self.started

    def sample(self) -> None:
        """Sample the queue gauges: socket receive queues and message
        path translation buffers."""
        queue = self.gauges["recv_queue"]
        for name in ("StreamSocket", "DatagramSocket"):
            for sock in list(self._instances.get(name, ())):
                queue.append(sock.pending())
        depth = self.gauges["path_depth"]
        for path in list(self._instances.get("MessagePath", ())):
            if not path.closed:
                depth.append(path.buffered)

    # -- results ------------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        return {
            name: {
                "layer": self.layer_of[nid],
                "calls": self.calls[nid],
                "incl_s": self.incl[nid],
                "self_s": self.self_time[nid],
                "bytes": self.bytes[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def layer_self(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in self.layers}
        for nid, layer in enumerate(self.layer_of):
            totals[layer] += self.self_time[nid]
        return totals

    def calls_of(self, *suffixes: str) -> int:
        return sum(
            self.calls[nid]
            for nid, name in enumerate(self.names)
            if name.endswith(suffixes)
        )

    def time_of(self, *suffixes: str, inclusive: bool = False) -> float:
        source = self.incl if inclusive else self.self_time
        return sum(
            source[nid]
            for nid, name in enumerate(self.names)
            if name.endswith(suffixes)
        )

    def bytes_of(self, *suffixes: str) -> int:
        return sum(
            self.bytes[nid]
            for nid, name in enumerate(self.names)
            if name.endswith(suffixes)
        )

    def dump(self, path: str) -> None:
        """Write the recorded spans (times in µs from the window start)."""
        base = self.started
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "columns": ["name", "start_us", "end_us", "parent", "op"],
                    "spans": [
                        [
                            self.span_name[i],
                            round((self.span_start[i] - base) * 1e6, 2),
                            round((self.span_end[i] - base) * 1e6, 2),
                            self.span_parent[i],
                            self.span_op[i],
                        ]
                        for i in range(len(self.span_name))
                    ],
                    "dropped_spans": max(0, sum(self.calls) - len(self.span_name)),
                },
                handle,
            )


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Injector:
    """Adds a fixed busy-wait before each call of one layer's targets."""

    def __init__(self, layer: str, delay_s: float):
        if layer not in INJECTION_TARGETS:
            raise ValueError(f"unknown injection layer {layer!r}")
        self.layer = layer
        self.delay_s = delay_s
        self.calls = 0
        self._patcher = Patcher()

    def install(self) -> "Injector":
        for module_name, name in INJECTION_TARGETS[self.layer]:
            self._patcher.patch(module_name, name, self._wrap)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            busy_wait(self.delay_s)
            return fn(*args, **kwargs)

        return wrapper


def installed_targets() -> List[Tuple[str, str, object]]:
    """Every wrappable target with the object currently installed there
    (used to prove wrappers were removed)."""
    found = []
    seen = set()
    for table in (LAYERS, INJECTION_TARGETS):
        for targets in table.values():
            for module_name, name in targets:
                if (module_name, name) in seen:
                    continue
                seen.add((module_name, name))
                owner, attr = _resolve(module_name, name)
                found.append((module_name, name, getattr(owner, attr)))
    for module_name, cls_name in _GAUGE_CLASSES:
        owner, attr = _resolve(module_name, f"{cls_name}.__init__")
        found.append((module_name, f"{cls_name}.__init__", getattr(owner, attr)))
    return found

