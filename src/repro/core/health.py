"""Health-aware runtime machinery: breakers, monitor, supervisor.

The paper defers all QoS/robustness control to future work (Section 7);
PR 1 added blind retry and re-binding.  This module makes the runtime
*adaptive*: it observes invocation outcomes, delivery failures and lease
churn, folds them into per-translator and per-peer health states, and
feeds those states back into delivery (circuit breakers), discovery
(health-ordered lookup) and binding (failover) decisions.

Three pieces:

- :class:`CircuitBreaker` -- the classic closed / open / half-open state
  machine on the simulated clock, with jittered exponential reopen
  backoff.  Wrapped around translator native invocations and per-peer
  transport delivery so exhausted retry budgets stop burning spool
  capacity on dead endpoints.
- :class:`HealthMonitor` -- folds outcomes into per-translator
  ``HEALTHY``/``DEGRADED``/``QUARANTINED`` states (carried on
  :class:`~repro.core.profile.TranslatorProfile` and gossiped), with flap
  detection: too many transitions inside a window earns a quarantine
  whose penalty grows while flapping persists and decays with quiet.  A
  separate *peer overlay* tracks delivery failures and lease churn per
  peer runtime; effective health is the max of the gossiped state and the
  local overlay.
- :class:`Supervisor` -- restarts crashed mapper discovery loops and
  translator pump processes with capped exponential backoff instead of
  leaving them dead (deliberate kills are never restarted).

Determinism: breaker jitter is seeded from the breaker's key via CRC-32
(never the process-salted ``hash``), and all timing uses the sim kernel,
so seeded chaos plans replay identical traces.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.simnet.kernel import Kernel, Process, ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profile import TranslatorProfile
    from repro.core.runtime import UMiddleRuntime

__all__ = [
    "HealthState",
    "CircuitBreaker",
    "HealthMonitor",
    "Supervisor",
    "jittered_backoff",
]


def jittered_backoff(
    key: str, attempt: int, base_s: float, max_s: float, jitter: float = 0.25
) -> float:
    """Deterministic exponential backoff with CRC-seeded jitter.

    Shared by the saga retry loop (and usable by any budgeted retrier):
    seeding from ``(key, attempt)`` keeps seeded chaos replays identical
    while de-synchronizing concurrent retry loops -- the same reasoning
    as :class:`CircuitBreaker`'s CRC-seeded reopen jitter.
    """
    rng = random.Random(zlib.crc32(f"{key}#{attempt}".encode("utf-8")))
    delay = min(base_s * (2.0 ** max(attempt - 1, 0)), max_s)
    return delay * (1.0 + jitter * (2.0 * rng.random() - 1.0))


class HealthState(Enum):
    """Per-translator health carried on profiles and gossiped."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.QUARANTINED: 2,
}

#: Wire-form health string -> ordering rank (unknown strings rank healthy).
WIRE_RANK: Dict[str, int] = {state.value: state.rank for state in HealthState}


# -- circuit breaker ----------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed -> open -> half-open breaker on the simulated clock.

    ``allow()`` is the admission test: always true while closed; while
    open it becomes true exactly once per reopen interval, flipping to
    half-open and admitting a single probe.  A probe success closes the
    breaker (and resets the backoff ladder); a probe failure re-opens it
    with the next (doubled, jittered, capped) reopen delay.
    """

    def __init__(
        self,
        kernel: Kernel,
        key: str,
        failure_threshold: int = 3,
        reopen_base_s: float = 2.0,
        reopen_max_s: float = 30.0,
        jitter: float = 0.25,
    ):
        self.kernel = kernel
        self.key = key
        self.failure_threshold = failure_threshold
        self.reopen_base_s = reopen_base_s
        self.reopen_max_s = reopen_max_s
        self.jitter = jitter
        self.state = CLOSED
        self.failures = 0
        self.times_opened = 0
        self.retry_at = 0.0
        #: Bounded (time, state) log of transitions, for tests/diagnosis.
        self.transitions: List[Tuple[float, str]] = []
        # CRC-32 of the key, not hash(): hash is salted per process and
        # would break seeded-replay determinism.
        self._rng = random.Random(zlib.crc32(key.encode("utf-8")))

    @property
    def is_closed(self) -> bool:
        return self.state == CLOSED

    def allow(self) -> bool:
        """May a call proceed right now?  (May flip open -> half-open.)"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN and self.kernel.now >= self.retry_at:
            self._set_state(HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.times_opened = 0
        self._set_state(CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            self._open()

    def probe_now(self) -> None:
        """External evidence the endpoint may be back (e.g. we heard an
        announcement from the peer): make the next ``allow()`` probe."""
        if self.state == OPEN:
            self.retry_at = self.kernel.now

    def _open(self) -> None:
        self.times_opened += 1
        backoff = min(
            self.reopen_base_s * (2 ** (self.times_opened - 1)),
            self.reopen_max_s,
        )
        if self.jitter:
            backoff *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        self.retry_at = self.kernel.now + backoff
        self.failures = 0
        self._set_state(OPEN)

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append((self.kernel.now, state))
        if len(self.transitions) > 64:
            del self.transitions[: len(self.transitions) - 64]


# -- health monitor -----------------------------------------------------------

#: Consecutive invocation failures before a translator turns DEGRADED.
FAILURE_THRESHOLD = 3
#: Consecutive successes (while degraded) before it turns HEALTHY again.
RECOVERY_THRESHOLD = 2
#: Flap detection: this many transitions inside the window -> quarantine.
FLAP_WINDOW_S = 60.0
FLAP_THRESHOLD = 4
#: Quarantine penalty: base doubles per recent quarantine, capped, and the
#: streak decays after a quiet period.
QUARANTINE_BASE_S = 20.0
QUARANTINE_MAX_S = 240.0
QUARANTINE_DECAY_S = 180.0
#: Peer overlay: consecutive delivery failures before a peer is DEGRADED.
PEER_FAILURE_THRESHOLD = 3
#: Lease churn: this many expiries inside the window quarantine the peer.
PEER_CHURN_THRESHOLD = 3
PEER_CHURN_WINDOW_S = 120.0
PEER_QUARANTINE_S = 30.0


@dataclass
class _LocalRecord:
    """Observed health of one local translator."""

    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    flap_times: List[float] = field(default_factory=list)
    quarantine_until: float = 0.0
    quarantine_streak: int = 0
    last_quarantine: float = float("-inf")


@dataclass
class _PeerRecord:
    """Locally observed overlay for one peer runtime."""

    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    expiries: List[float] = field(default_factory=list)
    quarantine_until: float = 0.0


class HealthMonitor:
    """Folds outcomes into health states and notifies on changes.

    ``on_local_change(translator_id, state, reason)`` fires when a local
    translator's state moves (the runtime gossips it via the directory);
    ``on_peer_change(runtime_id, state, reason)`` fires when the peer
    overlay moves (the runtime re-evaluates failover bindings).  All
    recording methods are no-ops when disabled.
    """

    def __init__(
        self,
        kernel: Kernel,
        enabled: bool = True,
        on_local_change: Optional[Callable[[str, HealthState, str], None]] = None,
        on_peer_change: Optional[Callable[[str, HealthState, str], None]] = None,
    ):
        self.kernel = kernel
        self.enabled = enabled
        self.on_local_change = on_local_change
        self.on_peer_change = on_peer_change
        self._local: Dict[str, _LocalRecord] = {}
        self._peers: Dict[str, _PeerRecord] = {}
        self._unhealthy_peers: Set[str] = set()

    # -- local translator health ------------------------------------------

    def record_failure(self, translator_id: str, kind: str = "invoke") -> None:
        if not self.enabled:
            return
        record = self._local.setdefault(translator_id, _LocalRecord())
        record.consecutive_successes = 0
        record.consecutive_failures += 1
        if (
            record.state is HealthState.HEALTHY
            and record.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._set_local(
                translator_id,
                record,
                HealthState.DEGRADED,
                f"{record.consecutive_failures} consecutive {kind} failures",
            )

    def record_success(self, translator_id: str) -> None:
        if not self.enabled:
            return
        record = self._local.get(translator_id)
        if record is None:
            return
        record.consecutive_failures = 0
        if record.state is HealthState.DEGRADED:
            record.consecutive_successes += 1
            if record.consecutive_successes >= RECOVERY_THRESHOLD:
                self._set_local(
                    translator_id, record, HealthState.HEALTHY, "recovered"
                )

    def health_of(self, translator_id: str) -> HealthState:
        record = self._local.get(translator_id)
        return record.state if record is not None else HealthState.HEALTHY

    def _set_local(
        self,
        translator_id: str,
        record: _LocalRecord,
        state: HealthState,
        reason: str,
        flap: bool = True,
    ) -> None:
        now = self.kernel.now
        if flap:
            record.flap_times.append(now)
            cutoff = now - FLAP_WINDOW_S
            record.flap_times = [t for t in record.flap_times if t >= cutoff]
            if (
                state is not HealthState.QUARANTINED
                and len(record.flap_times) >= FLAP_THRESHOLD
            ):
                self._quarantine_local(translator_id, record)
                return
        record.state = state
        record.consecutive_successes = 0
        if self.on_local_change is not None:
            self.on_local_change(translator_id, state, reason)

    def _quarantine_local(self, translator_id: str, record: _LocalRecord) -> None:
        now = self.kernel.now
        if now - record.last_quarantine > QUARANTINE_DECAY_S:
            record.quarantine_streak = 0
        record.quarantine_streak += 1
        record.last_quarantine = now
        penalty = min(
            QUARANTINE_BASE_S * (2 ** (record.quarantine_streak - 1)),
            QUARANTINE_MAX_S,
        )
        record.quarantine_until = now + penalty
        record.state = HealthState.QUARANTINED
        record.flap_times.clear()
        if self.on_local_change is not None:
            self.on_local_change(
                translator_id,
                HealthState.QUARANTINED,
                f"flapping; quarantined for {penalty:.1f}s",
            )
        self.kernel.call_later(penalty, lambda: self._maybe_lift(translator_id))

    def _maybe_lift(self, translator_id: str) -> None:
        record = self._local.get(translator_id)
        if record is None or record.state is not HealthState.QUARANTINED:
            return
        if self.kernel.now + 1e-9 < record.quarantine_until:
            return  # a later quarantine superseded this timer
        record.consecutive_failures = 0
        # Probation, not a clean bill -- and lifting never counts as a flap
        # transition (that would re-quarantine forever).
        self._set_local(
            translator_id,
            record,
            HealthState.DEGRADED,
            "quarantine lifted (probation)",
            flap=False,
        )

    # -- peer overlay ------------------------------------------------------

    def peer_failure(self, runtime_id: str) -> None:
        if not self.enabled:
            return
        record = self._peers.setdefault(runtime_id, _PeerRecord())
        record.consecutive_failures += 1
        if (
            record.state is HealthState.HEALTHY
            and record.consecutive_failures >= PEER_FAILURE_THRESHOLD
        ):
            record.state = HealthState.DEGRADED
            self._unhealthy_peers.add(runtime_id)
            if self.on_peer_change is not None:
                self.on_peer_change(
                    runtime_id,
                    HealthState.DEGRADED,
                    f"{record.consecutive_failures} consecutive delivery failures",
                )

    def peer_success(self, runtime_id: str) -> None:
        self._peer_recovered(runtime_id, "delivery succeeded")

    def peer_alive(self, runtime_id: str) -> None:
        """The peer announced itself (gossip heard): clear degradation
        learned from delivery failures.  Churn quarantines are time-based
        and deliberately survive announcements (flapping peers announce
        every time they come back up)."""
        self._peer_recovered(runtime_id, "announcement heard")

    def _peer_recovered(self, runtime_id: str, reason: str) -> None:
        if not self.enabled:
            return
        record = self._peers.get(runtime_id)
        if record is None:
            return
        record.consecutive_failures = 0
        if record.state is HealthState.DEGRADED:
            record.state = HealthState.HEALTHY
            self._unhealthy_peers.discard(runtime_id)
            if self.on_peer_change is not None:
                self.on_peer_change(runtime_id, HealthState.HEALTHY, reason)

    def note_runtime_expired(self, runtime_id: str) -> None:
        """A peer's lease expired (sweeper or crash-triggered reaping)."""
        if not self.enabled:
            return
        now = self.kernel.now
        record = self._peers.setdefault(runtime_id, _PeerRecord())
        record.expiries.append(now)
        cutoff = now - PEER_CHURN_WINDOW_S
        record.expiries = [t for t in record.expiries if t >= cutoff]
        if (
            len(record.expiries) >= PEER_CHURN_THRESHOLD
            and record.state is not HealthState.QUARANTINED
        ):
            record.state = HealthState.QUARANTINED
            record.quarantine_until = now + PEER_QUARANTINE_S
            self._unhealthy_peers.add(runtime_id)
            if self.on_peer_change is not None:
                self.on_peer_change(
                    runtime_id,
                    HealthState.QUARANTINED,
                    f"lease churn: {len(record.expiries)} expiries in "
                    f"{PEER_CHURN_WINDOW_S:.0f}s",
                )
            self.kernel.call_later(
                PEER_QUARANTINE_S, lambda: self._maybe_lift_peer(runtime_id)
            )

    def _maybe_lift_peer(self, runtime_id: str) -> None:
        record = self._peers.get(runtime_id)
        if record is None or record.state is not HealthState.QUARANTINED:
            return
        if self.kernel.now + 1e-9 < record.quarantine_until:
            return
        record.state = HealthState.HEALTHY
        record.consecutive_failures = 0
        self._unhealthy_peers.discard(runtime_id)
        if self.on_peer_change is not None:
            self.on_peer_change(
                runtime_id, HealthState.HEALTHY, "peer quarantine lifted"
            )

    def peer_health(self, runtime_id: str) -> HealthState:
        record = self._peers.get(runtime_id)
        if record is None:
            return HealthState.HEALTHY
        if record.state is HealthState.QUARANTINED:
            if self.kernel.now < record.quarantine_until:
                return HealthState.QUARANTINED
            return HealthState.HEALTHY
        return record.state

    def forget_peers(self) -> None:
        """Crash semantics: a crashed runtime loses its observed overlay."""
        self._peers.clear()
        self._unhealthy_peers.clear()

    # -- effective health (gossip + overlay) -------------------------------

    @property
    def overlay_active(self) -> bool:
        """True when any peer is currently degraded or quarantined --
        the directory's lookup fast path bypasses ordering otherwise."""
        return bool(self._unhealthy_peers)

    def effective_rank(self, profile: "TranslatorProfile") -> int:
        """Ordering rank: the worse of the profile's gossiped health and
        our locally observed overlay for its owning runtime."""
        rank = WIRE_RANK.get(profile.health, 0)
        if profile.runtime_id in self._unhealthy_peers:
            rank = max(rank, self.peer_health(profile.runtime_id).rank)
        return rank

    def effective_health(self, profile: "TranslatorProfile") -> HealthState:
        rank = self.effective_rank(profile)
        for state in HealthState:
            if state.rank == rank:
                return state
        return HealthState.HEALTHY  # pragma: no cover - ranks are exhaustive


# -- supervisor ---------------------------------------------------------------


class Supervisor:
    """Restarts crashed processes (mapper discovery loops, translator
    pumps) with capped exponential backoff.

    ``watch(name, process, respawn)`` registers a completion callback on
    the process: an unhandled exception (anything but the deliberate
    :class:`ProcessKilled`) is defused -- so one crashed bridge process no
    longer aborts the whole simulation -- and ``respawn()`` is scheduled
    after a backoff that doubles per recent crash and decays with quiet.
    ``respawn`` returns the replacement process (re-watched) or ``None``
    to decline (e.g. the mapper was stopped meanwhile).
    """

    RESTART_BASE_S = 0.5
    RESTART_MAX_S = 8.0
    RESTART_DECAY_S = 60.0

    def __init__(self, runtime: "UMiddleRuntime"):
        self.runtime = runtime
        self.restarts = 0
        self._failures: Dict[str, Tuple[int, float]] = {}

    @property
    def enabled(self) -> bool:
        return self.runtime.health.enabled

    def watch(
        self,
        name: str,
        process: Process,
        respawn: Callable[[], Optional[Process]],
    ) -> Process:
        if not self.enabled:
            return process

        def on_exit(event, _name=name, _respawn=respawn):
            exc = event.exception
            if exc is None or isinstance(exc, ProcessKilled):
                return  # clean exit or deliberate kill: not a crash
            event.defused = True
            self._crashed(_name, _respawn, exc)

        process.add_callback(on_exit)
        return process

    def _crashed(self, name: str, respawn, exc: BaseException) -> None:
        kernel = self.runtime.kernel
        now = kernel.now
        count, last = self._failures.get(name, (0, float("-inf")))
        if now - last > self.RESTART_DECAY_S:
            count = 0
        count += 1
        self._failures[name] = (count, now)
        backoff = min(
            self.RESTART_BASE_S * (2 ** (count - 1)), self.RESTART_MAX_S
        )
        self.restarts += 1
        self.runtime.trace(
            "supervisor.restart",
            f"{name} crashed ({exc}); restart #{count} in {backoff:.2f}s",
            backoff=backoff,
            crashes=count,
        )
        kernel.call_later(backoff, lambda: self._respawn(name, respawn))

    def _respawn(self, name: str, respawn) -> None:
        try:
            process = respawn()
        except Exception as exc:
            self.runtime.trace("supervisor.respawn-failed", f"{name}: {exc}")
            return
        if process is not None:
            self.watch(name, process, respawn)
