"""Overload-resilience primitives: deadlines, admission control,
circuit breakers, latency tracking, and hedging policy.

DCert's economics invite a small certified serving tier to absorb
traffic from a huge fleet of superlight clients — which makes the tier's
*overload* behaviour part of the system's correctness story.  Without
backpressure, a demand spike turns static timeouts and synchronized
exponential retries into a retry storm that amplifies load on the
busy-worker replicas: the classic metastable failure mode.  This module
collects the deterministic (virtual-clock, seeded) building blocks the
RPC/gateway/client stacks compose into an end-to-end protection layer:

* **Deadline propagation** (:func:`sanitize_deadline`,
  :func:`shrink_deadline`, :func:`remaining_ms`) — every
  :class:`~repro.net.rpc.RpcRequest` can carry an absolute virtual-clock
  deadline; each hop hands its downstream a slightly smaller budget, and
  a server refuses to *start* work it cannot finish in time, so expired
  requests cost zero provider work.
* **Admission control** (:class:`AdmissionPolicy`) — a CoDel-style
  queue-*delay* threshold (not queue length alone) at the busy-worker
  server: when the predicted wait exceeds the target, the request is
  shed with a typed :class:`~repro.errors.OverloadedError` carrying a
  ``retry_after_ms`` hint, which clients honor (clamped — a forged hint
  can only delay a retry, never stall a client forever).
* **Circuit breakers** (:class:`CircuitBreaker`) — closed → open →
  half-open per endpoint with a seeded-jitter reopen schedule and a
  bounded probe trickle, so a saturated or dead endpoint stops
  receiving traffic *before* failure-threshold ejection kicks in.
* **Latency tracking** (:class:`LatencyTracker`) — a bounded sample
  window per replica with quantiles; drives the gateway's hedge delay.
* **Hedging policy** (:class:`HedgePolicy`) — when a dispatch is slower
  than the observed p90, the gateway issues one hedged attempt at a
  *different* replica and abandons the loser.

Everything here is wall-clock-free and seeded: the same virtual-time
schedule produces byte-identical shed/trip/hedge decisions, which is
what lets ``repro.sim`` fingerprint overload scenarios.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

#: Sentinel for "no deadline" on the wire (absence must survive the
#: canonical encoding, so it is a value, not None).
NO_DEADLINE = 0.0

#: Client-side ceiling on any remote ``retry_after_ms`` hint.  The hint
#: crosses the wire from an *untrusted* endpoint: honoring it verbatim
#: would let a forged response park a client indefinitely.  Clamped, the
#: worst a forgery can do is delay one retry by this much.
RETRY_AFTER_CAP_MS = 10_000.0


def sanitize_deadline(deadline_ms: object) -> float:
    """A usable absolute deadline, or :data:`NO_DEADLINE`.

    Wire fields are attacker-controlled: a corrupted deadline may be
    negative, NaN, or infinite.  Anything non-finite or non-positive
    degrades to "no deadline" — the safe direction, since a deadline
    only ever *refuses* work (verification still guards every answer).
    """
    if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
        return NO_DEADLINE
    value = float(deadline_ms)
    if not math.isfinite(value) or value <= 0.0:
        return NO_DEADLINE
    return value


def shrink_deadline(deadline_ms: float, margin_ms: float) -> float:
    """Shrink a hop's budget by ``margin_ms`` (reply travel time).

    Propagating ``deadline - margin`` downstream means the downstream
    answer can still reach *us* before our own deadline.  No deadline
    stays no deadline.
    """
    if sanitize_deadline(deadline_ms) == NO_DEADLINE:
        return NO_DEADLINE
    return max(deadline_ms - margin_ms, 1e-9)


def remaining_ms(deadline_ms: float, now_ms: float) -> float:
    """Budget left before ``deadline_ms`` (``inf`` when unset)."""
    if sanitize_deadline(deadline_ms) == NO_DEADLINE:
        return math.inf
    return deadline_ms - now_ms


def clamp_retry_after(hint_ms: object) -> float:
    """A remote ``retry_after_ms`` hint made safe to honor.

    Non-numeric, non-finite, or negative values collapse to zero (no
    extra wait); anything else is capped at :data:`RETRY_AFTER_CAP_MS`.
    """
    if not isinstance(hint_ms, (int, float)) or isinstance(hint_ms, bool):
        return 0.0
    value = float(hint_ms)
    if not math.isfinite(value) or value <= 0.0:
        return 0.0
    return min(value, RETRY_AFTER_CAP_MS)


# -- admission control ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """When a busy-worker server sheds instead of queueing.

    CoDel's insight applies directly to the virtual-clock busy-worker
    model: the harm of an over-full queue is *standing delay*, so the
    shedding signal is the predicted queue **delay** (time until this
    request would start), not the queue length.  ``queue_limit`` is the
    belt-and-braces bound on outstanding admitted requests.
    """

    #: Shed when the predicted wait-before-start exceeds this.
    shed_delay_ms: float = 50.0
    #: Hard cap on admitted-but-unfinished requests.
    queue_limit: int = 64
    #: Bounds on the ``retry_after_ms`` hint attached to a shed.
    retry_after_min_ms: float = 5.0
    retry_after_cap_ms: float = 2_000.0

    def retry_after_hint(self, queue_delay_ms: float, service_ms: float) -> float:
        """How long a shed caller should back off before retrying:
        roughly the time for the standing queue to drain back under the
        shed threshold, floored and capped."""
        excess = queue_delay_ms - self.shed_delay_ms + service_ms
        return min(
            max(excess, self.retry_after_min_ms), self.retry_after_cap_ms
        )


# -- circuit breakers ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CircuitBreakerPolicy:
    """When a per-endpoint breaker trips and how it re-closes."""

    #: Consecutive transport failures that open the breaker.
    failure_trip: int = 5
    #: Consecutive OVERLOADED sheds that open it (saturation signals
    #: trip faster than plain failures — the endpoint *told* us to stop).
    overload_trip: int = 2
    #: Open-interval schedule: base × factor^reopens, capped.
    open_base_ms: float = 250.0
    open_factor: float = 2.0
    open_max_ms: float = 10_000.0
    #: Requests let through while half-open (the probe trickle).
    half_open_probes: int = 1
    #: Seeded multiplicative jitter on the open interval (0..1), so a
    #: fleet of breakers tripped by one event does not re-probe in
    #: lockstep.
    jitter: float = 0.2


class CircuitBreaker:
    """One endpoint's closed → open → half-open state machine.

    Deterministic: reopen jitter comes from a breaker-local
    ``random.Random`` seeded from the breaker's name, so the same
    virtual-time failure sequence always yields the same transitions.

    The split of duties against gateway health tracking: health answers
    *is the endpoint alive* (timeouts, integrity failures eject it);
    the breaker answers *should we send it traffic right now* — it also
    reacts to :class:`~repro.errors.OverloadedError`, where the endpoint
    is demonstrably alive but asking for backpressure, which must *not*
    count as a liveness strike.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self, policy: CircuitBreakerPolicy | None = None, *, seed: str = ""
    ) -> None:
        self.policy = policy or CircuitBreakerPolicy()
        self.state = self.CLOSED
        self._rng = random.Random(f"breaker:{seed}")
        self._failure_streak = 0
        self._overload_streak = 0
        self._reopens = 0  # consecutive open periods without a success
        self._reopen_at_ms = 0.0
        self._probes_left = 0
        self.trips = 0
        self.closes = 0

    @property
    def reopen_at_ms(self) -> float | None:
        """When an open breaker next admits a probe (None unless open)."""
        return self._reopen_at_ms if self.state == self.OPEN else None

    def permits_at_ms(self) -> float | None:
        """Earliest virtual time a dispatch may be routed here (pure).

        ``None`` means no amount of waiting helps: the breaker is
        half-open with every probe outstanding, and only a probe's
        verdict (or :meth:`abandon_probe`) moves it.
        """
        if self.state == self.OPEN:
            return self._reopen_at_ms
        if self.state == self.HALF_OPEN and self._probes_left <= 0:
            return None
        return 0.0

    def on_dispatch(self, now_ms: float) -> None:
        """Account for one routed request (spends a half-open probe)."""
        if self.state == self.OPEN and now_ms >= self._reopen_at_ms:
            self.state = self.HALF_OPEN
            self._probes_left = self.policy.half_open_probes
        if self.state == self.HALF_OPEN:
            self._probes_left -= 1

    def abandon_probe(self) -> None:
        """A half-open probe was given up without a verdict (a hedge
        loser, a batch that raised mid-flight): back to open with the
        reopen time already reached, so the next dispatch probes again
        instead of the breaker waiting forever on an answer nobody
        is listening for."""
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN

    def record_success(self) -> None:
        if self.state != self.CLOSED:
            self.closes += 1
        self.state = self.CLOSED
        self._failure_streak = 0
        self._overload_streak = 0
        self._reopens = 0

    def record_failure(
        self,
        now_ms: float,
        *,
        overload: bool = False,
        retry_after_ms: float = 0.0,
    ) -> None:
        if self.state in (self.OPEN, self.HALF_OPEN):
            # A failed probe (or a straggler): straight back to open,
            # with the next window pushed further out.
            self._open(now_ms, retry_after_ms)
            return
        if overload:
            self._overload_streak += 1
        else:
            self._failure_streak += 1
        if (
            self._overload_streak >= self.policy.overload_trip
            or self._failure_streak >= self.policy.failure_trip
        ):
            self._open(now_ms, retry_after_ms)

    def _open(self, now_ms: float, retry_after_ms: float) -> None:
        interval = min(
            self.policy.open_base_ms * self.policy.open_factor**self._reopens,
            self.policy.open_max_ms,
        )
        if self.policy.jitter:
            interval *= 1.0 + self.policy.jitter * self._rng.random()
        # An explicit retry-after hint from the endpoint (untrusted,
        # so clamped) can only *extend* the quiet period, never shorten it.
        interval = max(interval, clamp_retry_after(retry_after_ms))
        self.state = self.OPEN
        self._reopen_at_ms = now_ms + interval
        self._reopens += 1
        self._failure_streak = 0
        self._overload_streak = 0
        self.trips += 1


# -- latency tracking ----------------------------------------------------------


class LatencyTracker:
    """A bounded window of one endpoint's recent latencies.

    Purely virtual-time (the gateway feeds it ``bus.clock_ms`` deltas,
    one per successful dispatch), so the hedge delay derived from it is
    deterministic.  This is control-path state — routing depends on it
    with observability off — which is why it is not an
    ``obs.Histogram``.
    """

    def __init__(self, window: int = 64) -> None:
        self._samples: deque[float] = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, sample_ms: float) -> None:
        self._samples.append(max(0.0, float(sample_ms)))

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile of the window (None when empty)."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- hedging -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HedgePolicy:
    """When the gateway issues a second, hedged dispatch.

    The hedge fires once a dispatch has been outstanding longer than
    the observed ``quantile`` of that endpoint's latency — i.e. only
    for the slow tail — and goes to a *different* replica.  The first
    answer wins; the loser is abandoned.  Until ``min_samples``
    observations exist the gateway does not hedge (no basis for a
    delay), so cold starts behave exactly like an unhedged gateway.
    """

    quantile: float = 0.9
    min_samples: int = 8
    delay_floor_ms: float = 5.0
    delay_cap_ms: float = 500.0

    def delay_ms(self, tracker: LatencyTracker) -> float | None:
        """Virtual ms to wait before hedging, or None (don't hedge)."""
        if len(tracker) < self.min_samples:
            return None
        observed = tracker.quantile(self.quantile)
        if observed is None:
            return None
        return min(max(observed, self.delay_floor_ms), self.delay_cap_ms)
