"""Overload-resilience primitives: deadlines, admission control,
circuit breakers, and latency tracking.

DCert's economics invite a small certified serving tier to absorb
traffic from a huge fleet of superlight clients — which makes the tier's
*overload* behaviour part of the system's correctness story.  Without
backpressure, a demand spike turns every caller's timeout-and-resend
into a retry storm that amplifies load on the busy-worker replicas:
the classic metastable failure mode.  This module
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
  ``retry_after_ms`` hint, which the gateway's breakers honor (clamped —
  a forged hint can only hold one replica out of rotation for a
  bounded time, never stall a client).
* **Circuit breakers** (:class:`CircuitBreaker`) — the gateway's one
  per-replica state machine, closed → open → half-open, with a
  seeded-jitter, backed-off reopen schedule and one probe dispatch per
  half-open window: liveness strikes and overload sheds each trip it.
  Its trip counts and reopen schedule are class constants, not options.
* **Latency tracking** (:class:`LatencyTracker`) — a bounded sample
  window per replica with quantiles; the gateway's hedge delay is a
  quantile of it (:func:`repro.net.gateway.hedge_delay_ms`).

Everything here is wall-clock-free and seeded: the same virtual-time
schedule produces byte-identical shed/trip decisions, which is
what lets ``repro.sim`` fingerprint overload scenarios.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

#: Sentinel for "no deadline" on the wire (absence must survive the
#: canonical encoding, so it is a value, not None).
NO_DEADLINE = 0.0

#: Client-side ceiling on any remote ``retry_after_ms`` hint.  The hint
#: crosses the wire from an *untrusted* endpoint: honoring it verbatim
#: would let a forged response park a replica's breaker indefinitely.
#: Clamped, the worst a forgery can do is hold it open this long.
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
    HINT_MIN_MS: ClassVar[float] = 5.0
    HINT_CAP_MS: ClassVar[float] = 2_000.0

    def retry_after_hint(self, queue_delay_ms: float, service_ms: float) -> float:
        """How long a shed caller should back off before retrying:
        roughly the time for the standing queue to drain back under the
        shed threshold, floored and capped."""
        excess = queue_delay_ms - self.shed_delay_ms + service_ms
        return min(max(excess, self.HINT_MIN_MS), self.HINT_CAP_MS)


# -- circuit breakers ----------------------------------------------------------


class CircuitBreaker:
    """One endpoint's closed → open → half-open state machine.

    Closed is "in rotation".  :attr:`FAILURE_TRIP` consecutive liveness
    strikes, or :attr:`OVERLOAD_TRIP` consecutive sheds, open it until a
    backed-off reopen time; the first dispatch after that is the one
    half-open probe.  The probe's success closes the breaker, its
    failure reopens it with the window doubled.  A shed
    (:class:`~repro.errors.OverloadedError`) is an endpoint that is
    alive but asking for backpressure: it feeds its own streak, never
    the liveness one.

    Deterministic: reopen jitter comes from a breaker-local
    ``random.Random`` seeded from the breaker's name, so the same
    virtual-time failure sequence always yields the same transitions.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: Consecutive liveness strikes (timeouts, integrity and transport
    #: failures) that open the breaker.
    FAILURE_TRIP = 2
    #: Consecutive OVERLOADED sheds that open it; a shed is saturation,
    #: not death, so it never counts as a liveness strike.
    OVERLOAD_TRIP = 2
    #: Open-interval schedule: base × factor^reopens, capped.
    OPEN_BASE_MS = 200.0
    OPEN_FACTOR = 2.0
    OPEN_MAX_MS = 5_000.0
    #: Seeded multiplicative jitter on the open interval, so a fleet of
    #: breakers tripped by one event does not re-probe in lockstep.
    JITTER = 0.2

    def __init__(self, seed: str) -> None:
        self.state = self.CLOSED
        self._rng = random.Random(f"breaker:{seed}")
        self._failure_streak = 0
        self._overload_streak = 0
        self._reopens = 0  # consecutive open periods without a success
        self._reopen_at_ms = 0.0
        self.trips = 0
        self.closes = 0

    @property
    def reopen_at_ms(self) -> float | None:
        """When an open breaker next admits a probe (None unless open)."""
        return self._reopen_at_ms if self.state == self.OPEN else None

    def permits_at_ms(self) -> float | None:
        """Earliest virtual time a dispatch may be routed here (pure).

        ``None`` means no amount of waiting helps: the breaker is
        half-open with its probe outstanding, and only the probe's
        verdict (or :meth:`abandon_probe`) moves it.
        """
        if self.state == self.OPEN:
            return self._reopen_at_ms
        if self.state == self.HALF_OPEN:
            return None
        return 0.0

    def on_dispatch(self, now_ms: float) -> None:
        """Account for one routed request: the first one after the
        reopen time is the half-open probe."""
        if self.state == self.OPEN and now_ms >= self._reopen_at_ms:
            self.state = self.HALF_OPEN

    def abandon_probe(self) -> None:
        """A half-open probe was given up without a verdict (a terminal
        answer, a batch that raised mid-flight; one its hedge beat has
        failed): back to open with the reopen time already reached, so
        the next dispatch probes again instead of the breaker waiting
        forever on an answer nobody is listening for."""
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
            self._overload_streak >= self.OVERLOAD_TRIP
            or self._failure_streak >= self.FAILURE_TRIP
        ):
            self._open(now_ms, retry_after_ms)

    def _open(self, now_ms: float, retry_after_ms: float) -> None:
        interval = min(
            self.OPEN_BASE_MS * self.OPEN_FACTOR**self._reopens, self.OPEN_MAX_MS
        )
        interval *= 1.0 + self.JITTER * self._rng.random()
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

    #: Samples kept (the oldest falls out).
    WINDOW = 64

    def __init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=self.WINDOW)

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
