"""Load-balanced gateway over a fleet of QueryService replicas.

DCert's core economy — certificates make any answer self-certifying on
the client — means the serving side replicates freely: no replica needs
to be trusted, so the only questions a serving tier has to answer are
*which replica* (load balancing) and *is it alive* (health).  This
module supplies both on the deterministic virtual-clock bus:

* **Balancing** — round robin over the eligible replicas, in a stable
  order.
* **Health** — each :class:`ReplicaState` has one
  :class:`~repro.net.resilience.CircuitBreaker`, always on: closed is
  in rotation; liveness strikes or overload sheds open it until a
  backed-off reopen time; then one real request is the half-open probe,
  whose success closes it and whose failure reopens it with the window
  doubled.  This is driven purely by observed RPC behaviour, so
  anything the fault layer does (drops, delays, a supervisor pausing a
  crashed endpoint) shows up as failures and anything a supervisor
  restores shows up as a probe success.
* **Failover** — a failed dispatch is re-sent to another replica.  The
  gateway trusts no replica: the caller's ``accept`` verifies each
  answer, and a rejected answer strikes its replica exactly like a
  timeout, so a stale or lying replica is opened after
  :attr:`~repro.net.resilience.CircuitBreaker.FAILURE_TRIP` rejected
  answers.
* **Hedging** — always on: a dispatch outstanding past its replica's
  observed latency quantile (:func:`hedge_delay_ms`), and every
  half-open probe at once, is raced by one more dispatch to a closed
  replica; the first answer wins.

The gateway has one setting, ``timeout_ms``; the breaker and hedge
values are constants (here and on
:class:`~repro.net.resilience.CircuitBreaker`), not options.
Per-replica bookkeeping is bounded: the in-flight map is capped at
:data:`OUTSTANDING_LIMIT` entries (oldest evicted), the same discipline
as ``NetworkNode.received``, and the latency window is a fixed-size
deque, so week-long chaos runs cannot grow memory.

There is one way to have a request in the air:
:meth:`QueryGateway.call_many`, which owns every in-flight request of a
batch, keeps every eligible replica's pipe full and applies one rule
set per dispatch (:meth:`QueryGateway.call` is a batch of one).  With
the :class:`~repro.net.rpc.RpcServer` busy-worker model, M queries over
N replicas complete in ~M/N service times: the scaling claim of
``tests/sim/test_modeled_claims.py``, timed by ``gateway.batch_ms``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    RpcTimeoutError,
    ServiceUnavailableError,
)
from repro.net import wire
from repro.net.bus import MessageBus
from repro.net.resilience import (
    NO_DEADLINE,
    CircuitBreaker,
    LatencyTracker,
    sanitize_deadline,
    shrink_deadline,
)
from repro.net.rpc import RpcClient

#: Cap on a replica's in-flight map (oldest evicted).
OUTSTANDING_LIMIT = 256
#: Budget surrendered per hop when propagating a deadline, so the
#: replica's reply can still travel back before *our* caller's deadline.
HOP_MARGIN_MS = 10.0
#: A dispatch is hedged once it has been outstanding longer than this
#: quantile of its replica's latency window, clamped to the floor and
#: cap; with fewer samples than the minimum there is no basis for a
#: delay, and only a half-open probe is hedged.
HEDGE_QUANTILE = 0.9
HEDGE_MIN_SAMPLES = 8
HEDGE_FLOOR_MS = 5.0
HEDGE_CAP_MS = 500.0


def hedge_delay_ms(latency: LatencyTracker) -> float | None:
    """Virtual ms a dispatch to a replica with this latency window waits
    before it is hedged, or None (too few samples: never)."""
    if len(latency) < HEDGE_MIN_SAMPLES:
        return None
    observed = latency.quantile(HEDGE_QUANTILE)
    return min(max(observed, HEDGE_FLOOR_MS), HEDGE_CAP_MS)


class ReplicaState:
    """Everything the gateway knows about one replica endpoint;
    ``seed`` seeds its breaker's jitter stream."""

    def __init__(self, name: str, seed: str) -> None:
        self.name = name
        #: The replica's one state machine: closed is "in rotation".
        self.breaker = CircuitBreaker(seed)
        #: request_id -> dispatch virtual time; bounded like
        #: ``NetworkNode.received`` so chaos runs cannot grow memory.
        self.inflight: OrderedDict[int, float] = OrderedDict()
        #: Virtual ms from send to answer, one sample per successful
        #: dispatch; the hedge delay is a quantile of this window.
        self.latency = LatencyTracker()
        self.dispatched = 0
        self.answered = 0
        self.failures = 0
        self.overloads = 0

    @property
    def outstanding(self) -> int:
        return len(self.inflight)

    def track(self, request_id: int, now_ms: float) -> None:
        self.dispatched += 1
        self.inflight[request_id] = now_ms
        while len(self.inflight) > OUTSTANDING_LIMIT:
            self.inflight.popitem(last=False)

    def settle(self, request_id: int) -> None:
        self.inflight.pop(request_id, None)

    @property
    def closed(self) -> bool:
        return self.breaker.state == CircuitBreaker.CLOSED

    def eligible(self, now_ms: float) -> bool:
        at_ms = self.breaker.permits_at_ms()
        return at_ms is not None and now_ms >= at_ms


@dataclass(slots=True)
class _Flight:
    """One request in the air: the batch item it answers, where and
    when it was sent, when it times out, and when to hedge it (``inf``
    = never: it is a hedge itself, or has been hedged)."""

    item: int
    state: ReplicaState
    sent_ms: float
    expires_ms: float
    hedge_ms: float
    hedging: bool


# -- the gateway --------------------------------------------------------------


class QueryGateway:
    """Routes calls across a replica fleet with health-aware failover.

    ``timeout_ms`` bounds every dispatch.  Which replica answered is
    never trusted: the answer is, once ``call_many``'s ``accept`` has
    verified it.
    """

    def __init__(
        self,
        bus: MessageBus,
        name: str,
        replicas: Sequence[str],
        *,
        timeout_ms: float = 250.0,
    ) -> None:
        if not replicas:
            raise ValueError("a gateway needs at least one replica")
        self.bus = bus
        self.rpc = RpcClient(bus, name, timeout_ms=timeout_ms)
        # One breaker per replica, each with its own seeded jitter stream.
        self.replicas: dict[str, ReplicaState] = {
            replica: ReplicaState(replica, f"{name}:{replica}")
            for replica in replicas
        }
        #: Round-robin position in the fleet's fixed order (``_next_turn``).
        self._turn = 0
        self.failovers = 0
        self.hedges = 0
        self.hedge_wins = 0

    # -- health bookkeeping --------------------------------------------------

    def healthy_replicas(self) -> list[str]:
        """The replicas in rotation: breaker closed."""
        return [s.name for s in self.replicas.values() if s.closed]

    def breaker_trips(self) -> int:
        """Total breaker open-transitions across the fleet (for the
        demo/metrics surface)."""
        return sum(s.breaker.trips for s in self.replicas.values())

    def _mark_success(self, state: ReplicaState, latency_ms: float) -> None:
        state.answered += 1
        state.latency.observe(latency_ms)
        state.breaker.record_success()

    def _mark_failure(
        self, state: ReplicaState, *, overload: OverloadedError | None = None
    ) -> None:
        state.failures += 1
        was_open = state.breaker.state == CircuitBreaker.OPEN
        # The breaker clamps the (untrusted) hint itself.
        state.breaker.record_failure(
            self.bus.clock_ms,
            overload=overload is not None,
            retry_after_ms=overload.retry_after_ms if overload else 0.0,
        )
        if not was_open and state.breaker.state == CircuitBreaker.OPEN:
            obs.inc("resilience.breaker.trips")
        if overload is not None:
            state.overloads += 1
            obs.inc("resilience.gateway.overloads")

    def _strike(self, state: ReplicaState, exc: ReproError) -> bool:
        """The one verdict on a failed dispatch to ``state``.

        A retryable failure (shed, timeout, integrity, transport) marks
        the replica — sheds as backpressure, the rest as liveness
        strikes — and returns True: another replica may still answer.
        A terminal one (bad query, spent deadline) is the same on every
        replica, so nothing is marked and the caller re-raises; a
        half-open probe that drew it goes back to open, as if abandoned.
        """
        if not exc.retryable:
            state.breaker.abandon_probe()
            return False
        self._mark_failure(
            state, overload=exc if isinstance(exc, OverloadedError) else None
        )
        return True

    def _abandon(self, state: ReplicaState, request_id: int) -> None:
        """Give up on an in-flight request without a verdict (a hedge
        loser, a request the caller's deadline cut short, or a batch
        that raised with requests outstanding): no strike, but the books
        are settled — the in-flight slot is freed and a half-open probe
        nobody will answer for goes back to open instead of wedging the
        breaker."""
        state.settle(request_id)
        self.rpc.abandon(request_id)
        state.breaker.abandon_probe()

    def _next_turn(self) -> ReplicaState | None:
        """The first eligible replica from the turn on, in the fleet's fixed
        order: one leaving rotation mid-batch shifts no other's turn."""
        order = list(self.replicas.values())
        for step in range(len(order)):
            state = order[(self._turn + step) % len(order)]
            if state.eligible(self.bus.clock_ms):
                self._turn += step + 1
                return state
        return None

    # -- dispatch ------------------------------------------------------------

    def call(
        self,
        method: str,
        argument: object = None,
        *,
        deadline_ms: float = NO_DEADLINE,
    ) -> object:
        """:meth:`call_many` for a batch of one."""
        return self.call_many(method, [argument], deadline_ms=deadline_ms)[0]

    def call_many(
        self,
        method: str,
        arguments: Sequence[object],
        *,
        deadline_ms: float = NO_DEADLINE,
        accept: Callable[[int, object], object] | None = None,
        payloads: Sequence[bytes] | None = None,
    ) -> list[object]:
        """Call ``method`` once per argument, concurrently across the
        fleet; results come back in argument order.

        Each item is dispatched — one send, to the eligible replicas in
        round-robin turn, timed out at ``timeout_ms`` — until
        a replica answers it or its ``max(3, 2 × replicas)`` dispatches
        are spent (:class:`ServiceUnavailableError`).  A dispatch that
        outlives the replica's observed latency quantile — or is a
        half-open probe — is hedged once (:func:`hedge_delay_ms`), to a
        closed replica not already carrying the item; the loser is
        abandoned, not struck, unless it is a probe: that one failed.
        An item is encoded once (``payloads``: by the caller, already),
        and a hedge or re-dispatch re-sends those bytes.

        ``deadline_ms`` is the caller's absolute virtual-clock budget.
        It rides, shrunk by :data:`HOP_MARGIN_MS`, in every send; once
        spent, :class:`DeadlineExceededError` — nothing more is sent,
        and what is still in the air is abandoned, not struck.

        ``accept(position, result)`` may reject an answer by raising
        (typically :class:`ResponseIntegrityError`): like a timeout or a
        retryable remote error, that strikes the replica and the item is
        re-dispatched inside its budget.  A terminal error (a bad query
        is bad on every replica) is raised unchanged at once.
        """
        started = self.bus.clock_ms
        deadline = sanitize_deadline(deadline_ms) or math.inf
        downstream = shrink_deadline(deadline, HOP_MARGIN_MS)
        budget = max(3, 2 * len(self.replicas))
        payloads = payloads or [wire.encode(argument) for argument in arguments]
        results: list[object] = [None] * len(arguments)
        dispatches = [0] * len(arguments)
        todo = list(range(len(arguments)))
        flights: dict[int, _Flight] = {}
        unanswered = len(arguments)
        last_error: ReproError | None = None

        def check_deadline() -> None:
            if self.bus.clock_ms >= deadline:
                raise DeadlineExceededError(
                    f"deadline for {method!r} spent with {unanswered} of "
                    f"{len(arguments)} unanswered"
                ) from last_error

        def send(item: int, state: ReplicaState, *, hedging: bool) -> None:
            now = self.bus.clock_ms
            state.breaker.on_dispatch(now)  # may be the half-open probe
            request_id = self.rpc.begin(
                state.name, method, payload=payloads[item], deadline_ms=downstream
            )
            state.track(request_id, now)
            # A half-open probe is hedged at once: the replica may still
            # be dead, and its item must not wait out the probe's timeout.
            delay = None if hedging else (
                0.0 if state.breaker.state == CircuitBreaker.HALF_OPEN
                else hedge_delay_ms(state.latency)
            )
            flights[request_id] = _Flight(
                item=item,
                state=state,
                sent_ms=now,
                expires_ms=min(now + self.rpc.timeout_ms, deadline),
                hedge_ms=math.inf if delay is None else now + delay,
                hedging=hedging,
            )

        try:
            while unanswered:
                check_deadline()
                # Keep the pipes full: dispatch everything dispatchable.
                waiting: list[int] = []
                for item in todo:
                    if dispatches[item] >= budget:
                        raise ServiceUnavailableError(
                            f"no replica answered item {item} of {method!r} "
                            f"within {budget} dispatches"
                            + (f" (last: {last_error})" if last_error else "")
                        )
                    state = self._next_turn()
                    if state is None:
                        waiting.append(item)
                        continue
                    dispatches[item] += 1
                    send(item, state, hedging=False)
                todo = waiting
                # Hedge, once and never with a probe, every dispatch that
                # has outlived its delay.
                for flight in list(flights.values()):
                    if self.bus.clock_ms < flight.hedge_ms:
                        continue
                    flight.hedge_ms = math.inf
                    carrying = {
                        f.state for f in flights.values() if f.item == flight.item
                    }
                    for other in self.replicas.values():
                        if other.closed and other not in carrying:
                            self.hedges += 1
                            obs.inc("resilience.hedges")
                            send(flight.item, other, hedging=True)
                            break
                # Drive the bus to whatever can happen next: an answer,
                # a timeout, a hedge coming due or, with items waiting, a
                # replica becoming eligible.
                due = [min(f.expires_ms, f.hedge_ms) for f in flights.values()]
                if todo:
                    due += [
                        at_ms
                        for s in self.replicas.values()
                        if (at_ms := s.breaker.permits_at_ms()) is not None
                    ]
                if not due:
                    raise ServiceUnavailableError(
                        f"no replica available for {method!r}"
                    )
                self.rpc.wait(flights, min(*due, deadline))
                # One verdict per flight that answered or timed out; one
                # the caller's deadline cut short gets none.
                now = self.bus.clock_ms
                for request_id, flight in list(flights.items()):
                    if request_id not in flights:
                        continue  # a hedge loser, abandoned just above
                    response = self.rpc.take(request_id)
                    if response is None and (
                        now < flight.expires_ms or now >= deadline
                    ):
                        continue
                    del flights[request_id]
                    flight.state.settle(request_id)
                    rest = [
                        (rid, f)
                        for rid, f in flights.items()
                        if f.item == flight.item
                    ]
                    try:
                        if response is None:
                            self.rpc.expire(request_id)
                            raise RpcTimeoutError(
                                f"{flight.state.name!r} did not answer "
                                f"{method!r} in {now - flight.sent_ms:.0f} ms"
                            )
                        result = self.rpc.resolve(
                            response, target=flight.state.name, method=method
                        )
                        if accept is not None:
                            accept(flight.item, result)
                    except ReproError as exc:
                        if not self._strike(flight.state, exc):
                            raise
                        last_error = exc
                        self.failovers += 1
                        obs.inc("gateway.failovers")
                        # Re-dispatch unless a replica in rotation still
                        # carries the item: a probe alone may be dead.
                        if flight.item not in todo and not any(
                            f.state.closed for _, f in rest
                        ):
                            todo.append(flight.item)
                        continue
                    self._mark_success(flight.state, now - flight.sent_ms)
                    if flight.hedging:
                        self.hedge_wins += 1
                        obs.inc("resilience.hedge_wins")
                    for rid, loser in rest:
                        del flights[rid]
                        if loser.state.breaker.state == CircuitBreaker.HALF_OPEN:
                            self._mark_failure(loser.state)  # a beaten probe
                        self._abandon(loser.state, rid)
                    if flight.item in todo:  # a probe beat its re-dispatch
                        todo.remove(flight.item)
                    results[flight.item] = result
                    unanswered -= 1
        finally:
            # Non-empty only when raising: settle the books for
            # everything still in the air.
            for request_id, flight in flights.items():
                self._abandon(flight.state, request_id)
        if obs.enabled():
            obs.observe("gateway.batch_ms", self.bus.clock_ms - started)
        return results
