"""Load-balanced gateway over a fleet of QueryService replicas.

DCert's core economy — certificates make any answer self-certifying on
the client — means the serving side replicates freely: no replica needs
to be trusted, so the only questions a serving tier has to answer are
*which replica* (load balancing) and *is it alive* (health).  This
module supplies both on the deterministic virtual-clock bus:

* **Balancing policies** — :class:`RoundRobin`, :class:`LeastOutstanding`
  and :class:`SeededRandom`, behind one ``pick(candidates)`` interface
  (:func:`make_balancer` resolves a policy by name for CLI/config use).
* **Health tracking** — :class:`ReplicaState` counts consecutive
  failures; past :class:`HealthPolicy.failure_threshold` the replica
  leaves the rotation and is re-admitted only through bounded-backoff
  *probes*: a due probe routes one real request at the suspect, success
  restores it, failure pushes the next probe further out.  This is
  driven purely by observed RPC behaviour, so anything the fault layer
  does (drops, delays, a supervisor pausing a crashed endpoint) shows
  up as failures and anything a supervisor restores shows up as a probe
  success.
* **Failover with re-verification** — when a call lands on a different
  replica than the previous one, the gateway first invokes the caller's
  ``verify_switch`` hook (the superlight client re-checks the new
  replica's index roots against its certified ones).  A replica that
  fails verification is treated exactly like a dead one: marked
  unhealthy and routed around.

Per-replica bookkeeping is bounded: the in-flight map is capped at
:data:`OUTSTANDING_LIMIT` entries (oldest evicted), the same discipline
as ``NetworkNode.received``, and the latency window is a fixed-size
deque, so week-long chaos runs cannot grow memory.

There is one way to have a request in the air:
:meth:`QueryGateway.call_many`, which owns every in-flight request of a
batch, keeps every eligible replica's pipe full and applies one rule
set per dispatch (:meth:`QueryGateway.call` is a batch of one).  With
the :class:`~repro.net.rpc.RpcServer` busy-worker model, M queries over
N replicas complete in ~M/N service times, which is the scaling curve
``benchmarks/test_fleet_scaling.py`` measures.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ResponseIntegrityError,
    RpcTimeoutError,
    ServiceUnavailableError,
)
from repro.net import wire
from repro.net.bus import MessageBus
from repro.net.resilience import (
    NO_DEADLINE,
    CircuitBreaker,
    CircuitBreakerPolicy,
    HedgePolicy,
    LatencyTracker,
    sanitize_deadline,
    shrink_deadline,
)
from repro.net.rpc import RetryPolicy, RpcClient

#: Cap on a replica's in-flight map (oldest evicted).
OUTSTANDING_LIMIT = 256
#: Budget surrendered per hop when propagating a deadline, so the
#: replica's reply can still travel back before *our* caller's deadline.
HOP_MARGIN_MS = 10.0


@dataclass(frozen=True, slots=True)
class HealthPolicy:
    """When a replica leaves the rotation and how probing re-admits it."""

    #: Consecutive failures that eject a replica from the rotation.
    failure_threshold: int = 2
    #: Backoff schedule between probes of an unhealthy replica.
    probe_base_ms: float = 200.0
    probe_factor: float = 2.0
    probe_max_ms: float = 5_000.0

    def probe_delay_ms(self, attempt: int) -> float:
        """Delay before the ``attempt``-th probe (0-based)."""
        return min(
            self.probe_base_ms * self.probe_factor**attempt,
            self.probe_max_ms,
        )


class ReplicaState:
    """Everything the gateway knows about one replica endpoint."""

    def __init__(
        self,
        name: str,
        *,
        outstanding_limit: int = OUTSTANDING_LIMIT,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.name = name
        self.healthy = True
        self.consecutive_failures = 0
        self.probe_attempt = 0
        self.next_probe_ms = 0.0
        #: Optional per-endpoint circuit breaker.  Health answers "is
        #: it alive"; the breaker answers "should it get traffic now" —
        #: in particular it absorbs OVERLOADED backpressure, which is
        #: not a liveness failure and must not eject the replica.
        self.breaker = breaker
        #: request_id -> dispatch virtual time; bounded like
        #: ``NetworkNode.received`` so chaos runs cannot grow memory.
        self.inflight: OrderedDict[int, float] = OrderedDict()
        self.outstanding_limit = outstanding_limit
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
        while len(self.inflight) > self.outstanding_limit:
            self.inflight.popitem(last=False)

    def settle(self, request_id: int) -> None:
        self.inflight.pop(request_id, None)

    def eligible_at_ms(self) -> float | None:
        """Earliest virtual time this replica may take a dispatch: in
        rotation (or its probe due) *and* not breaker-blocked.  ``None``
        when waiting cannot help (see ``CircuitBreaker.permits_at_ms``).
        The one rule both :meth:`eligible` and the gateway's wait for
        the next dispatch window use, so they can never disagree."""
        at_ms = 0.0 if self.healthy else self.next_probe_ms
        if self.breaker is not None:
            breaker_at_ms = self.breaker.permits_at_ms()
            if breaker_at_ms is None:
                return None
            at_ms = max(at_ms, breaker_at_ms)
        return at_ms

    def eligible(self, now_ms: float) -> bool:
        at_ms = self.eligible_at_ms()
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
    is_hedge: bool


# -- balancing policies -------------------------------------------------------


class RoundRobin:
    """Cycle through candidates in a stable order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def pick(self, candidates: Sequence[ReplicaState]) -> ReplicaState:
        choice = candidates[self._turn % len(candidates)]
        self._turn += 1
        return choice


class LeastOutstanding:
    """Prefer the replica with the fewest requests in flight."""

    name = "least-outstanding"

    def pick(self, candidates: Sequence[ReplicaState]) -> ReplicaState:
        return min(candidates, key=lambda state: state.outstanding)


class SeededRandom:
    """Uniform random choice from a deterministic seeded stream."""

    name = "seeded-random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, candidates: Sequence[ReplicaState]) -> ReplicaState:
        return self._rng.choice(list(candidates))


BALANCERS = {
    RoundRobin.name: RoundRobin,
    LeastOutstanding.name: LeastOutstanding,
    SeededRandom.name: SeededRandom,
}


def make_balancer(policy: str, *, seed: int = 0):
    """Resolve a balancing policy by name (CLI/config entry point)."""
    try:
        cls = BALANCERS[policy]
    except KeyError:
        known = ", ".join(sorted(BALANCERS))
        raise ValueError(
            f"unknown balancing policy {policy!r} (known: {known})"
        ) from None
    return cls(seed) if cls is SeededRandom else cls()


# -- the gateway --------------------------------------------------------------


class QueryGateway:
    """Routes calls across a replica fleet with health-aware failover.

    ``verify_switch(replica_name)`` — optional hook invoked before the
    first call to a replica the gateway was not previously using; it
    should raise (typically :class:`ResponseIntegrityError`) if the new
    replica cannot be verified, in which case the gateway marks it
    unhealthy and fails over again.  The superlight client uses this to
    re-check index roots against its certified ones on every switch.
    """

    def __init__(
        self,
        bus: MessageBus,
        name: str,
        replicas: Sequence[str],
        *,
        balancer: str | object = "round-robin",
        seed: int = 0,
        policy: RetryPolicy | None = None,
        health: HealthPolicy | None = None,
        verify_switch: Callable[[str], None] | None = None,
        breaker: CircuitBreakerPolicy | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("a gateway needs at least one replica")
        self.bus = bus
        self.rpc = RpcClient(
            bus,
            name,
            policy
            or RetryPolicy(
                timeout_ms=250.0, max_attempts=1, backoff_base_ms=25.0
            ),
            seed=seed,
        )
        self.health = health or HealthPolicy()
        self.verify_switch = verify_switch
        #: None disables hedging.
        self.hedge = hedge
        # A breaker policy arms one breaker per replica, each with its
        # own seeded jitter stream; None disables them.
        self.replicas: dict[str, ReplicaState] = {
            replica: ReplicaState(
                replica,
                breaker=(
                    CircuitBreaker(breaker, seed=f"{name}:{replica}")
                    if breaker is not None
                    else None
                ),
            )
            for replica in replicas
        }
        self.balancer = (
            make_balancer(balancer, seed=seed)
            if isinstance(balancer, str)
            else balancer
        )
        #: The replica the previous successful call used; a change
        #: triggers ``verify_switch``.
        self.current: str | None = None
        #: Replicas verified by ``verify_switch`` since the last
        #: :meth:`reset_verified` (certified roots advanced).
        self._verified: set[str] = set()
        self.failovers = 0
        self.switches = 0
        self.hedges = 0
        self.hedge_wins = 0

    # -- health bookkeeping --------------------------------------------------

    def healthy_replicas(self) -> list[str]:
        return [s.name for s in self.replicas.values() if s.healthy]

    def breaker_trips(self) -> int:
        """Total breaker open-transitions across the fleet (for the
        demo/metrics surface)."""
        return sum(
            s.breaker.trips for s in self.replicas.values() if s.breaker
        )

    def _mark_success(self, state: ReplicaState, latency_ms: float) -> None:
        state.answered += 1
        state.latency.observe(latency_ms)
        state.consecutive_failures = 0
        if state.breaker is not None:
            state.breaker.record_success()
        if not state.healthy:
            state.healthy = True
            state.probe_attempt = 0
            obs.inc("gateway.replica_restored")
        obs.set_gauge("gateway.replicas_healthy", len(self.healthy_replicas()))

    def _mark_failure(
        self, state: ReplicaState, *, overload: OverloadedError | None = None
    ) -> None:
        state.failures += 1
        if state.breaker is not None:
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
                # Saturation, not death: the breaker owns backpressure;
                # the liveness ejection counter is left alone so an
                # overloaded replica is not misdiagnosed as dead.
                state.overloads += 1
                obs.inc("resilience.gateway.overloads")
                return
        state.consecutive_failures += 1
        if state.healthy:
            if state.consecutive_failures >= self.health.failure_threshold:
                state.healthy = False
                state.probe_attempt = 0
                state.next_probe_ms = (
                    self.bus.clock_ms + self.health.probe_delay_ms(0)
                )
                obs.inc("gateway.replica_ejected")
        else:
            # A failed probe: push the next one further out.
            state.probe_attempt += 1
            state.next_probe_ms = self.bus.clock_ms + self.health.probe_delay_ms(
                state.probe_attempt
            )
            obs.inc("gateway.probe_failures")
        obs.set_gauge("gateway.replicas_healthy", len(self.healthy_replicas()))

    def _strike(self, state: ReplicaState, exc: ReproError) -> bool:
        """The one verdict on a failed dispatch to ``state``.

        A retryable failure (shed, timeout, integrity, transport) marks
        the replica — sheds as backpressure, the rest as liveness
        strikes — and returns True: another replica may still answer.
        A terminal one (bad query, spent deadline) is the same on every
        replica, so nothing is marked and the caller re-raises.
        """
        if not exc.retryable:
            return False
        self._mark_failure(
            state, overload=exc if isinstance(exc, OverloadedError) else None
        )
        return True

    def _abandon(self, state: ReplicaState, request_id: int) -> None:
        """Give up on an in-flight request without a verdict (a hedge
        loser, a request the caller's deadline cut short, or a batch
        that raised with requests outstanding): no health or breaker
        strike, but the books are settled — the in-flight slot is freed
        and a half-open probe nobody will answer for goes back to open
        instead of wedging the breaker."""
        state.settle(request_id)
        self.rpc.abandon(request_id)
        if state.breaker is not None:
            state.breaker.abandon_probe()

    def _candidates(self) -> list[ReplicaState]:
        now = self.bus.clock_ms
        return [s for s in self.replicas.values() if s.eligible(now)]

    # -- switch verification -------------------------------------------------

    def reset_verified(self) -> None:
        """Forget switch verifications (call when certified roots move)."""
        self._verified.clear()

    def _ensure_verified(self, state: ReplicaState) -> bool:
        """Run ``verify_switch`` if this replica needs (re-)verification.

        Returns True when the replica is safe to use.  A verification
        failure marks it unhealthy, exactly like a transport failure —
        an unverifiable replica and a dead one get the same treatment.
        """
        if self.verify_switch is None:
            return True
        if state.name == self.current or state.name in self._verified:
            return True
        try:
            self.verify_switch(state.name)
        except ReproError:
            obs.inc("gateway.switch_verify_failures")
            self._mark_failure(state)
            return False
        self._verified.add(state.name)
        self.switches += 1
        obs.inc("gateway.switches_verified")
        return True

    # -- dispatch ------------------------------------------------------------

    def call_on(self, replica: str, method: str, argument: object = None):
        """One direct call to a named replica — no failover, no switch
        hook.  The switch-verification callback itself uses this."""
        return self.rpc.call(replica, method, argument)

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

        Each item is dispatched — one send, to the balancer's pick among
        the eligible replicas, timed out at ``policy.timeout_ms`` — until
        a replica answers it or its ``max(3, 2 × replicas)`` dispatches
        are spent (:class:`ServiceUnavailableError`).  A dispatch that
        outlives the replica's observed latency quantile is hedged once
        (:class:`HedgePolicy`), to a healthy, verified replica not
        already carrying the item; the loser is abandoned, not struck.
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

        def send(item: int, state: ReplicaState, *, is_hedge: bool) -> None:
            check_deadline()  # switch verification may have spent it
            now = self.bus.clock_ms
            if state.breaker is not None:
                state.breaker.on_dispatch(now)  # spends a half-open probe
            request_id = self.rpc.begin(
                state.name, method, payload=payloads[item], deadline_ms=downstream
            )
            state.track(request_id, now)
            delay = None if is_hedge or self.hedge is None else (
                self.hedge.delay_ms(state.latency)
            )
            flights[request_id] = _Flight(
                item=item,
                state=state,
                sent_ms=now,
                expires_ms=min(now + self.rpc.policy.timeout_ms, deadline),
                hedge_ms=math.inf if delay is None else now + delay,
                is_hedge=is_hedge,
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
                    candidates = self._candidates()
                    if not candidates:
                        waiting.append(item)
                        continue
                    dispatches[item] += 1
                    state = self.balancer.pick(candidates)
                    if not self._ensure_verified(state):
                        last_error = ResponseIntegrityError(
                            f"replica {state.name!r} failed switch verification"
                        )
                        waiting.append(item)
                        continue
                    if not state.healthy:
                        obs.inc("gateway.probes")
                    send(item, state, is_hedge=False)
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
                    for other in self._candidates():
                        if (
                            other.healthy
                            and other not in carrying
                            and self._ensure_verified(other)
                        ):
                            self.hedges += 1
                            obs.inc("resilience.hedges")
                            send(flight.item, other, is_hedge=True)
                            break
                # Drive the bus to whatever can happen next: an answer,
                # a timeout, a hedge coming due or, with items waiting, a
                # replica becoming eligible.
                due = [min(f.expires_ms, f.hedge_ms) for f in flights.values()]
                if todo:
                    due += [
                        at_ms
                        for s in self.replicas.values()
                        if (at_ms := s.eligible_at_ms()) is not None
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
                        if not rest:
                            todo.append(flight.item)
                        continue
                    self._mark_success(flight.state, now - flight.sent_ms)
                    self.current = flight.state.name
                    if flight.is_hedge:
                        self.hedge_wins += 1
                        obs.inc("resilience.hedge_wins")
                    for rid, loser in rest:
                        del flights[rid]
                        self._abandon(loser.state, rid)
                    results[flight.item] = result
                    unanswered -= 1
        finally:
            # Non-empty only when raising: settle the books for
            # everything still in the air.
            for request_id, flight in flights.items():
                self._abandon(flight.state, request_id)
        return results
