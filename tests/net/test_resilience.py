"""Overload-resilience primitives and their RPC/gateway integration.

Unit coverage for :mod:`repro.net.resilience` — deadline sanitizing and
per-hop shrinking, retry-after clamping, the CoDel-style admission
hint, the circuit-breaker state machine, the latency window, and the
hedge policy — plus the end-to-end behaviours the
stacks compose them into: servers refusing doomed or excess work with
zero provider effort, clients honoring (clamped) backpressure and
desynchronizing their retries, and the bounded response bookkeeping
that keeps an abandoning caller's memory flat.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    RemoteCallError,
    code_for,
    error_for_code,
)
from repro.net import wire
from repro.net.bus import MessageBus, NetworkNode
from repro.net.gateway import HealthPolicy, QueryGateway
from repro.net.resilience import (
    NO_DEADLINE,
    RETRY_AFTER_CAP_MS,
    AdmissionPolicy,
    CircuitBreaker,
    CircuitBreakerPolicy,
    HedgePolicy,
    LatencyTracker,
    clamp_retry_after,
    remaining_ms,
    sanitize_deadline,
    shrink_deadline,
)
from repro.net.rpc import RetryPolicy, RpcClient, RpcResponse, RpcServer, rpc_topic


@pytest.fixture()
def bus():
    return MessageBus(default_latency_ms=5.0)


# -- deadline helpers ---------------------------------------------------------


def test_sanitize_deadline_passes_usable_values():
    assert sanitize_deadline(123.5) == 123.5
    assert sanitize_deadline(1) == 1.0


@pytest.mark.parametrize(
    "garbage",
    [NO_DEADLINE, -1.0, 0, float("nan"), float("inf"), float("-inf"),
     "soon", None, True, b"\x01", [100.0]],
)
def test_sanitize_deadline_degrades_garbage_to_no_deadline(garbage):
    assert sanitize_deadline(garbage) == NO_DEADLINE


def test_shrink_deadline_hands_downstream_a_smaller_budget():
    assert shrink_deadline(100.0, 10.0) == 90.0
    # Shrinking below zero still yields a (tiny) positive deadline —
    # "already expired", never "no deadline".
    assert 0.0 < shrink_deadline(5.0, 10.0) < 1.0
    assert shrink_deadline(NO_DEADLINE, 10.0) == NO_DEADLINE
    assert shrink_deadline(float("nan"), 10.0) == NO_DEADLINE


def test_remaining_ms_is_infinite_without_a_deadline():
    assert remaining_ms(NO_DEADLINE, 50.0) == math.inf
    assert remaining_ms(80.0, 50.0) == 30.0
    assert remaining_ms(40.0, 50.0) == -10.0


# -- retry-after clamping -----------------------------------------------------


def test_clamp_retry_after_caps_hostile_hints():
    assert clamp_retry_after(25.0) == 25.0
    assert clamp_retry_after(10**12) == RETRY_AFTER_CAP_MS
    assert clamp_retry_after(float("inf")) == 0.0
    assert clamp_retry_after(float("nan")) == 0.0
    assert clamp_retry_after(-5.0) == 0.0
    assert clamp_retry_after("forever") == 0.0
    assert clamp_retry_after(True) == 0.0


def test_admission_hint_is_floored_and_capped():
    policy = AdmissionPolicy(
        shed_delay_ms=50.0, retry_after_min_ms=5.0, retry_after_cap_ms=100.0
    )
    # Barely over the threshold: floored.
    assert policy.retry_after_hint(51.0, 1.0) == 5.0
    # Deep standing queue: capped.
    assert policy.retry_after_hint(10_000.0, 20.0) == 100.0
    # In between: the drain-back estimate itself.
    assert policy.retry_after_hint(80.0, 20.0) == 50.0


# -- circuit breaker state machine --------------------------------------------


def test_breaker_trips_after_failure_streak_and_recloses():
    policy = CircuitBreakerPolicy(
        failure_trip=3, open_base_ms=100.0, jitter=0.0
    )
    breaker = CircuitBreaker(policy, seed="sp1")
    for _ in range(2):
        breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.trips == 1
    # Blocked until the reopen time, then a half-open probe is allowed.
    assert breaker.permits_at_ms() == 100.0
    breaker.on_dispatch(100.0)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.permits_at_ms() is None  # probe budget spent
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.closes == 1


def test_overload_sheds_trip_the_breaker_faster_than_failures():
    policy = CircuitBreakerPolicy(failure_trip=5, overload_trip=2, jitter=0.0)
    breaker = CircuitBreaker(policy, seed="sp1")
    breaker.record_failure(0.0, overload=True)
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure(0.0, overload=True)
    assert breaker.state == CircuitBreaker.OPEN


def test_failed_probe_reopens_with_a_longer_window():
    policy = CircuitBreakerPolicy(
        failure_trip=1, open_base_ms=100.0, open_factor=2.0, jitter=0.0
    )
    breaker = CircuitBreaker(policy, seed="sp1")
    breaker.record_failure(0.0)
    first_reopen = breaker.reopen_at_ms
    assert first_reopen == 100.0
    breaker.on_dispatch(first_reopen)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure(first_reopen)
    assert breaker.state == CircuitBreaker.OPEN
    # The second open interval doubled.
    assert breaker.reopen_at_ms == first_reopen + 200.0


def test_success_resets_the_failure_streak():
    policy = CircuitBreakerPolicy(failure_trip=2, jitter=0.0)
    breaker = CircuitBreaker(policy, seed="sp1")
    breaker.record_failure(0.0)
    breaker.record_success()
    breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.CLOSED


def test_retry_after_hint_extends_the_quiet_period_never_shortens():
    policy = CircuitBreakerPolicy(
        failure_trip=1, open_base_ms=100.0, jitter=0.0
    )
    long_hint = CircuitBreaker(policy, seed="sp1")
    long_hint.record_failure(0.0, retry_after_ms=500.0)
    assert long_hint.reopen_at_ms == 500.0
    short_hint = CircuitBreaker(policy, seed="sp1")
    short_hint.record_failure(0.0, retry_after_ms=10.0)
    assert short_hint.reopen_at_ms == 100.0
    # A forged astronomic hint is clamped before it can park the
    # breaker forever.
    forged = CircuitBreaker(policy, seed="sp1")
    forged.record_failure(0.0, retry_after_ms=10**12)
    assert forged.reopen_at_ms == RETRY_AFTER_CAP_MS


def test_breaker_reopen_jitter_is_seeded_and_desynchronized():
    policy = CircuitBreakerPolicy(failure_trip=1, jitter=0.5)
    first = CircuitBreaker(policy, seed="sp1")
    replay = CircuitBreaker(policy, seed="sp1")
    other = CircuitBreaker(policy, seed="sp2")
    for breaker in (first, replay, other):
        breaker.record_failure(0.0)
    # Same seed replays bit-identically; different endpoints land on
    # different reopen instants (no lockstep re-probe stampede).
    assert first.reopen_at_ms == replay.reopen_at_ms
    assert first.reopen_at_ms != other.reopen_at_ms


# -- the latency window and the hedge delay -----------------------------------


def test_latency_tracker_window_and_quantiles():
    tracker = LatencyTracker(window=4)
    for sample in [10.0, 20.0, 30.0, 40.0]:
        tracker.observe(sample)
    assert len(tracker) == 4
    assert tracker.quantile(0.0) == 10.0
    assert tracker.quantile(0.9) == 40.0
    tracker.observe(50.0)  # the window is bounded: the oldest falls out
    assert len(tracker) == 4
    assert tracker.quantile(0.0) == 20.0
    assert LatencyTracker().quantile(0.5) is None


def test_hedge_policy_delay_is_gated_and_clamped():
    policy = HedgePolicy(min_samples=4, delay_floor_ms=5.0, delay_cap_ms=50.0)
    tracker = LatencyTracker()
    assert policy.delay_ms(tracker) is None  # nothing observed yet
    for _ in range(3):
        tracker.observe(20.0)
    assert policy.delay_ms(tracker) is None  # too few samples
    tracker.observe(20.0)
    assert policy.delay_ms(tracker) == 20.0
    fast = LatencyTracker()
    for _ in range(4):
        fast.observe(1.0)
    assert policy.delay_ms(fast) == 5.0  # floored
    slow = LatencyTracker()
    for _ in range(4):
        slow.observe(500.0)
    assert policy.delay_ms(slow) == 50.0  # capped


# -- jittered backoff (retry-storm desync regression) -------------------------


def test_jittered_backoff_desynchronizes_a_fleet():
    """Two clients sharing one jittered policy must walk *different*
    backoff schedules (per-name seeded streams), while the same client
    name replays the identical schedule run over run — the regression
    guard against synchronized retry waves."""
    policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.2)

    def schedule(name: str) -> list[float]:
        client = RpcClient(MessageBus(), name)
        return [policy.backoff_ms(a, client._rng) for a in range(4)]

    first, second = schedule("c1"), schedule("c2")
    assert first != second
    assert schedule("c1") == first  # deterministic replay
    for waves in (first, second):
        for attempt, wave in enumerate(waves):
            nominal = min(100.0 * 2.0**attempt, policy.backoff_max_ms)
            assert 0.8 * nominal <= wave <= 1.2 * nominal


def test_unjittered_backoff_stays_bit_compatible():
    policy = RetryPolicy(backoff_base_ms=50.0)
    client = RpcClient(MessageBus(), "c1")
    assert policy.backoff_ms(0, client._rng) == 50.0
    assert policy.backoff_ms(1, client._rng) == 100.0


# -- server-side deadline refusal and admission shedding ----------------------


def _busy_server(bus, *, service_ms=50.0, admission=None):
    served = []
    server = RpcServer(
        bus, "server", service_time_ms=service_ms, admission=admission
    )
    server.register("work", lambda argument: served.append(argument) or "done")
    return server, served


def test_server_refuses_doomed_work_at_admission(bus):
    server, served = _busy_server(bus, service_ms=50.0)
    client = RpcClient(bus, "client", RetryPolicy(max_attempts=1))
    # 30 ms of budget cannot cover a 50 ms service time.
    with pytest.raises(DeadlineExceededError, match="would complete"):
        client.call("server", "work", deadline_ms=bus.clock_ms + 30.0)
    assert server.deadline_refused == 1
    assert served == []  # the handler never ran: zero provider work


def test_expired_deadline_never_even_dispatches(bus):
    server, served = _busy_server(bus)
    client = RpcClient(bus, "client")
    bus.run_for(100.0)
    with pytest.raises(DeadlineExceededError, match="expired"):
        client.call("server", "work", deadline_ms=50.0)
    assert client.deadline_gaveups == 1
    assert server.invocations == {} and served == []


def test_admission_sheds_on_standing_queue_delay(bus):
    admission = AdmissionPolicy(shed_delay_ms=60.0, queue_limit=100)
    server, served = _busy_server(bus, service_ms=50.0, admission=admission)
    flood = RpcClient(bus, "flood", RetryPolicy(max_attempts=1))
    ids = [flood.begin("server", "work", i) for i in range(5)]
    bus.run_until_idle()
    # Arrivals at one instant: #1 starts now, #2 waits 50 ms (admitted,
    # under the 60 ms target), #3+ would wait >= 100 ms (shed).
    assert server.requests_shed == 3
    assert len(served) == 2
    shed = [r for i in ids if (r := flood.take(i)) and not r.ok]
    assert len(shed) == 3
    for response in shed:
        assert response.code == "net.overloaded"
        assert response.retry_after_ms >= admission.retry_after_min_ms


def test_admission_queue_limit_is_a_hard_cap(bus):
    admission = AdmissionPolicy(shed_delay_ms=10_000.0, queue_limit=2)
    server, _ = _busy_server(bus, service_ms=10.0, admission=admission)
    flood = RpcClient(bus, "flood", RetryPolicy(max_attempts=1))
    for i in range(6):
        flood.begin("server", "work", i)
    bus.run_until_idle()
    assert server.requests_shed > 0
    assert server.max_queue_delay_ms <= 2 * 10.0


def test_client_honors_clamped_retry_after_hint(bus):
    """An OVERLOADED refusal's hint stretches the backoff: the retry
    waits at least the server's drain estimate, and the wait is counted
    for observability."""
    admission = AdmissionPolicy(
        shed_delay_ms=5.0, retry_after_min_ms=200.0, retry_after_cap_ms=200.0
    )
    server, served = _busy_server(bus, service_ms=50.0, admission=admission)
    flood = RpcClient(bus, "flood", RetryPolicy(max_attempts=1))
    for i in range(3):
        flood.begin("server", "work", i)
    client = RpcClient(
        bus, "client",
        RetryPolicy(timeout_ms=500.0, max_attempts=2, backoff_base_ms=1.0),
    )
    started = bus.clock_ms
    assert client.call("server", "work") == "done"
    assert client.retry_after_waits == 1
    # First attempt shed instantly; the retry waited out the 200 ms
    # hint (not the 1 ms nominal backoff) before succeeding.
    assert bus.clock_ms - started >= 200.0


def test_forged_retry_after_cannot_stall_the_client(bus):
    """The hint crosses the wire from an untrusted endpoint: an
    astronomically large value delays one retry by the clamp cap, not
    forever."""
    node = bus.join(NetworkNode("evil", record_limit=0))

    def shed_with_forged_hint(message):
        bus.send(
            "evil", message.sender, rpc_topic(message.sender),
            RpcResponse(
                request_id=message.request_id, sender="evil", ok=False,
                payload=wire.encode("go away"), code="net.overloaded",
                retry_after_ms=10.0**15,
            ),
        )

    node.on(rpc_topic("evil"), shed_with_forged_hint)
    client = RpcClient(
        bus, "client",
        RetryPolicy(timeout_ms=100.0, max_attempts=2, backoff_base_ms=1.0),
    )
    started = bus.clock_ms
    with pytest.raises(OverloadedError):
        client.call("evil", "work")
    waited = bus.clock_ms - started
    assert waited <= RETRY_AFTER_CAP_MS + 2 * 100.0


# -- bounded response bookkeeping ---------------------------------------------


def test_response_book_is_bounded_under_an_untaken_flood(bus):
    server, _ = _busy_server(bus, service_ms=0.0)
    client = RpcClient(bus, "client")
    ids = [
        client.begin("server", "work", i)
        for i in range(client.RESPONSES_LIMIT + 40)
    ]
    bus.run_until_idle()
    assert len(client._responses) == client.RESPONSES_LIMIT
    # The oldest replies were swept; the newest are still takeable.
    assert client.take(ids[0]) is None
    assert client.take(ids[-1]) is not None


def test_abandon_sweeps_pending_and_drops_the_late_reply(bus):
    server, _ = _busy_server(bus, service_ms=50.0)
    client = RpcClient(bus, "client")
    request_id = client.begin("server", "work")
    client.abandon(request_id)
    assert request_id in client._abandoned
    bus.run_until_idle()
    # The late reply was counted and dropped, never retained.
    assert client.late_after_abandon == 1
    assert request_id not in client._abandoned
    assert client._responses == {}


def test_abandoned_book_is_bounded(bus):
    bus.join(NetworkNode("void", record_limit=0))  # sinks every request
    client = RpcClient(bus, "client")
    for i in range(client.ABANDONED_LIMIT + 64):
        request_id = client.begin("void", "work", i)
        client.abandon(request_id)
    assert len(client._abandoned) == client.ABANDONED_LIMIT


# -- taxonomy round trips -----------------------------------------------------


def test_overloaded_round_trips_through_the_code_registry():
    assert code_for(OverloadedError) == "net.overloaded"
    assert code_for(OverloadedError("shed", retry_after_ms=5.0)) == "net.overloaded"
    assert error_for_code("net.overloaded") is OverloadedError
    assert error_for_code("net.overloaded").retryable is True


def test_deadline_exceeded_round_trips_and_is_terminal():
    assert code_for(DeadlineExceededError) == "net.deadline"
    assert error_for_code("net.deadline") is DeadlineExceededError
    # Re-sending an expired budget deterministically fails again: the
    # retry loop must not spin on it.
    assert error_for_code("net.deadline").retryable is False


def test_unregistered_resilience_subclasses_degrade_to_ancestors():
    class FutureOverload(OverloadedError):
        pass

    class FutureDeadline(DeadlineExceededError):
        pass

    # Subclasses minted after this build inherit the parent's code, so
    # a decoding peer lands on the nearest known ancestor.
    assert code_for(FutureOverload) == "net.overloaded"
    assert error_for_code(code_for(FutureOverload)) is OverloadedError
    assert code_for(FutureDeadline) == "net.deadline"
    assert error_for_code(code_for(FutureDeadline)) is DeadlineExceededError
    assert error_for_code("net.made-up-later") is RemoteCallError
    assert RemoteCallError.retryable is False
    assert error_for_code(None) is RemoteCallError


def test_overloaded_is_a_network_error_with_a_hint():
    error = OverloadedError("busy", retry_after_ms=35.0)
    assert isinstance(error, NetworkError)
    assert error.retry_after_ms == 35.0
    assert OverloadedError("busy").retry_after_ms == 0.0


# -- gateway integration: breakers and hedging --------------------------------


def _gateway_fleet(bus, *, service_ms=10.0, admission=None, hedge=None,
                   breaker=None):
    providers = {}
    for name in ("sp1", "sp2"):
        server = RpcServer(
            bus, name, service_time_ms=service_ms, admission=admission
        )
        server.register("work", lambda argument, name=name: f"{name}:done")
        providers[name] = server
    gateway = QueryGateway(
        bus, "gw", list(providers),
        balancer="round-robin", seed=3,
        policy=RetryPolicy(timeout_ms=1_000.0, max_attempts=1),
        health=HealthPolicy(failure_threshold=100),
        breaker=breaker, hedge=hedge,
    )
    return gateway, providers


def test_breaker_steers_traffic_off_a_saturated_replica(bus):
    admission = AdmissionPolicy(shed_delay_ms=5.0, queue_limit=1)
    gateway, providers = _gateway_fleet(
        bus, service_ms=50.0, admission=admission,
        breaker=CircuitBreakerPolicy(overload_trip=1, jitter=0.0),
    )
    flood = RpcClient(bus, "flood", RetryPolicy(max_attempts=1))
    for i in range(8):
        flood.begin("sp1", "work", i)
    # Round-robin would alternate sp1/sp2; the first shed from sp1
    # trips its breaker (overload_trip=1) and everything after lands
    # on sp2 without waiting out the saturation.
    results = [gateway.call("work", i) for i in range(4)]
    assert all(result == "sp2:done" for result in results)
    assert gateway.breaker_trips() == 1
    state = gateway.replicas["sp1"]
    assert state.breaker.state == CircuitBreaker.OPEN
    assert state.healthy  # backpressure, not a liveness strike


def test_hedged_dispatch_races_a_slow_primary(bus):
    gateway, providers = _gateway_fleet(
        bus, service_ms=10.0,
        hedge=HedgePolicy(min_samples=4, delay_floor_ms=5.0),
    )
    for i in range(8):  # warm both trackers (round-robin: 4 each)
        gateway.call("work", i)
    providers["sp1"].server_time = None  # keep linters quiet
    providers["sp1"]._service_times["work"] = 500.0
    started = bus.clock_ms
    result = gateway.call("work", "tail")
    elapsed = bus.clock_ms - started
    assert result == "sp2:done"  # the fast hedge won
    assert gateway.hedges == 1 and gateway.hedge_wins == 1
    assert elapsed < 100.0  # nowhere near the 500 ms primary


# -- gateway: eligibility, abandoned requests, and stalls ---------------------


def _trip(breaker, now_ms):
    for _ in range(breaker.policy.failure_trip):
        breaker.record_failure(now_ms)
    assert breaker.state == CircuitBreaker.OPEN


def test_wait_for_probe_window_honours_health_and_breaker_together(bus):
    """Every replica ejected with its probe *due* but its breaker still
    open: the wait must run to the breaker's reopen time (the same
    rule ``eligible`` applies), not return at once and spin."""
    gateway, _ = _gateway_fleet(
        bus, breaker=CircuitBreakerPolicy(jitter=0.0)
    )
    for state in gateway.replicas.values():
        state.healthy = False
        state.next_probe_ms = 0.0
        _trip(state.breaker, bus.clock_ms)
        assert state.eligible_at_ms() == state.breaker.reopen_at_ms
        assert not state.eligible(bus.clock_ms)
    reopen_at = min(s.breaker.reopen_at_ms for s in gateway.replicas.values())
    assert sorted(gateway.call_many("work", [1, 2])) == ["sp1:done", "sp2:done"]
    assert bus.clock_ms >= reopen_at
    assert gateway.healthy_replicas() == ["sp1", "sp2"]


def test_batch_raising_mid_flight_settles_what_it_abandons(bus):
    """A terminal error for one item raises out of call_many while
    another item is still in flight as a half-open probe: the in-flight
    slot is freed and the breaker goes back to open (probe again later),
    not half-open-with-no-probes forever."""
    from repro.errors import QueryError

    gateway, providers = _gateway_fleet(
        bus, breaker=CircuitBreakerPolicy(jitter=0.0)
    )

    def refuse(_argument):
        raise QueryError("malformed query")

    providers["sp1"].register("work", refuse)
    providers["sp2"]._service_times["work"] = 500.0
    slow = gateway.replicas["sp2"]
    _trip(slow.breaker, bus.clock_ms)
    bus.run_for(slow.breaker.reopen_at_ms - bus.clock_ms)  # probe now due
    with pytest.raises(QueryError):
        gateway.call_many("work", ["a", "b"])  # a -> sp1, b -> sp2 (probe)
    assert slow.outstanding == 0
    assert slow.breaker.state == CircuitBreaker.OPEN
    assert slow.eligible(bus.clock_ms)
    providers["sp1"].register("work", lambda _argument: "sp1:done")
    assert gateway.call_many("work", ["c", "d"]) == ["sp1:done", "sp2:done"]


def test_half_open_breaker_with_its_probe_out_is_not_waited_on(bus):
    breaker = CircuitBreaker(CircuitBreakerPolicy(jitter=0.0))
    _trip(breaker, 0.0)
    breaker.on_dispatch(breaker.reopen_at_ms)  # spends the one probe
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.permits_at_ms() is None  # only a verdict moves it
    breaker.abandon_probe()
    assert breaker.permits_at_ms() == breaker.reopen_at_ms
