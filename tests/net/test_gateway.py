"""The query gateway: balancing, health, failover, and the one flight
engine behind ``call`` and ``call_many``.

These tests exercise the gateway against plain RpcServers (any method
registry works — the gateway is method-agnostic); the full
QueryService + supervisor composition lives in
tests/fault/test_fleet_chaos.py.
"""

import json
import random

import pytest

from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ResponseIntegrityError,
    ServiceUnavailableError,
)
from repro.net.bus import MessageBus
from repro.net.faults import FaultInjector, LinkFaults, flip_hex_digit
from repro.net.gateway import (
    HealthPolicy,
    LeastOutstanding,
    QueryGateway,
    ReplicaState,
    RoundRobin,
    SeededRandom,
    make_balancer,
)
from repro.net.resilience import (
    AdmissionPolicy,
    CircuitBreakerPolicy,
    HedgePolicy,
)
from repro.net import wire
from repro.net.rpc import RetryPolicy, RpcClient, RpcRequest, RpcServer
from repro.query import ValueRangeQuery


@pytest.fixture()
def bus():
    return MessageBus(default_latency_ms=5.0)


def make_fleet(bus, count, *, service_time_ms=0.0, admission=None):
    """Replicas whose echo answers carry the serving replica's name."""
    servers = {}
    for i in range(count):
        name = f"sp{i + 1}"
        server = RpcServer(
            bus, name, service_time_ms=service_time_ms, admission=admission
        )

        def echo(argument, name=name):
            return {"replica": name, "arg": argument}

        server.register("echo", echo)
        servers[name] = server
    return servers


def make_gateway(bus, replicas, **kwargs):
    kwargs.setdefault(
        "policy", RetryPolicy(timeout_ms=100.0, max_attempts=1)
    )
    kwargs.setdefault(
        "health", HealthPolicy(failure_threshold=2, probe_base_ms=100.0)
    )
    return QueryGateway(bus, "gw", replicas, **kwargs)


# -- balancing policies ------------------------------------------------------


def test_round_robin_distributes_evenly(bus):
    servers = make_fleet(bus, 3)
    gateway = make_gateway(bus, list(servers), balancer="round-robin")
    for _ in range(9):
        gateway.call("echo", "x")
    assert [s.requests_served for s in servers.values()] == [3, 3, 3]


def test_seeded_random_is_deterministic():
    first = MessageBus(default_latency_ms=5.0)
    second = MessageBus(default_latency_ms=5.0)
    sequences = []
    for bus in (first, second):
        make_fleet(bus, 3)
        gateway = make_gateway(
            bus, ["sp1", "sp2", "sp3"], balancer="seeded-random", seed=7
        )
        sequences.append(
            [gateway.call("echo", i)["replica"] for i in range(8)]
        )
    assert sequences[0] == sequences[1]
    assert len(set(sequences[0])) > 1  # actually spreads load


def test_least_outstanding_prefers_idle_replica():
    balancer = LeastOutstanding()
    idle = ReplicaState("idle")
    busy = ReplicaState("busy")
    busy.track(1, 0.0)
    busy.track(2, 0.0)
    assert balancer.pick([busy, idle]) is idle


def test_make_balancer_resolves_names():
    assert isinstance(make_balancer("round-robin"), RoundRobin)
    assert isinstance(make_balancer("least-outstanding"), LeastOutstanding)
    assert isinstance(make_balancer("seeded-random", seed=3), SeededRandom)
    with pytest.raises(ValueError, match="unknown balancing policy"):
        make_balancer("nope")


# -- health and failover -----------------------------------------------------


def test_failover_to_live_replica_when_one_is_dead(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True  # a dead host: requests vanish
    gateway = make_gateway(bus, ["sp1", "sp2"])
    results = [gateway.call("echo", i)["replica"] for i in range(4)]
    assert set(results) == {"sp2"}
    assert gateway.failovers >= 1


def test_dead_replica_leaves_rotation_after_threshold(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(bus, ["sp1", "sp2"])
    for i in range(4):
        gateway.call("echo", i)
    assert gateway.healthy_replicas() == ["sp2"]
    # Once ejected, sp1 stops eating a timeout on every call: the next
    # calls go straight to sp2 (no new timeouts until a probe is due).
    timeouts_before = gateway.rpc.timeouts
    gateway.call("echo", "again")
    assert gateway.rpc.timeouts == timeouts_before


def test_probe_restores_recovered_replica(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(
        bus,
        ["sp1", "sp2"],
        health=HealthPolicy(failure_threshold=1, probe_base_ms=50.0),
    )
    gateway.call("echo", 1)  # sp1 times out once -> ejected
    assert gateway.healthy_replicas() == ["sp2"]
    servers["sp1"].paused = False  # the replica comes back
    bus.run_for(60.0)  # the probe window opens
    for i in range(4):
        gateway.call("echo", i)
    assert sorted(gateway.healthy_replicas()) == ["sp1", "sp2"]
    assert servers["sp1"].requests_served >= 1


def test_probe_backoff_grows_while_replica_stays_dead(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(
        bus,
        ["sp1", "sp2"],
        health=HealthPolicy(
            failure_threshold=1, probe_base_ms=50.0, probe_factor=2.0
        ),
    )
    gateway.call("echo", 1)
    state = gateway.replicas["sp1"]
    assert not state.healthy
    first_probe = state.next_probe_ms
    bus.run_for(60.0)
    gateway.call("echo", 2)  # the due probe fails again
    assert state.next_probe_ms > first_probe
    assert state.probe_attempt >= 1


def test_terminal_error_is_not_failed_over(bus):
    servers = make_fleet(bus, 2)
    for server in servers.values():
        def bad_query(argument):
            raise QueryError("no such index")

        server.register("fail", bad_query)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    with pytest.raises(QueryError, match="no such index"):
        gateway.call("fail", "x")
    # Exactly one replica saw the request: a terminal error must not
    # burn the fleet retrying a query that is wrong everywhere.
    assert gateway.rpc.calls == 1
    assert sorted(gateway.healthy_replicas()) == ["sp1", "sp2"]


def test_retryable_remote_error_fails_over(bus):
    from repro.errors import ServiceUnavailableError as Unavailable

    servers = make_fleet(bus, 2)

    def warming_up(argument):
        raise Unavailable("restarting")

    servers["sp1"].register("echo", warming_up)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    results = {gateway.call("echo", i)["replica"] for i in range(4)}
    assert results == {"sp2"}


def test_all_replicas_dead_raises_bounded(bus):
    servers = make_fleet(bus, 2)
    for server in servers.values():
        server.paused = True
    gateway = make_gateway(bus, ["sp1", "sp2"])
    before = bus.clock_ms
    with pytest.raises(ServiceUnavailableError):
        gateway.call("echo", "x")
    assert bus.clock_ms - before < 3_000.0  # bounded, not forever


# -- switch verification -----------------------------------------------------


def test_verify_switch_runs_once_per_replica(bus):
    make_fleet(bus, 2)
    verified = []
    gateway = make_gateway(
        bus, ["sp1", "sp2"], verify_switch=verified.append
    )
    for i in range(6):
        gateway.call("echo", i)
    assert sorted(set(verified)) == ["sp1", "sp2"]
    assert len(verified) == 2  # cached until reset_verified()
    gateway.reset_verified()
    gateway.call("echo", "again")
    assert len(verified) == 3


def test_unverifiable_replica_is_routed_around(bus):
    from repro.errors import ResponseIntegrityError

    make_fleet(bus, 2)

    def reject_sp1(replica):
        if replica == "sp1":
            raise ResponseIntegrityError("stale roots")

    gateway = make_gateway(bus, ["sp1", "sp2"], verify_switch=reject_sp1)
    results = {gateway.call("echo", i)["replica"] for i in range(4)}
    assert results == {"sp2"}
    assert not gateway.replicas["sp1"].healthy


# -- bounded bookkeeping -----------------------------------------------------


def test_inflight_bookkeeping_is_bounded():
    state = ReplicaState("sp", outstanding_limit=16)
    for request_id in range(1000):
        state.track(request_id, float(request_id))
    assert state.outstanding == 16
    # Oldest entries were evicted; newest retained.
    assert 999 in state.inflight and 0 not in state.inflight
    assert state.dispatched == 1000


# -- the pipelined path ------------------------------------------------------


def test_call_many_keeps_the_fleet_busy(bus):
    servers = make_fleet(bus, 2, service_time_ms=40.0)
    gateway = make_gateway(
        bus, ["sp1", "sp2"],
        policy=RetryPolicy(timeout_ms=500.0, max_attempts=1),
    )
    results = gateway.call_many("echo", list(range(8)))
    assert [r["arg"] for r in results] == list(range(8))
    # 8 x 40ms of service over 2 replicas ≈ 160ms + latency — far less
    # than the 320ms+ a single worker would need.
    assert bus.clock_ms < 300.0
    assert all(s.requests_served >= 2 for s in servers.values())


def test_call_many_fails_over_mid_batch(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(bus, ["sp1", "sp2"])
    results = gateway.call_many("echo", list(range(6)))
    assert [r["arg"] for r in results] == list(range(6))
    assert {r["replica"] for r in results} == {"sp2"}


def test_call_many_raises_terminal_error(bus):
    servers = make_fleet(bus, 2)
    for server in servers.values():
        def bad_query(argument):
            raise QueryError("bad request")

        server.register("fail", bad_query)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    with pytest.raises(QueryError, match="bad request"):
        gateway.call_many("fail", [1, 2, 3])


# -- one rule set per dispatch -----------------------------------------------


def test_call_is_a_batch_of_one(bus):
    make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    assert gateway.call("echo", "x") == {"replica": "sp1", "arg": "x"}
    assert gateway.call_many("echo", ["y"]) == [{"replica": "sp2", "arg": "y"}]


def test_spent_deadline_sends_nothing_and_strikes_nobody(bus):
    servers = make_fleet(bus, 3)
    gateway = make_gateway(bus, list(servers))
    bus.run_for(100.0)
    for dispatch in (
        lambda: gateway.call("echo", "a", deadline_ms=50.0),
        lambda: gateway.call_many("echo", ["a", "b"], deadline_ms=50.0),
    ):
        with pytest.raises(DeadlineExceededError):
            dispatch()
    assert gateway.rpc.calls == 0
    assert bus.clock_ms == 100.0
    for state in gateway.replicas.values():
        assert state.healthy and state.failures == 0


def test_deadline_expiring_in_flight_abandons_without_a_strike(bus):
    servers = make_fleet(bus, 2)
    for server in servers.values():
        server.paused = True  # requests vanish: nothing ever answers
    gateway = make_gateway(
        bus, list(servers), breaker=CircuitBreakerPolicy(failure_trip=1)
    )
    deadline = bus.clock_ms + 40.0  # well inside the 100 ms timeout
    with pytest.raises(DeadlineExceededError):
        gateway.call_many("echo", ["a", "b"], deadline_ms=deadline)
    assert bus.clock_ms == deadline
    assert gateway.rpc.calls == 2 and gateway.rpc.timeouts == 0
    for state in gateway.replicas.values():
        assert state.healthy and state.failures == 0
        assert state.outstanding == 0
        assert state.breaker.trips == 0


def test_latency_window_takes_one_sample_per_successful_dispatch(bus):
    admission = AdmissionPolicy(shed_delay_ms=5.0, queue_limit=1)
    make_fleet(bus, 2, service_time_ms=20.0, admission=admission)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    for i in range(8):
        gateway.call("echo", i)
    windows = {name: len(s.latency) for name, s in gateway.replicas.items()}
    assert windows == {"sp1": 4, "sp2": 4}
    assert [s.answered for s in gateway.replicas.values()] == [4, 4]
    # A deadline refusal (terminal) and a shed (failed over) are not
    # latency samples of the replica that refused.
    with pytest.raises(DeadlineExceededError):
        gateway.call("echo", "doomed", deadline_ms=bus.clock_ms + 15.0)
    flood = RpcClient(bus, "flood", RetryPolicy(max_attempts=1))
    for i in range(4):
        flood.begin("sp2", "echo", i)
    assert gateway.call("echo", "shed-by-sp2")["replica"] == "sp1"
    assert gateway.replicas["sp2"].failures == 1
    assert len(gateway.replicas["sp1"].latency) == windows["sp1"] + 1
    assert len(gateway.replicas["sp2"].latency) == windows["sp2"]


@pytest.mark.parametrize("warm", [False, True])
def test_a_dispatch_is_one_send_warm_or_cold(bus, warm):
    """The gateway's own ``max_attempts`` is not a per-dispatch resend
    count: a replica that times out was sent to exactly once, whether
    its latency window can already drive a hedge or not."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(
        bus, ["sp1", "sp2"],
        policy=RetryPolicy(timeout_ms=100.0, max_attempts=3),
        hedge=HedgePolicy(min_samples=2),
    )
    if warm:
        for i in range(4):
            gateway.call("echo", i)
    servers["sp1"].paused = True
    assert gateway.call("echo", "x")["replica"] == "sp2"
    assert servers["sp1"].requests_dropped == 1
    assert gateway.hedges == (1 if warm else 0)


def test_batches_hedge_too(bus):
    servers = make_fleet(bus, 2, service_time_ms=10.0)
    gateway = make_gateway(
        bus, ["sp1", "sp2"],
        policy=RetryPolicy(timeout_ms=1_000.0, max_attempts=1),
        hedge=HedgePolicy(min_samples=2),
    )
    gateway.call_many("echo", list(range(4)))  # warms both windows
    servers["sp1"]._service_times["echo"] = 500.0
    started = bus.clock_ms
    results = gateway.call_many("echo", ["a", "b"])
    assert {r["replica"] for r in results} == {"sp2"}
    assert gateway.hedges == 1 and gateway.hedge_wins == 1
    assert bus.clock_ms - started < 100.0
    assert gateway.replicas["sp1"].failures == 0  # the loser is not struck


def test_rejected_answer_strikes_the_replica_and_is_redispatched(bus):
    make_fleet(bus, 3)
    gateway = make_gateway(bus, ["sp1", "sp2", "sp3"])
    rejected = []

    def accept(position, result):
        if result["replica"] != "sp3":
            rejected.append((position, result["replica"]))
            raise ResponseIntegrityError("forged")

    results = gateway.call_many("echo", ["a", "b"], accept=accept)
    assert [r["replica"] for r in results] == ["sp3", "sp3"]
    # Every rejection is one strike on the replica that answered, and
    # one failover of the item it answered for.
    assert {position for position, _replica in rejected} == {0, 1}
    assert {name: s.failures for name, s in gateway.replicas.items()} == {
        "sp1": sum(replica == "sp1" for _position, replica in rejected),
        "sp2": sum(replica == "sp2" for _position, replica in rejected),
        "sp3": 0,
    }
    assert gateway.failovers == len(rejected)
    # Nobody honest left: the budget, not the caller, bounds the retries.
    with pytest.raises(ServiceUnavailableError, match="dispatches"):
        gateway.call_many(
            "echo", ["c"],
            accept=lambda position, result: accept(position, {"replica": ""}),
        )


def test_every_flight_of_an_item_carries_the_one_encoding(bus, monkeypatch, encoded):
    """A hedge and a re-dispatch re-send the bytes the first flight
    carried -- the same object -- and a caller that already holds an
    item's encoding hands it in: ``call_many`` then encodes nothing."""
    servers = make_fleet(bus, 2, service_time_ms=10.0)
    gateway = make_gateway(
        bus, ["sp1", "sp2"],
        policy=RetryPolicy(timeout_ms=1_000.0, max_attempts=1),
        hedge=HedgePolicy(min_samples=2),
    )
    gateway.call_many("echo", list(range(4)))  # warms both windows
    sent, send = [], bus.send
    monkeypatch.setattr(
        bus, "send", lambda *route: sent.append(route[-1]) or send(*route)
    )

    def flights(argument):
        return [
            message.payload for message in sent
            if isinstance(message, RpcRequest)
            and wire.decode(message.payload) == argument
        ]

    servers["sp1"]._service_times["echo"] = 500.0
    gateway.call_many("echo", ["hedged"])
    assert gateway.hedges == 1
    first, second = flights("hedged")
    assert second is first
    assert encoded.count("hedged") == 1

    def accept(position, result):
        if result["replica"] == "sp1":
            raise ResponseIntegrityError("forged")

    servers["sp1"]._service_times["echo"] = 10.0
    for _ in range(4):  # until the balancer picks sp1 first
        del sent[:], encoded[:]
        gateway.call_many("echo", ["again"], accept=accept)
        if len(flights("again")) == 2:
            break
    first, second = flights("again")  # refused by accept, re-dispatched
    assert second is first
    assert encoded.count("again") == 1

    held = wire.encode("held")
    del encoded[:]
    assert gateway.call_many("echo", ["held"], payloads=[held])[0]["arg"] == "held"
    assert flights("held")[0] is held
    assert "held" not in encoded


def test_a_request_corrupted_into_a_float_bound_is_a_drop_and_a_retry(bus, monkeypatch):
    """The defect PR 22's corpus found: ``flip_hex_digit`` can turn a
    digit of ``hi`` into ``e``.  The request's own class refuses it at
    the replica's decode, so it costs what a lost packet costs -- one
    timeout, one strike -- and the re-dispatch (same bytes) is answered."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    request = ValueRangeQuery(index="range", lo=0, hi=2000)
    payload = wire.encode(request)
    flipped = payload.replace(b'"hi":2000', b'"hi":2e00')
    seed = next(s for s in range(10**6) if flip_hex_digit(payload, random.Random(s)) == flipped)
    assert isinstance(json.loads(flipped)["!f"]["hi"], float)
    injector = FaultInjector(seed=0)
    injector.set_link("gw", "sp1", LinkFaults(
        corrupt_rate=1.0, corrupter=lambda m, _rng: m.corrupted(random.Random(seed)),
    ))
    bus.install_faults(injector)
    sent, send = [], bus.send
    monkeypatch.setattr(bus, "send", lambda *route: sent.append(route) or send(*route))

    (result,) = gateway.call_many("echo", [request], payloads=[payload])

    assert result == {"replica": "sp2", "arg": request}
    assert servers["sp1"].requests_dropped == 1 and servers["sp1"].invocations == {}
    assert gateway.replicas["sp1"].failures == 1 and gateway.failovers == 1
    flights = [route[-1] for route in sent if isinstance(route[-1], RpcRequest)]
    assert [route[1] for route in sent if isinstance(route[-1], RpcRequest)] == ["sp1", "sp2"]
    assert flights[0].payload is payload and flights[1].payload is payload


def _faulty_world(seed):
    """A 3-replica fleet behind drops, jitter, one slow and one shedding
    replica — everything keyed off ``seed`` so two builds are twins."""
    bus = MessageBus(default_latency_ms=5.0)
    bus.install_faults(
        FaultInjector(
            seed=seed, default=LinkFaults(drop_rate=0.15, jitter_ms=20.0)
        )
    )
    servers = make_fleet(
        bus, 3, service_time_ms=10.0,
        admission=AdmissionPolicy(shed_delay_ms=15.0, queue_limit=2),
    )
    servers["sp3"]._service_times["echo"] = 90.0
    gateway = make_gateway(
        bus, list(servers), balancer="seeded-random", seed=seed,
        breaker=CircuitBreakerPolicy(failure_trip=2),
        hedge=HedgePolicy(min_samples=3),
    )
    return bus, gateway


@pytest.mark.parametrize("seed", range(5))
def test_call_and_one_item_call_many_are_the_same_path(seed):
    def drive(dispatch):
        bus, gateway = _faulty_world(seed)
        results = []
        for i in range(40):
            deadline = bus.clock_ms + 150.0 if i % 3 == 0 else 0.0
            try:
                results.append(dispatch(gateway, i, deadline))
            except (DeadlineExceededError, ServiceUnavailableError) as exc:
                results.append(type(exc).__name__)
        books = {
            name: (
                s.dispatched, s.answered, s.failures, s.overloads,
                s.healthy, s.breaker.state, s.breaker.trips, len(s.latency),
            )
            for name, s in gateway.replicas.items()
        }
        counters = (gateway.failovers, gateway.hedges, gateway.hedge_wins)
        return results, bus.clock_ms, books, counters

    single = drive(
        lambda gateway, i, deadline: gateway.call(
            "echo", i, deadline_ms=deadline
        )
    )
    batch = drive(
        lambda gateway, i, deadline: gateway.call_many(
            "echo", [i], deadline_ms=deadline
        )[0]
    )
    assert single == batch
    results, _clock, books, counters = single
    # The worlds are genuinely faulty, so the equality is not vacuous.
    assert any(isinstance(result, dict) for result in results)
    assert sum(failures for _d, _a, failures, *_rest in books.values()) > 0
